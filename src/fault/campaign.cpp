#include "fault/campaign.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "gates/batch_runner.hpp"
#include "system/ga_system.hpp"
#include "util/worker_pool.hpp"

namespace gaip::fault {

namespace {

using core::GaCore;

constexpr unsigned kWordBits = gates::CompiledNetlist::kWordBits;

/// One campaign worker's gate engine: a lane-block BatchGateRunner on which
/// every lane runs the campaign configuration — lane 0 the fault-free
/// golden reference, each other lane one scheduled SEU.
class GateWorker {
public:
    explicit GateWorker(const CampaignConfig& cfg)
        : cfg_(cfg),
          runner_(cfg.fn, {cfg.params}, cfg.lane_words, cfg.backend) {
        // Fault-site addressing: register bit nets are named "<reg><bit>".
        const gates::GateNetlist& nl = runner_.core_ports().nl;
        for (const gates::Net q : nl.register_q_nets()) reg_net_by_name_.emplace(nl.name_of(q), q);
    }

    std::uint64_t cycles() const noexcept { return runner_.cycles(); }

    /// Run one batch: `sites` (at most lanes - 1) map to lanes 1..; lane 0
    /// stays fault-free and must reproduce `golden` exactly. Returns one
    /// record per site, in order.
    std::vector<FaultRecord> run_batch(const std::vector<FaultSite>& sites,
                                       const GoldenRun& golden) {
        // Resolve every site before simulating: an unknown one is an
        // argument error, whatever its cycle.
        std::vector<gates::Net> nets(sites.size());
        for (std::size_t i = 0; i < sites.size(); ++i) nets[i] = net_for(sites[i]);
        runner_.reconfigure(cfg_.fn, std::vector<core::GaParameters>(sites.size() + 1, cfg_.params));
        std::vector<std::optional<std::uint64_t>> inject_cycle(sites.size());
        std::size_t pending = sites.size();
        // Optimizer cycle each lane finished at (lane 0 = golden); 0 = not
        // yet, since no lane finishes at the kStart edge.
        std::vector<std::uint64_t> done_cycle(sites.size() + 1, 0);
        std::size_t open = sites.size() + 1;

        const std::uint64_t watchdog = golden.ga_cycles * cfg_.watchdog_factor + 64;
        // Optimizer cycle: 0 = the edge that loaded kStart in golden lane 0
        // (SeuInjector's numbering); -1 until then. Bound on edges before
        // the optimizer starts (init handshake).
        std::int64_t opt_cycle = -1;
        std::uint64_t prestart_guard = system::kInitBound;
        runner_.begin_run();
        while (true) {
            const std::size_t unfinished = runner_.step_cycle();
            const std::uint8_t gstate = runner_.lane_state(0);
            if (opt_cycle >= 0) {
                ++opt_cycle;
            } else if (gstate == static_cast<std::uint8_t>(GaCore::State::kStart)) {
                opt_cycle = 0;
            } else {
                if (--prestart_guard == 0)
                    throw std::runtime_error("FaultCampaign: optimizer never started");
                continue;
            }
            const auto opt = static_cast<std::uint64_t>(opt_cycle);
            if (unfinished < open) {
                for (std::size_t k = 0; k < done_cycle.size(); ++k)
                    if (done_cycle[k] == 0 && runner_.lane_result(static_cast<unsigned>(k)).finished)
                        done_cycle[k] = opt;
                open = unfinished;
            }

            // Fault injection: a lane is injected at the first scan-safe
            // cycle >= its site's grid cycle. Pre-injection every lane is
            // bit-exact with golden lane 0, so lane 0's state decides
            // safety for all.
            if (pending > 0 && scan_safe_state(gstate)) {
                for (std::size_t i = 0; i < sites.size(); ++i) {
                    if (inject_cycle[i] || sites[i].cycle > opt) continue;
                    runner_.flip_register_bit(static_cast<unsigned>(i + 1), nets[i]);
                    inject_cycle[i] = opt;
                    --pending;
                }
            } else if (pending > 0 && gstate == static_cast<std::uint8_t>(GaCore::State::kDone)) {
                throw std::logic_error(
                    "FaultCampaign: golden run ended before injection (grid too late)");
            }
            if (unfinished == 0 || opt >= watchdog) break;
        }

        // Golden-lane determinism check: the batched gate simulation must
        // reproduce the RT-level golden run bit- and cycle-exactly.
        const gates::BatchLaneResult& g = runner_.lane_result(0);
        if (!g.finished || g.best_fitness != golden.best_fitness ||
            g.best_candidate != golden.best_candidate || done_cycle[0] != golden.ga_cycles)
            throw std::runtime_error(
                "FaultCampaign: golden lane diverged from the RT-level reference (finished=" +
                std::to_string(g.finished) + " fit=" + std::to_string(g.best_fitness) + "/" +
                std::to_string(golden.best_fitness) + " cand=" + std::to_string(g.best_candidate) +
                "/" + std::to_string(golden.best_candidate) + " cycles=" +
                std::to_string(done_cycle[0]) + "/" + std::to_string(golden.ga_cycles) + ")");

        std::vector<FaultRecord> out;
        out.reserve(sites.size());
        for (std::size_t i = 0; i < sites.size(); ++i) {
            if (!inject_cycle[i])
                throw std::logic_error("FaultCampaign: site was never injected (grid too late)");
            const auto lane = static_cast<unsigned>(i + 1);
            const gates::BatchLaneResult& r = runner_.lane_result(lane);
            FaultRecord rec;
            rec.site = sites[i];
            rec.inject_cycle = *inject_cycle[i];
            rec.finished = r.finished;
            rec.final_state = runner_.lane_state(lane);
            if (r.finished) {
                rec.best_fitness = r.best_fitness;
                rec.best_candidate = r.best_candidate;
                rec.ga_cycles = done_cycle[lane];
            }
            rec.outcome = classify(rec.finished, rec.best_fitness, rec.best_candidate,
                                   rec.final_state, golden);
            out.push_back(rec);
        }
        return out;
    }

private:
    gates::Net net_for(const FaultSite& site) const {
        const auto it = reg_net_by_name_.find(site.reg + std::to_string(site.bit));
        if (it == reg_net_by_name_.end())
            throw std::invalid_argument("FaultCampaign: unknown fault site " + site.reg + "[" +
                                        std::to_string(site.bit) + "]");
        return it->second;
    }

    CampaignConfig cfg_;
    gates::BatchGateRunner runner_;
    std::unordered_map<std::string, gates::Net> reg_net_by_name_;
};

}  // namespace

FaultCampaign::FaultCampaign(CampaignConfig cfg)
    : cfg_(cfg),
      injector_(InjectorConfig{.fn = cfg.fn, .params = cfg.params,
                               .watchdog_factor = cfg.watchdog_factor,
                               .fallback_preset = cfg.fallback_preset}) {
    if (cfg_.cycle_points == 0)
        throw std::invalid_argument("FaultCampaign: cycle_points must be > 0");
    if (!(cfg_.cycle_span > 0.0) || cfg_.cycle_span >= 1.0)
        throw std::invalid_argument("FaultCampaign: cycle_span must be in (0, 1)");
    if (cfg_.stride == 0) throw std::invalid_argument("FaultCampaign: stride must be > 0");
    if (cfg_.lane_words != 1 && cfg_.lane_words != 2 && cfg_.lane_words != 4 &&
        cfg_.lane_words != 8)
        throw std::invalid_argument("FaultCampaign: lane_words must be 1, 2, 4 or 8");
}

std::vector<FaultSite> FaultCampaign::enumerate_sites() const {
    const std::uint64_t span =
        static_cast<std::uint64_t>(cfg_.cycle_span * static_cast<double>(golden().ga_cycles));
    std::vector<FaultSite> sites;
    std::uint64_t idx = 0;
    for (const auto& [reg, width] : injector_.layout()) {
        for (unsigned bit = 0; bit < width; ++bit) {
            for (unsigned g = 0; g < cfg_.cycle_points; ++g) {
                if (idx++ % cfg_.stride == 0)
                    sites.push_back(FaultSite{reg, bit, span * g / cfg_.cycle_points});
                if (cfg_.max_sites != 0 && sites.size() >= cfg_.max_sites) return sites;
            }
        }
    }
    return sites;
}

CampaignResult FaultCampaign::run_gate(
    const std::vector<FaultSite>& sites,
    const std::function<void(std::size_t, std::size_t)>& progress) {
    CampaignResult res;
    res.golden = injector_.golden();
    res.preset_baseline = injector_.preset_baseline();
    res.records.reserve(sites.size());
    if (sites.empty()) return res;

    // Partition into fixed (lane_count - 1)-site batches and fan the
    // batches out across workers: each worker lazily builds ONE compiled
    // gate engine and reuses it for every batch it picks up. Results land
    // in batch-indexed slots, so record order, counts and gate_cycles are
    // identical at every thread count.
    const std::size_t per_batch = std::size_t{cfg_.lane_words} * kWordBits - 1;
    const std::size_t n_batches = (sites.size() + per_batch - 1) / per_batch;
    const unsigned threads = util::resolve_threads(cfg_.threads, n_batches);

    std::vector<std::unique_ptr<GateWorker>> workers(threads);
    std::vector<std::vector<FaultRecord>> batch_recs(n_batches);
    std::vector<std::uint64_t> batch_cycles(n_batches, 0);
    std::mutex progress_mu;
    std::size_t done = 0;

    util::parallel_for_workers(threads, n_batches, [&](unsigned worker, std::size_t b) {
        if (!workers[worker]) workers[worker] = std::make_unique<GateWorker>(cfg_);
        GateWorker& gw = *workers[worker];
        const std::size_t base = b * per_batch;
        const std::size_t n = std::min(per_batch, sites.size() - base);
        const std::vector<FaultSite> batch(sites.begin() + static_cast<std::ptrdiff_t>(base),
                                           sites.begin() + static_cast<std::ptrdiff_t>(base + n));
        batch_recs[b] = gw.run_batch(batch, res.golden);
        batch_cycles[b] = gw.cycles();
        if (progress) {
            const std::lock_guard<std::mutex> lock(progress_mu);
            done += n;
            progress(done, sites.size());
        }
    });

    for (std::size_t b = 0; b < n_batches; ++b) {
        res.gate_cycles += batch_cycles[b];
        for (FaultRecord& rec : batch_recs[b]) {
            res.count(rec);
            res.records.push_back(std::move(rec));
        }
    }
    res.batches = n_batches;
    return res;
}

}  // namespace gaip::fault
