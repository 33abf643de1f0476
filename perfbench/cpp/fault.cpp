// fault_campaign: the research path with no service in between. Complete
// mBF6_2 SEU campaigns (405 flip-flops x 25 injection points = 10,125
// injections each) run back to back on 512-lane JIT blocks over GA seeds
// drawn from the paper's seed set in a seed-determined order.
#include <algorithm>
#include <array>
#include <map>

#include "bench/common.hpp"
#include "fault/campaign.hpp"
#include "gates/jit.hpp"
#include "util/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gaip;

namespace {

constexpr unsigned kFaultSetupReps = 3;

/// The committed campaign's counts at seed 0x2961 (masked, wrong, hang,
/// recovered).
constexpr std::array<std::uint64_t, 4> kReferenceCounts = {7915, 1445, 759, 6};

fault::CampaignConfig campaign_config(std::uint16_t seed) {
    fault::CampaignConfig cfg;
    cfg.params.seed = seed;
    cfg.lane_words = kCampaignWords;
    cfg.threads = kCampaignThreads;
    cfg.backend = gates::Backend::kJit;
    return cfg;
}

struct Counts {
    std::uint64_t masked = 0, wrong = 0, hang = 0, recovered = 0, gate_cycles = 0, batches = 0;
    friend bool operator==(const Counts&, const Counts&) = default;
};

Counts counts_of(const fault::CampaignResult& r) {
    return {r.masked, r.wrong, r.hang, r.recovered, r.gate_cycles, r.batches};
}

/// One timed campaign: construction (the RT-level golden run), site
/// enumeration and the lane-block run, with the progress-callback stamps.
struct Timed {
    fault::CampaignResult res;
    Clock::time_point start, built, end;
    std::vector<Clock::time_point> ticks;
};

Timed run_campaign(std::uint16_t seed) {
    Timed t;
    t.start = Clock::now();
    fault::FaultCampaign c(campaign_config(seed));
    t.built = Clock::now();
    const std::vector<fault::FaultSite> sites = c.enumerate_sites();
    t.res = c.run_gate(sites, [&t](std::size_t, std::size_t) { t.ticks.push_back(Clock::now()); });
    t.end = Clock::now();
    return t;
}

void collect(const Timed& t, FaultSample& fs) {
    fs.golden_ms.add(ms_between(t.start, t.built));
    Clock::time_point prev = t.built;
    for (const Clock::time_point& k : t.ticks) {
        fs.batch_ms.add(ms_between(prev, k));
        prev = k;
    }
}

void check_reference(const fault::CampaignResult& r, Report& rep) {
    const std::array<std::uint64_t, 4> got = {r.masked, r.wrong, r.hang, r.recovered};
    rep.check(got == kReferenceCounts,
              "seed 0x2961 campaign counts " + std::to_string(r.masked) + "/" +
                  std::to_string(r.wrong) + "/" + std::to_string(r.hang) + "/" +
                  std::to_string(r.recovered) + " differ from 7915/1445/759/6");
}

void set_reference(const fault::CampaignResult& r, FaultSample& fs) {
    fs.masked = r.masked;
    fs.wrong = r.wrong;
    fs.hang = r.hang;
    fs.recovered = r.recovered;
    fs.batches = static_cast<double>(r.batches);
    fs.gate_cycles = static_cast<double>(r.gate_cycles);
}

}  // namespace

Phase run_fault_workload(const Options& o, SpanLog& spans, Report& rep) {
    Phase ph;
    ph.fault = true;
    std::array<std::uint16_t, 6> order = bench::kPaperSeeds;
    Rng r(o.seed * 0x2545F4914F6CDD1Dull + 5);
    std::shuffle(order.begin(), order.end(), r);

    // Set-up: campaign construction up to the first measured injection —
    // golden run, netlist build and lane-engine compile, JIT artifacts
    // loaded from the disk cache (the in-process registry is dropped first).
    for (unsigned k = 0; k < kFaultSetupReps; ++k) {
        gates::jit::clear_module_registry();
        const auto t0 = Clock::now();
        fault::FaultCampaign c(campaign_config(order[0]));
        const std::vector<fault::FaultSite> sites = c.enumerate_sites();
        c.run_gate({sites.front()});
        ph.setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    }

    // One untimed campaign first: the first multi-threaded campaign of a
    // process runs markedly slower than every later one.
    run_campaign(order[0]);

    std::map<std::uint16_t, Counts> first;
    std::map<std::uint16_t, std::vector<fault::FaultRecord>> samples;  // per seed, one per outcome
    std::uint64_t injections = 0, mismatched = 0;
    Samples rates;  // injections/s of each campaign
    const auto t_start = Clock::now();
    const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(o.seconds));
    Clock::time_point due = t_start;
    for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const std::uint16_t seed = order[k % order.size()];
        const Timed t = run_campaign(seed);
        ph.lag_ms.add(ms_between(due, t.start));
        ph.latency_ms.add(ms_between(t.start, t.end));
        rates.add(static_cast<double>(t.res.records.size()) / (ms_between(t.start, t.end) / 1e3));
        collect(t, ph.fs);
        injections += t.res.records.size();
        ++ph.jobs_sent;
        if (spans.enabled()) {
            const std::int64_t root = spans.add("campaign", t.start, t.end, -1, k);
            spans.add("fault.golden", t.start, t.built, root, k);
            spans.add("fault.run_gate", t.built, t.end, root, k);
        }
        const Counts c = counts_of(t.res);
        const auto [it, fresh] = first.emplace(seed, c);
        if (fresh) {
            std::map<fault::FaultOutcome, bool> seen;
            for (const fault::FaultRecord& rec : t.res.records)
                if (!seen[rec.outcome]) {
                    seen[rec.outcome] = true;
                    samples[seed].push_back(rec);
                }
            if (seed == kReferenceSeed) {
                check_reference(t.res, rep);
                set_reference(t.res, ph.fs);
            }
        } else if (!(it->second == c)) {
            ++mismatched;
            rep.failed += t.res.records.size();
        }
        due = t.end;
    }
    ph.rss_mb = peak_rss_mb();
    ph.throughput = rates.median();
    ph.p50_ms = ph.latency_ms.median();
    ph.p90_ms = ph.latency_ms.pct(90);
    rep.attempted = injections;
    rep.check(mismatched == 0, std::to_string(mismatched) + " campaigns did not repeat their seed's counts");

    // ---- outside the timed window ----
    if (first.count(kReferenceSeed) == 0) {
        const Timed t = run_campaign(kReferenceSeed);
        check_reference(t.res, rep);
        set_reference(t.res, ph.fs);
    }
    // Stratified cross-check: one record per outcome class per seed,
    // replayed on the RT-level model through the scan-chain and the
    // register-poke injectors; all three backends must agree.
    std::vector<std::pair<std::uint16_t, fault::FaultRecord>> todo;
    for (const auto& [seed, recs] : samples)
        for (const fault::FaultRecord& rec : recs) todo.emplace_back(seed, rec);
    std::vector<int> disagree(todo.size(), 0);
    util::parallel_for_n(kCampaignThreads, todo.size(), [&](std::size_t i) {
        const fault::FaultCampaign c(campaign_config(todo[i].first));
        const fault::FaultRecord& g = todo[i].second;
        for (fault::InjectBackend b : {fault::InjectBackend::kScan, fault::InjectBackend::kPoke}) {
            const fault::FaultRecord x = c.run_rtl(g.site, b);
            if (x.outcome != g.outcome || x.inject_cycle != g.inject_cycle ||
                x.best_fitness != g.best_fitness || x.finished != g.finished)
                disagree[i] = 1;
        }
    });
    std::uint64_t bad = 0;
    for (int v : disagree) bad += static_cast<std::uint64_t>(v);
    rep.failed += bad;
    rep.check(bad == 0, std::to_string(bad) + " of " + std::to_string(todo.size()) +
                            " cross-checked records disagree with the RT-level injectors");
    rep.add_info("fault.crosschecked_records", static_cast<double>(todo.size()), "count");
    rep.add_info("fault.campaigns", static_cast<double>(ph.jobs_sent), "count");
    return ph;
}

FaultSample fault_probe(Report& rep) {
    FaultSample fs;
    const Timed t = run_campaign(kReferenceSeed);
    collect(t, fs);
    check_reference(t.res, rep);
    set_reference(t.res, fs);
    return fs;
}

}  // namespace perfbench
