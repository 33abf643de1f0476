#include "island/island.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "gates/batch_runner.hpp"
#include "util/worker_pool.hpp"

namespace gaip::island {

/// The per-substrate half of IslandSystem::step(): N islands that advance
/// to a generation boundary together and expose their current populations
/// between advances.
class Ensemble {
public:
    Ensemble() = default;
    Ensemble(const Ensemble&) = delete;
    Ensemble& operator=(const Ensemble&) = delete;
    virtual ~Ensemble() = default;
    /// Advance every island one edge past generation `g`'s boundary, or to
    /// completion for core::kEnd. Throws std::runtime_error when an
    /// island misses its cycle bound.
    virtual void advance(std::uint32_t g) = 0;
    virtual std::vector<core::Member> population(unsigned i) const = 0;
    virtual void poke(unsigned i, std::size_t slot, core::Member m) = 0;
    /// Wall GA cycles so far (0 where time is not modeled).
    virtual std::uint64_t makespan() const { return 0; }
    /// Per-island outcome after completion (r.islands is sized already).
    virtual void collect(IslandResult& r) const = 0;
};

namespace {

using system::GaSystem;

/// Deterministic per-island seed schedule when no explicit seeds are given.
std::vector<std::uint16_t> derive_seeds(std::uint16_t base, unsigned islands) {
    std::vector<std::uint16_t> seeds(islands);
    for (unsigned i = 0; i < islands; ++i) {
        std::uint16_t s =
            static_cast<std::uint16_t>(base ^ static_cast<std::uint16_t>(0x9E37u * i));
        if (s == 0) s = 1;
        seeds[i] = s;
    }
    return seeds;
}

class BehavioralEnsemble final : public Ensemble {
public:
    BehavioralEnsemble(const IslandConfig& cfg, const core::GaParameters& eff,
                       const std::vector<std::uint16_t>& seeds)
        : threads_(cfg.threads), n_gens_(eff.n_gens) {
        const core::FitnessFn fitness = core::rom_fitness(cfg.fn);
        for (const std::uint16_t seed : seeds) {
            core::GaParameters p = eff;
            p.seed = seed;
            eng_.push_back(std::make_unique<core::BehavioralEngine>(
                p, fitness, cfg.rng_kind, /*keep_populations=*/false));
        }
    }

    void advance(std::uint32_t g) override {
        const std::uint32_t to = std::min(g, n_gens_);
        util::parallel_for_n(threads_, eng_.size(), [&](std::size_t i) { eng_[i]->run_to(to); });
    }
    std::vector<core::Member> population(unsigned i) const override {
        return eng_[i]->population();
    }
    void poke(unsigned i, std::size_t slot, core::Member m) override {
        eng_[i]->poke_member(slot, m);
    }
    void collect(IslandResult& r) const override {
        for (std::size_t i = 0; i < eng_.size(); ++i) {
            IslandStats& s = r.islands[i];
            s.best_fitness = eng_[i]->best_fitness();
            s.best_candidate = eng_[i]->best_candidate();
            s.generations = eng_[i]->generation();
            s.evaluations = eng_[i]->evaluations();
            for (const core::GenerationStats& gs : eng_[i]->history())
                s.best_trajectory.push_back(gs.best_fit);
        }
    }

private:
    unsigned threads_;
    std::uint32_t n_gens_;
    std::vector<std::unique_ptr<core::BehavioralEngine>> eng_;
};

/// N GaSystems, each with a MigrationRegisterBus snooping its init
/// handshake. Supervised, every segment starts at a per-island checkpoint,
/// and an island that misses its segment budget is rebuilt, restored and
/// re-run alone; supervised islands step sequentially, so the hook and the
/// rollback events never run concurrently.
class RtlEnsemble final : public Ensemble {
public:
    RtlEnsemble(const IslandConfig& cfg, const core::GaParameters& eff,
                const std::vector<std::uint16_t>& seeds, const IslandSupervision* sup,
                unsigned replica, RollbackTally& tally)
        : sink_(cfg.sink),
          seeds_(seeds),
          sup_(sup),
          replica_(replica),
          tally_(tally),
          threads_(sup != nullptr ? 1 : cfg.threads),
          bound_(4 * core::cycle_bound(eff)),
          isl_(seeds.size()) {
        // Each init program appends the interconnect's index-6/7 writes:
        // the RAW requested values (it clamps on use, like the hardware).
        scfg_.params = eff;
        scfg_.internal_fems = {cfg.fn};
        scfg_.rng_kind = cfg.rng_kind;
        scfg_.keep_populations = false;
        scfg_.extra_init_writes = {{kMigIntervalIndex, cfg.migration.interval},
                                   {kMigCountIndex, pack_count_policy(cfg.migration)}};
        // Init handshakes (uncounted, like the paper's on-fabric GA counter
        // that starts at the start_GA pulse); the drained start pulse opens
        // the first segment.
        util::parallel_for_n(threads_, isl_.size(), [&](std::size_t i) { isl_[i].seg = boot(i); });
    }

    void advance(std::uint32_t g) override {
        if (sup_ != nullptr) anchor();
        const std::uint32_t gens = std::min(g, scfg_.params.n_gens) - from_gen_;
        util::parallel_for_n(threads_, isl_.size(), [&](std::size_t i) { run_segment(i, g, gens); });
        // At a barrier every island idles (clock-gated in hardware) until
        // the slowest of the segment arrives; after the LAST barrier there
        // is no further sync, so the final segment accrues no stall cycles.
        std::uint64_t seg_max = 0;
        for (const Island& m : isl_) seg_max = std::max(seg_max, m.seg);
        for (Island& m : isl_) {
            m.run += m.seg;
            if (g != core::kEnd) m.stall += seg_max - m.seg;
            m.seg = 0;
            // The trajectory survives system replacement: a restored
            // system's monitor only sees generations past its checkpoint.
            const std::vector<core::GenerationStats>& h = m.sys->monitor().history();
            std::size_t k = h.size();
            while (k > 0 && h[k - 1].gen >= m.traj.size()) --k;
            for (; k < h.size(); ++k) m.traj.push_back(h[k].best_fit);
        }
        makespan_ += seg_max;
        from_gen_ = g;
    }
    std::vector<core::Member> population(unsigned i) const override {
        return isl_[i].sys->population();
    }
    void poke(unsigned i, std::size_t slot, core::Member m) override {
        isl_[i].sys->poke_member(slot, m);
    }
    std::uint64_t makespan() const override { return makespan_; }
    void collect(IslandResult& r) const override {
        for (std::size_t i = 0; i < isl_.size(); ++i) {
            const Island& m = isl_[i];
            IslandStats& s = r.islands[i];
            s.best_fitness = m.sys->best_fitness();
            s.best_candidate = m.sys->best_candidate();
            s.generations = m.sys->generation();
            s.evaluations = m.sys->fitness_evaluations();
            s.run_cycles = m.run;
            s.stall_cycles = m.stall;
            s.best_trajectory = m.traj;
        }
        r.bus_interval_reg = isl_[0].bus->interval_reg();
        r.bus_count_reg = isl_[0].bus->count_policy_reg();
    }

private:
    struct Island {
        std::unique_ptr<GaSystem> sys;
        std::unique_ptr<MigrationRegisterBus> bus;
        supervisor::Checkpoint cp;  ///< supervised: the segment's rollback anchor
        std::vector<std::uint16_t> traj;
        std::uint64_t run = 0, stall = 0;
        std::uint64_t seg = 0;  ///< cycles of the current segment
    };

    /// A fresh system for island `i` through its init handshake, with the
    /// start pulse drained (a restore must not re-trigger the RNG's
    /// seed-reload edge). Returns the drained cycles.
    std::uint64_t boot(std::size_t i) {
        Island& m = isl_[i];
        system::GaSystemConfig scfg = scfg_;
        scfg.params.seed = seeds_[i];
        m.bus.reset();
        m.sys = std::make_unique<GaSystem>(std::move(scfg));
        auto& w = m.sys->wires();
        m.bus = std::make_unique<MigrationRegisterBus>(
            MigrationBusPorts{w.ga_load, w.index, w.value, w.data_valid});
        // The bus snoops on the fast peripheral clock, like the system tap:
        // every handshake transition is visible there.
        m.sys->kernel().bind(*m.bus, m.sys->app_clock());
        if (!m.sys->start())
            throw std::runtime_error("IslandSystem: island init handshake timed out");
        return m.sys->drain_start_pulse();
    }

    /// Rollback anchors at the start of a segment: the gen-0 park point
    /// after the drained start pulse, then each post-migration park point,
    /// so a retry re-runs the segment with its imports already in place.
    void anchor() {
        for (std::size_t i = 0; i < isl_.size(); ++i) {
            Island& m = isl_[i];
            m.cp = supervisor::capture_checkpoint(*m.sys, m.run + m.seg);
            ++tally_.checkpoints;
            if (from_gen_ != 0)
                emit(trace::TraceEvent(trace::kind::kSupCheckpoint, 0, m.cp.cycle)
                         .add("replica", std::uint64_t{replica_})
                         .add("island", std::uint64_t{i})
                         .add("gen", std::uint64_t{from_gen_}));
        }
    }

    /// Island `i`'s part of the segment ending at `g` (`gens` generations).
    /// Supervised, a missed budget rolls back only this island and re-runs
    /// the segment with a doubled budget.
    void run_segment(std::size_t i, std::uint32_t g, std::uint32_t gens) {
        Island& m = isl_[i];
        if (sup_ == nullptr) {
            const core::Advance a = m.sys->run_to(g, bound_);
            if (!a.ok) throw std::runtime_error("IslandSystem: island missed its cycle bound (rtl)");
            m.seg += a.cycles;
            return;
        }
        // GA cycles one generation costs (evaluation handshakes + selection scan).
        const std::uint64_t pop = scfg_.params.pop_size;
        const std::uint64_t budget0 =
            sup_->watchdog_factor * ((std::uint64_t{gens} + 1) * pop * (64 + 8 * pop) + 10'000);
        const std::uint64_t base = m.run + m.seg;
        supervisor::AttemptInfo info;
        info.replica = replica_;
        info.attempt = static_cast<unsigned>(i);  // island index (IslandSupervision::hook)
        for (unsigned attempt = 0;; ++attempt) {
            info.rung = attempt == 0 ? supervisor::Rung::kPrimary : supervisor::Rung::kRetry;
            info.resumed = attempt > 0;
            info.resumed_gen = attempt > 0 ? m.cp.generation : 0;
            const std::uint64_t budget = budget0 << attempt;
            GaSystem& sys = *m.sys;
            GaSystem::CycleFn on_cycle;
            if (sup_->hook)
                on_cycle = [&](std::uint64_t c) { sup_->hook(sys, info, base + c); };
            const core::Advance a = sys.run_to(g, budget, on_cycle);
            if (a.ok) {
                m.seg += a.cycles;
                return;
            }
            ++tally_.watchdog_trips;
            emit(trace::TraceEvent(trace::kind::kWatchdogTrip, 0, base + a.cycles)
                     .add("replica", std::uint64_t{replica_})
                     .add("island", std::uint64_t{i})
                     .add("budget", budget)
                     .add("state", static_cast<std::uint64_t>(sys.state())));
            if (attempt == sup_->max_retries)
                throw std::runtime_error("island " + std::to_string(i) +
                                         ": exhausted its rollback budget");
            boot(i);
            supervisor::restore_checkpoint(*m.sys, m.cp);
            ++tally_.rollbacks;
            emit(trace::TraceEvent(trace::kind::kIslandRollback, 0, base)
                     .add("replica", std::uint64_t{replica_})
                     .add("island", std::uint64_t{i})
                     .add("gen", std::uint64_t{m.cp.generation})
                     .add("attempt", std::uint64_t{attempt + 1}));
        }
    }

    void emit(const trace::TraceEvent& e) const {
        if (sink_ != nullptr) sink_->on_event(e);
    }

    trace::TraceSink* sink_;
    const std::vector<std::uint16_t>& seeds_;
    const IslandSupervision* sup_;
    unsigned replica_;
    RollbackTally& tally_;
    unsigned threads_;
    std::uint64_t bound_;
    system::GaSystemConfig scfg_;  ///< every island's system but its seed
    std::vector<Island> isl_;
    std::uint32_t from_gen_ = 0;  ///< generation the current segment starts at
    std::uint64_t makespan_ = 0;
};

class GateEnsemble final : public Ensemble {
public:
    GateEnsemble(const IslandConfig& cfg, const core::GaParameters& eff,
                 const std::vector<std::uint16_t>& seeds)
        : runner_(cfg.fn, lane_params(eff, seeds), cfg.words, cfg.gate_backend),
          sinks_(seeds.size()) {
        for (unsigned i = 0; i < seeds.size(); ++i) {
            runner_.append_lane_write(i, kMigIntervalIndex, cfg.migration.interval);
            runner_.append_lane_write(i, kMigCountIndex, pack_count_policy(cfg.migration));
            runner_.set_lane_sink(i, &sinks_[i]);
        }
        runner_.begin_run();
        bound_ = runner_.default_cycle_bound() * 4;
    }

    /// `bound_` counts from reset, like the runner's cycles().
    void advance(std::uint32_t g) override {
        if (runner_.run_to(g, bound_ - runner_.cycles()).ok) return;
        if (g == core::kEnd)
            throw std::runtime_error("IslandSystem: lane(s) missed the completion bound (gate)");
        throw std::runtime_error("IslandSystem: " + std::to_string(runner_.pending_lanes()) +
                                 " lane(s) missed the migration barrier (gate)");
    }
    std::vector<core::Member> population(unsigned i) const override {
        return runner_.lane_population(i);
    }
    void poke(unsigned i, std::size_t slot, core::Member m) override {
        runner_.poke_lane_member(i, slot, m);
    }
    std::uint64_t makespan() const override { return runner_.cycles(); }
    void collect(IslandResult& r) const override {
        for (unsigned i = 0; i < sinks_.size(); ++i) {
            IslandStats& s = r.islands[i];
            const gates::BatchLaneResult& lr = runner_.lane_result(i);
            s.best_fitness = lr.best_fitness;
            s.best_candidate = lr.best_candidate;
            s.generations = lr.generations;
            s.evaluations = lr.evaluations;
            s.stall_cycles = runner_.lane_stall_cycles(i);
            s.run_cycles = lr.ga_cycles - s.stall_cycles;
            for (const trace::TraceEvent& e : sinks_[i].events())
                if (e.kind == trace::kind::kGeneration)
                    s.best_trajectory.push_back(static_cast<std::uint16_t>(e.u64("best_fit")));
        }
    }

private:
    static std::vector<core::GaParameters> lane_params(const core::GaParameters& eff,
                                                       const std::vector<std::uint16_t>& seeds) {
        std::vector<core::GaParameters> params(seeds.size(), eff);
        for (std::size_t i = 0; i < seeds.size(); ++i) params[i].seed = seeds[i];
        return params;
    }

    gates::BatchGateRunner runner_;
    std::vector<trace::MemorySink> sinks_;
    std::uint64_t bound_ = 0;
};

}  // namespace

IslandSystem::IslandSystem(IslandConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.islands == 0)
        throw std::invalid_argument("IslandSystem: need at least one island");
    if (cfg_.islands > gates::BatchGateRunner::kMaxLanes)
        throw std::invalid_argument("IslandSystem: island count exceeds the lane ceiling");
    if (!cfg_.seeds.empty() && cfg_.seeds.size() != cfg_.islands)
        throw std::invalid_argument("IslandSystem: seed vector size must equal island count");
    if (cfg_.backend == core::Substrate::kGates &&
        cfg_.rng_kind != prng::RngKind::kCellularAutomaton)
        throw std::invalid_argument("IslandSystem: the gate-lane substrate requires the CA RNG");

    eff_params_ = core::resolve_parameters(0, cfg_.base);
    // Every substrate runs the REGISTER view of the migration request, so
    // an out-of-range request degrades identically everywhere.
    eff_mig_ = island::effective_migration(cfg_.migration, eff_params_.pop_size);
    seeds_ = cfg_.seeds.empty() ? derive_seeds(eff_params_.seed, cfg_.islands) : cfg_.seeds;
    boundaries_ = migration_boundaries(eff_mig_, cfg_.islands, eff_params_.n_gens);
}

IslandSystem::IslandSystem(IslandConfig cfg, const IslandSupervision& sup, unsigned replica)
    : IslandSystem(std::move(cfg)) {
    if (cfg_.backend != core::Substrate::kRtl)
        throw std::invalid_argument(
            "IslandSystem: checkpoint rollback requires the RT-level substrate");
    sup_ = &sup;
    replica_ = replica;
}

IslandSystem::~IslandSystem() = default;

void IslandSystem::emit(trace::TraceEvent e) const {
    if (cfg_.sink != nullptr) cfg_.sink->on_event(e);
}

void IslandSystem::emit_boundary(std::uint32_t gen, const MigrationPlan& plan,
                                 std::uint64_t makespan_so_far) const {
    if (cfg_.sink == nullptr) return;
    emit(trace::TraceEvent(trace::kind::kIslandBarrier, 0, makespan_so_far)
             .add("gen", std::uint64_t{gen})
             .add("islands", std::uint64_t{cfg_.islands})
             .add("migrants", std::uint64_t{plan.records.size()})
             .add("topology", std::string(topology_name(cfg_.topology))));
    for (const MigrationRecord& rec : plan.records)
        emit(trace::TraceEvent(trace::kind::kIslandMigrate, 0, makespan_so_far)
                 .add("gen", std::uint64_t{rec.gen})
                 .add("from", std::uint64_t{rec.from})
                 .add("to", std::uint64_t{rec.to})
                 .add("src_slot", std::uint64_t{rec.src_slot})
                 .add("dst_slot", std::uint64_t{rec.dst_slot})
                 .add("candidate", std::uint64_t{rec.member.candidate})
                 .add("fitness", std::uint64_t{rec.member.fitness}));
}

void IslandSystem::start() {
    ens_.reset();
    tally_ = {};
    switch (cfg_.backend) {
        case core::Substrate::kBehavioral:
            ens_ = std::make_unique<BehavioralEnsemble>(cfg_, eff_params_, seeds_);
            break;
        case core::Substrate::kRtl:
            ens_ = std::make_unique<RtlEnsemble>(cfg_, eff_params_, seeds_, sup_, replica_,
                                                 tally_);
            break;
        case core::Substrate::kGates:
            ens_ = std::make_unique<GateEnsemble>(cfg_, eff_params_, seeds_);
            break;
    }
    mig_rng_ = core::RngState(eff_mig_.mig_seed);
    next_ = 0;
    migrations_.clear();
}

void IslandSystem::step() {
    const std::size_t k = next_++;
    if (k >= boundaries_.size()) {
        ens_->advance(core::kEnd);
        return;
    }
    const std::uint32_t g = boundaries_[k];
    ens_->advance(g);
    std::vector<std::vector<core::Member>> pops(cfg_.islands);
    for (unsigned i = 0; i < cfg_.islands; ++i) pops[i] = ens_->population(i);
    const MigrationPlan plan = plan_migration(pops, cfg_.topology, eff_mig_, mig_rng_, g);
    for (const MigrationRecord& rec : plan.records) ens_->poke(rec.to, rec.dst_slot, rec.member);
    emit_boundary(g, plan, ens_->makespan());
    migrations_.insert(migrations_.end(), plan.records.begin(), plan.records.end());
}

IslandResult IslandSystem::finish() const {
    IslandResult r;
    r.effective = eff_mig_;
    r.boundaries = boundaries_;
    r.migrations = migrations_;
    r.islands.resize(cfg_.islands);
    ens_->collect(r);
    for (unsigned i = 0; i < cfg_.islands; ++i) {
        IslandStats& s = r.islands[i];
        s.seed = seeds_[i];
        if (s.best_fitness > r.best_fitness) {
            r.best_fitness = s.best_fitness;
            r.best_candidate = s.best_candidate;
            r.best_island = i;
        }
        r.makespan_cycles = std::max(r.makespan_cycles, s.run_cycles + s.stall_cycles);
        emit(trace::TraceEvent(trace::kind::kIslandStall, 0, s.stall_cycles)
                 .add("island", std::uint64_t{i})
                 .add("stall_cycles", s.stall_cycles));
        emit(trace::TraceEvent(trace::kind::kIslandDone, 0, s.run_cycles)
                 .add("island", std::uint64_t{i})
                 .add("best_fit", std::uint64_t{s.best_fitness})
                 .add("best_ind", std::uint64_t{s.best_candidate})
                 .add("gens", std::uint64_t{s.generations})
                 .add("evals", s.evaluations));
    }
    return r;
}

IslandResult IslandSystem::run() {
    start();
    while (!done()) step();
    return finish();
}

IslandResult run_island_system(const IslandConfig& cfg) {
    IslandSystem sys(cfg);
    return sys.run();
}

}  // namespace gaip::island
