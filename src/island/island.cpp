#include "island/island.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gates/batch_runner.hpp"
#include "mem/ga_memory.hpp"
#include "util/worker_pool.hpp"

namespace gaip::island {

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

/// The per-substrate half of IslandSystem::run(): N islands that advance
/// to a generation boundary together and expose their current populations
/// between advances.
class Ensemble {
public:
    Ensemble() = default;
    Ensemble(const Ensemble&) = delete;
    Ensemble& operator=(const Ensemble&) = delete;
    virtual ~Ensemble() = default;
    /// Advance every island one edge past generation `g`'s boundary, or to
    /// completion for GaSystem::kEnd. Throws std::runtime_error when an
    /// island misses its cycle bound.
    virtual void advance(std::uint32_t g) = 0;
    virtual std::vector<core::Member> population(unsigned i) const = 0;
    virtual void poke(unsigned i, std::size_t slot, core::Member m) = 0;
    /// Wall GA cycles so far (0 where time is not modeled).
    virtual std::uint64_t makespan() const { return 0; }
    /// Per-island outcome after completion (r.islands is sized already).
    virtual void collect(IslandResult& r) const = 0;
};

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

class RtlEnsemble final : public Ensemble {
public:
    RtlEnsemble(const IslandConfig& cfg, const core::GaParameters& eff,
                const std::vector<std::uint16_t>& seeds)
        : threads_(cfg.threads),
          bound_(4 * core::cycle_bound(eff)),
          run_(seeds.size(), 0),
          stall_(seeds.size(), 0),
          seg_(seeds.size(), 0) {
        isl_.reserve(seeds.size());
        for (const std::uint16_t seed : seeds) isl_.emplace_back(cfg, eff, seed);
        // Init handshakes (uncounted, like the paper's on-fabric GA counter
        // that starts at the start_GA pulse).
        util::parallel_for_n(threads_, isl_.size(), [&](std::size_t i) {
            if (!isl_[i].sys->start())
                throw std::runtime_error("IslandSystem: island init handshake timed out");
        });
    }

    void advance(std::uint32_t g) override {
        util::parallel_for_n(threads_, isl_.size(), [&](std::size_t i) {
            const GaSystem::Advance a = isl_[i].sys->run_to(g, bound_);
            if (!a.ok) throw std::runtime_error("IslandSystem: island missed its cycle bound (rtl)");
            seg_[i] = a.cycles;
        });
        // At a barrier every island idles (clock-gated in hardware) until
        // the slowest of the segment arrives; after the LAST barrier there
        // is no further sync, so the final segment accrues no stall cycles.
        const std::uint64_t seg_max = *std::max_element(seg_.begin(), seg_.end());
        for (std::size_t i = 0; i < isl_.size(); ++i) {
            run_[i] += seg_[i];
            if (g != GaSystem::kEnd) stall_[i] += seg_max - seg_[i];
        }
        makespan_ += seg_max;
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
            const GaSystem& sys = *isl_[i].sys;
            IslandStats& s = r.islands[i];
            s.best_fitness = sys.best_fitness();
            s.best_candidate = sys.best_candidate();
            s.generations = sys.generation();
            s.evaluations = sys.fitness_evaluations();
            s.run_cycles = run_[i];
            s.stall_cycles = stall_[i];
            for (const core::GenerationStats& gs : sys.monitor().history())
                s.best_trajectory.push_back(gs.best_fit);
        }
        r.bus_interval_reg = isl_[0].bus->interval_reg();
        r.bus_count_reg = isl_[0].bus->count_policy_reg();
    }

private:
    unsigned threads_;
    std::uint64_t bound_;
    std::vector<RtlIsland> isl_;
    std::vector<std::uint64_t> run_, stall_, seg_;
    std::uint64_t makespan_ = 0;
};

class GateEnsemble final : public Ensemble {
public:
    GateEnsemble(const IslandConfig& cfg, const core::GaParameters& eff,
                 const std::vector<std::uint16_t>& seeds)
        : pop_(eff.pop_size),
          runner_(cfg.fn, lane_params(eff, seeds), cfg.words, cfg.gate_backend),
          sinks_(seeds.size()) {
        for (unsigned i = 0; i < seeds.size(); ++i) {
            runner_.append_lane_write(i, kMigIntervalIndex, cfg.migration.interval);
            runner_.append_lane_write(i, kMigCountIndex, pack_count_policy(cfg.migration));
            runner_.set_lane_sink(i, &sinks_[i]);
        }
        runner_.begin_run();
        bound_ = runner_.default_cycle_bound() * 4;
    }

    void advance(std::uint32_t g) override {
        if (parked_) runner_.release_lanes();
        parked_ = false;
        if (g == GaSystem::kEnd) {
            runner_.disarm_generation_barrier();
            if (runner_.run_to_barrier(bound_) != 0)
                throw std::runtime_error(
                    "IslandSystem: lane(s) missed the completion bound (gate)");
            return;
        }
        runner_.arm_generation_barrier(g);
        const std::size_t pending = runner_.run_to_barrier(bound_);
        if (pending != 0)
            throw std::runtime_error("IslandSystem: " + std::to_string(pending) +
                                     " lane(s) missed the migration barrier (gate)");
        parked_ = true;
    }
    std::vector<core::Member> population(unsigned i) const override {
        const bool bank = runner_.lane_bank(i);
        std::vector<core::Member> pop(pop_);
        for (unsigned j = 0; j < pop_; ++j) {
            const std::uint32_t word =
                runner_.peek_lane_mem(i, mem::bank_address(bank, static_cast<std::uint8_t>(j)));
            pop[j] = core::Member{mem::member_candidate(word), mem::member_fitness(word)};
        }
        return pop;
    }
    void poke(unsigned i, std::size_t slot, core::Member m) override {
        runner_.poke_lane_mem(
            i, mem::bank_address(runner_.lane_bank(i), static_cast<std::uint8_t>(slot)),
            mem::pack_member(m.candidate, m.fitness));
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

    unsigned pop_;
    gates::BatchGateRunner runner_;
    std::vector<trace::MemorySink> sinks_;
    std::uint64_t bound_ = 0;
    bool parked_ = false;
};

std::unique_ptr<Ensemble> make_ensemble(const IslandConfig& cfg, const core::GaParameters& eff,
                                        const std::vector<std::uint16_t>& seeds) {
    switch (cfg.backend) {
        case core::Substrate::kBehavioral:
            return std::make_unique<BehavioralEnsemble>(cfg, eff, seeds);
        case core::Substrate::kRtl: return std::make_unique<RtlEnsemble>(cfg, eff, seeds);
        case core::Substrate::kGates: return std::make_unique<GateEnsemble>(cfg, eff, seeds);
    }
    throw std::logic_error("IslandSystem: unknown backend");
}

}  // namespace

RtlIsland::RtlIsland(const IslandConfig& cfg, const core::GaParameters& eff,
                     std::uint16_t seed) {
    system::GaSystemConfig scfg;
    scfg.params = eff;
    scfg.params.seed = seed;
    scfg.internal_fems = {cfg.fn};
    scfg.rng_kind = cfg.rng_kind;
    scfg.keep_populations = false;
    scfg.extra_init_writes = {
        {kMigIntervalIndex, cfg.migration.interval},
        {kMigCountIndex, pack_count_policy(cfg.migration)},
    };
    sys = std::make_unique<system::GaSystem>(scfg);
    auto& w = sys->wires();
    bus = std::make_unique<MigrationRegisterBus>(
        MigrationBusPorts{w.ga_load, w.index, w.value, w.data_valid});
    // The bus snoops on the fast peripheral clock, like the system tap:
    // every handshake transition is visible there.
    sys->kernel().bind(*bus, sys->app_clock());
}

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
    // Every substrate runs the REGISTER view of the migration request:
    // 16-bit interval, 8-bit count + policy bit, then the silent clamp —
    // so an out-of-range request degrades identically everywhere.
    eff_mig_ = clamp_migration(
        decode_registers(cfg_.migration.interval, pack_count_policy(cfg_.migration)),
        eff_params_.pop_size);
    eff_mig_.mig_seed = cfg_.migration.mig_seed;
    seeds_ = cfg_.seeds.empty() ? derive_seeds(eff_params_.seed, cfg_.islands) : cfg_.seeds;
    boundaries_ = migration_boundaries(eff_mig_, cfg_.islands, eff_params_.n_gens);
}

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

void IslandSystem::finalize(IslandResult& r) const {
    r.effective = eff_mig_;
    r.boundaries = boundaries_;
    r.best_fitness = 0;
    r.best_island = 0;
    for (unsigned i = 0; i < r.islands.size(); ++i) {
        const IslandStats& s = r.islands[i];
        if (s.best_fitness > r.best_fitness) {
            r.best_fitness = s.best_fitness;
            r.best_candidate = s.best_candidate;
            r.best_island = i;
        }
        r.makespan_cycles =
            std::max(r.makespan_cycles, s.run_cycles + s.stall_cycles);
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
}

IslandResult IslandSystem::run() {
    const unsigned n = cfg_.islands;
    const std::unique_ptr<Ensemble> ens = make_ensemble(cfg_, eff_params_, seeds_);
    IslandResult r;
    core::RngState mig_rng(eff_mig_.mig_seed);
    for (const std::uint32_t g : boundaries_) {
        ens->advance(g);
        std::vector<std::vector<core::Member>> pops(n);
        for (unsigned i = 0; i < n; ++i) pops[i] = ens->population(i);
        const MigrationPlan plan = plan_migration(pops, cfg_.topology, eff_mig_, mig_rng, g);
        for (const MigrationRecord& rec : plan.records)
            ens->poke(rec.to, rec.dst_slot, rec.member);
        emit_boundary(g, plan, ens->makespan());
        r.migrations.insert(r.migrations.end(), plan.records.begin(), plan.records.end());
    }
    ens->advance(GaSystem::kEnd);

    r.islands.resize(n);
    ens->collect(r);
    for (unsigned i = 0; i < n; ++i) r.islands[i].seed = seeds_[i];
    finalize(r);
    return r;
}

IslandResult run_island_system(const IslandConfig& cfg) {
    IslandSystem sys(cfg);
    return sys.run();
}

}  // namespace gaip::island
