#include "island/island.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bench/gate_batch_runner.hpp"
#include "island/rtl_driver.hpp"
#include "mem/ga_memory.hpp"
#include "system/ga_system.hpp"
#include "util/worker_pool.hpp"

namespace gaip::island {

namespace {

using core::GaCore;
using detail::RtlIsland;

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

}  // namespace

IslandSystem::IslandSystem(IslandConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.islands == 0)
        throw std::invalid_argument("IslandSystem: need at least one island");
    if (cfg_.islands > bench::BatchGateRunner::kMaxLanes)
        throw std::invalid_argument("IslandSystem: island count exceeds the lane ceiling");
    if (!cfg_.seeds.empty() && cfg_.seeds.size() != cfg_.islands)
        throw std::invalid_argument("IslandSystem: seed vector size must equal island count");
    if (cfg_.backend == supervisor::BackendKind::kGateLane &&
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
    switch (cfg_.backend) {
        case supervisor::BackendKind::kBehavioral: return run_behavioral();
        case supervisor::BackendKind::kRtl: return run_rtl();
        case supervisor::BackendKind::kGateLane: return run_gate();
    }
    throw std::logic_error("IslandSystem: unknown backend");
}

IslandResult IslandSystem::run_behavioral() {
    const unsigned n = cfg_.islands;
    const core::FitnessFn fitness = core::rom_fitness(cfg_.fn);

    std::vector<std::unique_ptr<core::BehavioralEngine>> eng(n);
    for (unsigned i = 0; i < n; ++i) {
        core::GaParameters p = eff_params_;
        p.seed = seeds_[i];
        eng[i] = std::make_unique<core::BehavioralEngine>(p, fitness, cfg_.rng_kind,
                                                          /*keep_populations=*/false);
    }

    IslandResult r;
    core::RngState mig_rng(eff_mig_.mig_seed);
    for (const std::uint32_t g : boundaries_) {
        util::parallel_for_n(cfg_.threads, n, [&](std::size_t i) { eng[i]->run_to(g); });
        std::vector<std::vector<core::Member>> pops(n);
        for (unsigned i = 0; i < n; ++i) pops[i] = eng[i]->population();
        const MigrationPlan plan = plan_migration(pops, cfg_.topology, eff_mig_, mig_rng, g);
        for (const MigrationRecord& rec : plan.records)
            eng[rec.to]->poke_member(rec.dst_slot, rec.member);
        emit_boundary(g, plan, 0);
        r.migrations.insert(r.migrations.end(), plan.records.begin(), plan.records.end());
    }
    util::parallel_for_n(cfg_.threads, n,
                         [&](std::size_t i) { eng[i]->run_to(eff_params_.n_gens); });

    r.islands.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        IslandStats& s = r.islands[i];
        s.seed = seeds_[i];
        s.best_fitness = eng[i]->best_fitness();
        s.best_candidate = eng[i]->best_candidate();
        s.generations = eng[i]->generation();
        s.evaluations = eng[i]->evaluations();
        for (const core::GenerationStats& gs : eng[i]->history())
            s.best_trajectory.push_back(gs.best_fit);
    }
    finalize(r);
    return r;
}

IslandResult IslandSystem::run_rtl() {
    const unsigned n = cfg_.islands;
    const std::uint64_t bound = detail::island_cycle_bound(eff_params_);

    std::vector<RtlIsland> isl(n);
    for (unsigned i = 0; i < n; ++i)
        detail::build_rtl_island(isl[i], cfg_, eff_params_, seeds_[i]);

    // Init handshakes (uncounted, like the paper's on-fabric GA counter
    // that starts at the start_GA pulse).
    util::parallel_for_n(cfg_.threads, n, [&](std::size_t i) {
        if (!detail::init_rtl_island(isl[i], /*drain_start_pulse=*/false))
            throw std::runtime_error("IslandSystem: island init handshake timed out");
    });

    IslandResult r;
    core::RngState mig_rng(eff_mig_.mig_seed);
    std::vector<std::uint64_t> seg(n, 0);
    std::uint64_t makespan = 0;
    // At a barrier every island idles (clock-gated in hardware) until the
    // slowest of the segment arrives; after the LAST barrier there is no
    // further sync, so the final segment accrues no stall cycles.
    auto account_segment = [&](bool barrier) {
        std::uint64_t seg_max = 0;
        for (unsigned i = 0; i < n; ++i) seg_max = std::max(seg_max, seg[i]);
        for (unsigned i = 0; i < n; ++i) {
            isl[i].run_cycles += seg[i];
            if (barrier) isl[i].stall_cycles += seg_max - seg[i];
        }
        makespan += seg_max;
    };
    auto advance_all = [&](std::uint32_t target) {
        util::parallel_for_n(cfg_.threads, n, [&](std::size_t i) {
            const detail::AdvanceResult a = detail::advance_rtl(isl[i], target, bound);
            if (!a.ok)
                throw std::runtime_error("IslandSystem: island missed its cycle bound (rtl)");
            seg[i] = a.cycles;
        });
    };

    for (const std::uint32_t g : boundaries_) {
        advance_all(g);
        account_segment(/*barrier=*/true);
        std::vector<std::vector<core::Member>> pops(n);
        std::vector<bool> banks(n);
        for (unsigned i = 0; i < n; ++i) {
            banks[i] = isl[i].sys->core().current_bank();
            pops[i] =
                detail::members_from_memory(isl[i].sys->memory(), banks[i], eff_params_.pop_size);
        }
        const MigrationPlan plan = plan_migration(pops, cfg_.topology, eff_mig_, mig_rng, g);
        for (const MigrationRecord& rec : plan.records)
            isl[rec.to].sys->memory().poke(
                mem::bank_address(banks[rec.to], rec.dst_slot),
                mem::pack_member(rec.member.candidate, rec.member.fitness));
        emit_boundary(g, plan, makespan);
        r.migrations.insert(r.migrations.end(), plan.records.begin(), plan.records.end());
    }
    advance_all(UINT32_MAX);
    account_segment(/*barrier=*/false);

    r.islands.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        IslandStats& s = r.islands[i];
        s.seed = seeds_[i];
        s.best_fitness = isl[i].sys->best_fitness();
        s.best_candidate = isl[i].sys->best_candidate();
        s.generations = isl[i].sys->core().generation();
        s.evaluations = isl[i].sys->fitness_evaluations();
        s.run_cycles = isl[i].run_cycles;
        s.stall_cycles = isl[i].stall_cycles;
        for (const core::GenerationStats& gs : isl[i].sys->monitor().history())
            s.best_trajectory.push_back(gs.best_fit);
    }
    r.bus_interval_reg = isl[0].bus->interval_reg();
    r.bus_count_reg = isl[0].bus->count_policy_reg();
    finalize(r);
    return r;
}

IslandResult IslandSystem::run_gate() {
    const unsigned n = cfg_.islands;
    std::vector<core::GaParameters> lane_params(n, eff_params_);
    for (unsigned i = 0; i < n; ++i) lane_params[i].seed = seeds_[i];

    bench::BatchGateRunner runner(cfg_.fn, lane_params, cfg_.words, cfg_.gate_backend);
    std::vector<trace::MemorySink> sinks(n);
    for (unsigned i = 0; i < n; ++i) {
        runner.append_lane_write(i, kMigIntervalIndex, cfg_.migration.interval);
        runner.append_lane_write(i, kMigCountIndex, pack_count_policy(cfg_.migration));
        runner.set_lane_sink(i, &sinks[i]);
    }
    runner.begin_run();
    const std::uint64_t bound = runner.default_cycle_bound() * 4;

    IslandResult r;
    core::RngState mig_rng(eff_mig_.mig_seed);
    for (const std::uint32_t g : boundaries_) {
        runner.arm_generation_barrier(g);
        const std::size_t pending = runner.run_to_barrier(bound);
        if (pending != 0)
            throw std::runtime_error("IslandSystem: " + std::to_string(pending) +
                                     " lane(s) missed the migration barrier (gate)");
        std::vector<std::vector<core::Member>> pops(n);
        std::vector<bool> banks(n);
        for (unsigned i = 0; i < n; ++i) {
            banks[i] = runner.lane_bank(i);
            pops[i].resize(eff_params_.pop_size);
            for (unsigned j = 0; j < eff_params_.pop_size; ++j) {
                const std::uint32_t word = runner.peek_lane_mem(
                    i, mem::bank_address(banks[i], static_cast<std::uint8_t>(j)));
                pops[i][j] =
                    core::Member{mem::member_candidate(word), mem::member_fitness(word)};
            }
        }
        const MigrationPlan plan = plan_migration(pops, cfg_.topology, eff_mig_, mig_rng, g);
        for (const MigrationRecord& rec : plan.records)
            runner.poke_lane_mem(rec.to, mem::bank_address(banks[rec.to], rec.dst_slot),
                                 mem::pack_member(rec.member.candidate, rec.member.fitness));
        emit_boundary(g, plan, runner.cycles());
        r.migrations.insert(r.migrations.end(), plan.records.begin(), plan.records.end());
        runner.release_lanes();
    }
    runner.disarm_generation_barrier();
    if (runner.run_to_barrier(bound) != 0)
        throw std::runtime_error("IslandSystem: lane(s) missed the completion bound (gate)");

    r.islands.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        IslandStats& s = r.islands[i];
        const bench::BatchLaneResult& lr = runner.lane_result(i);
        s.seed = seeds_[i];
        s.best_fitness = lr.best_fitness;
        s.best_candidate = lr.best_candidate;
        s.generations = lr.generations;
        s.evaluations = lr.evaluations;
        s.stall_cycles = runner.lane_stall_cycles(i);
        s.run_cycles = lr.ga_cycles - s.stall_cycles;
        for (const trace::TraceEvent& e : sinks[i].events())
            if (e.kind == trace::kind::kGeneration)
                s.best_trajectory.push_back(static_cast<std::uint16_t>(e.u64("best_fit")));
    }
    finalize(r);
    return r;
}

IslandResult run_island_system(const IslandConfig& cfg) {
    IslandSystem sys(cfg);
    return sys.run();
}

}  // namespace gaip::island
