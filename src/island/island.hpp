// IslandSystem: an N-core island-model GA built from the repo's GA engine.
// N engines run disjoint subpopulations of the same problem; a cycle-level
// migration interconnect parks every island at a generation-synchronous
// barrier each `interval` generations, exchanges the best members along a
// ring or star network, and releases the cores. The same system runs on
// three bit-exact substrates, selected by supervisor::BackendKind:
//
//   kRtl         N complete system::GaSystem instances (RT-level core, RNG,
//                memory, init/app modules), each with a MigrationRegisterBus
//                snooping its init handshake; islands advance cycle by cycle
//                and park at the kGenCheck boundary (the single-cycle
//                monitor-pulse window) while the interconnect pokes the
//                current population bank through the simulator backdoor;
//   kBehavioral  N core::BehavioralEngine instances stepped generation by
//                generation — the executable spec of the same exchange;
//   kGateLane    one bench::BatchGateRunner lane block (the compiled
//                gate-level netlist, interpreter or JIT backend): island i
//                is SIMD lane i, the barrier is per-lane clock gating
//                (CompiledNetlist::clock_gated), and migration pokes the
//                lane's software GA memory.
//
// Because all three substrates extract populations at the same observation
// point (the post-E2 monitor-capture edge, current bank), feed them through
// the one pure plan_migration() spec, and poke memory with the identical
// semantics (stale fit_sum, untouched best registers), the per-island
// trajectories AND the migration payloads are byte-identical everywhere —
// the property tests/island/test_island_differential.cpp pins.
//
// Barrier-to-barrier segments are data-independent across islands, so the
// RT-level and behavioral drivers parallelize them over `threads` workers
// (util::parallel_for_n) without changing a single bit of the result; the
// gate-lane driver is SIMD-parallel by construction and models the stall
// cycles a real N-core fabric would spend waiting at the barrier.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "gates/compiled.hpp"
#include "island/migration.hpp"
#include "prng/rng_module.hpp"
#include "rtl/module.hpp"
#include "rtl/signal.hpp"
#include "supervisor/supervisor.hpp"
#include "trace/event.hpp"

namespace gaip::island {

/// Init-handshake nets one interconnect port snoops (a subset of the
/// CoreWireBundle the init module drives).
struct MigrationBusPorts {
    rtl::Wire<bool>& ga_load;
    rtl::Wire<std::uint8_t>& index;
    rtl::Wire<std::uint16_t>& value;
    rtl::Wire<bool>& data_valid;
};

/// The interconnect's programmable-register file, one port per island: a
/// pure bus snoop that latches the index-6/7 extension writes of the init
/// handshake, exactly like the RNG module latches the seed write. The GA
/// core ACKs these indices without touching any core register, so the bus
/// rides the existing two-way handshake unchanged.
class MigrationRegisterBus final : public rtl::Module {
public:
    explicit MigrationRegisterBus(MigrationBusPorts ports)
        : Module("migration_bus"), p_(ports) {
        attach_all(interval_, count_policy_);
        sense();  // sampling snoop: no eval(), registers load on clock edges
    }

    void tick() override {
        if (!p_.ga_load.read() || !p_.data_valid.read()) return;
        switch (p_.index.read() & 0x7) {
            case kMigIntervalIndex: interval_.load(p_.value.read()); break;
            case kMigCountIndex: count_policy_.load(p_.value.read()); break;
            default: break;
        }
    }

    std::uint16_t interval_reg() const noexcept { return interval_.read(); }
    std::uint16_t count_policy_reg() const noexcept { return count_policy_.read(); }
    /// The raw register view, decoded (clamp against pop size separately).
    MigrationConfig decoded() const noexcept {
        return decode_registers(interval_.read(), count_policy_.read());
    }

private:
    MigrationBusPorts p_;
    rtl::Reg<std::uint16_t> interval_{"mig_interval", 0};
    rtl::Reg<std::uint16_t> count_policy_{"mig_count_policy", 0};
};

struct IslandConfig {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    /// Per-island GA parameters: pop_size is the SUBpopulation each island
    /// evolves; seed is the base seed per-island seeds derive from when
    /// `seeds` is empty.
    core::GaParameters base{};
    unsigned islands = 4;
    /// Per-island seeds (size == islands), or empty to derive them from
    /// base.seed deterministically.
    std::vector<std::uint16_t> seeds;
    Topology topology = Topology::kRing;
    /// Requested migration registers — the RAW values the init handshake
    /// programs; every substrate applies the same decode + clamp.
    MigrationConfig migration{};
    supervisor::BackendKind backend = supervisor::BackendKind::kBehavioral;
    /// Gate-lane substrate knobs (ignored elsewhere).
    gates::Backend gate_backend = gates::Backend::kAuto;
    unsigned words = 0;  ///< lane-block width in 64-lane words (0 = smallest fit)
    /// Worker threads for the barrier-to-barrier segments of the RT-level
    /// and behavioral drivers (bit-identical for any value; 1 = sequential).
    unsigned threads = 1;
    prng::RngKind rng_kind = prng::RngKind::kCellularAutomaton;
    /// Telemetry for the island_* interconnect events (borrowed; may be null).
    trace::TraceSink* sink = nullptr;
};

/// Per-island outcome and accounting.
struct IslandStats {
    std::uint16_t seed = 0;
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t evaluations = 0;
    /// GA cycles the island's core actually clocked (0 for behavioral).
    std::uint64_t run_cycles = 0;
    /// GA cycles spent clock-gated (RTL: idle) at migration barriers.
    std::uint64_t stall_cycles = 0;
    /// Best-ever fitness register at each generation 0..n_gens (the
    /// monitor-tap trajectory the differential harness compares).
    std::vector<std::uint16_t> best_trajectory;

    friend bool operator==(const IslandStats&, const IslandStats&) = default;
};

struct IslandResult {
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    unsigned best_island = 0;  ///< lowest island index achieving best_fitness
    /// Effective migration config every substrate ran: register decode +
    /// clamp of the requested values (mig_seed carried over).
    MigrationConfig effective{};
    std::vector<std::uint32_t> boundaries;
    /// Every migration of the run, in canonical order (boundary ascending,
    /// destination ascending, rank ascending) — byte-identical across
    /// substrates.
    std::vector<MigrationRecord> migrations;
    std::vector<IslandStats> islands;
    /// Wall GA cycles until the last island finished, barrier stalls
    /// included — the N-core makespan (0 for behavioral).
    std::uint64_t makespan_cycles = 0;
    /// What the RT-level MigrationRegisterBus latched off the handshake
    /// (mirrors the requested raw values; set on the RTL substrate only).
    std::uint16_t bus_interval_reg = 0;
    std::uint16_t bus_count_reg = 0;

    friend bool operator==(const IslandResult&, const IslandResult&) = default;
};

class IslandSystem {
public:
    /// Validates the structural config (C++-API path: throws
    /// std::invalid_argument on zero islands, a seed vector of the wrong
    /// size, a non-CA RNG on the gate substrate, or an oversized lane
    /// count). Migration register values are NOT structural — they clamp
    /// silently, like the hardware register path they model.
    explicit IslandSystem(IslandConfig cfg);

    const IslandConfig& config() const noexcept { return cfg_; }
    /// Resolved per-island parameters (preset-0 resolution of base).
    const core::GaParameters& params() const noexcept { return eff_params_; }
    const MigrationConfig& effective_migration() const noexcept { return eff_mig_; }
    const std::vector<std::uint16_t>& seeds() const noexcept { return seeds_; }
    const std::vector<std::uint32_t>& boundaries() const noexcept { return boundaries_; }

    /// Run the full island job on the configured substrate. Throws
    /// std::runtime_error if an island misses a barrier or completion
    /// within the cycle bound (the supervised wrapper turns that trip into
    /// a rollback instead; see supervised.hpp).
    IslandResult run();

private:
    IslandResult run_behavioral();
    IslandResult run_rtl();
    IslandResult run_gate();
    void emit(trace::TraceEvent e) const;
    void emit_boundary(std::uint32_t gen, const MigrationPlan& plan,
                       std::uint64_t makespan_so_far) const;
    void finalize(IslandResult& r) const;

    IslandConfig cfg_;
    core::GaParameters eff_params_{};
    MigrationConfig eff_mig_{};
    std::vector<std::uint16_t> seeds_;
    std::vector<std::uint32_t> boundaries_;
};

/// Convenience wrapper mirroring run_ga_system().
IslandResult run_island_system(const IslandConfig& cfg);

}  // namespace gaip::island
