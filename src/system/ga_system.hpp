// GaSystem: the complete single-core system of Fig. 4 — GA core, RNG
// module, GA memory, fitness-mux with up to eight FEM slots (internal
// lookup FEMs and an optional external FEM with inter-chip latency),
// initialization module, application module, and generation monitor — all
// wired and clocked (50 MHz GA domain / 200 MHz peripheral domain). This is
// the entry point examples and benches use.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/behavioral.hpp"
#include "core/ga_core.hpp"
#include "gates/ga_core_gates.hpp"
#include "gates/rng_gates.hpp"
#include "fitness/fem.hpp"
#include "fitness/fem_mux.hpp"
#include "fitness/functions.hpp"
#include "mem/ga_memory.hpp"
#include "prng/rng_module.hpp"
#include "rtl/kernel.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"
#include "trace/tap.hpp"
#include "trace/vcd.hpp"
#include "system/app_module.hpp"
#include "system/dcm.hpp"
#include "system/init_module.hpp"
#include "system/monitor.hpp"
#include "system/wires.hpp"

namespace gaip::system {

struct GaSystemConfig {
    core::GaParameters params;

    /// Preset pins (Table IV): 0 = user mode (parameters are programmed via
    /// the init handshake), 1..3 = the built-in parameter/seed presets.
    std::uint8_t preset = 0;

    /// If true, the init module is left unprogrammed — the fault-tolerance
    /// scenario where parameter initialization failed and a preset mode
    /// carries the run.
    bool skip_initialization = false;

    /// Extra {index, value} writes appended to the init program after the
    /// six Table III parameters. The core's handshake ACKs every 3-bit
    /// index (unknown ones land in no core register), so extension
    /// registers — the island interconnect's migration interval/count/
    /// policy at indices 6/7 — are programmed over the same two-way
    /// handshake and latched by whichever module snoops the bus, exactly
    /// like the RNG module snoops the seed write.
    std::vector<std::pair<std::uint8_t, std::uint16_t>> extra_init_writes;

    /// Internal lookup FEMs occupying mux slots 0..n-1 (at most the slots
    /// the core's external_slot_mask leaves internal).
    std::vector<fitness::FitnessId> internal_fems = {fitness::FitnessId::kMBf6_2};

    /// Application-specific lookup tables. When non-empty these occupy the
    /// internal slots instead of `internal_fems` — how a real integration
    /// attaches its own fitness modules (e.g. the adaptive-healing example's
    /// temperature-dependent tables).
    std::vector<std::shared_ptr<const mem::BlockRom>> custom_roms;

    /// Optional FEM on the external ports (second-chip device, Fig. 5).
    std::optional<fitness::FitnessId> external_fem;
    unsigned external_latency_cycles = 24;

    /// Which fitness slot the run uses (3-bit fitfunc_select pin).
    std::uint8_t fitfunc_select = 0;

    prng::RngKind rng_kind = prng::RngKind::kCellularAutomaton;
    core::GaCoreConfig core_config{};

    /// Record full population snapshots per generation (needed by the
    /// convergence-scatter benches; costs memory for long runs).
    bool keep_populations = true;

    /// When non-empty, dump a VCD waveform to this path — the GA-module
    /// registers (core, RNG, memory output register) plus the top-level
    /// protocol nets, under a `ga_system` hierarchy — the model's
    /// NC-Verilog/ModelSim waveform visibility (loads in GTKWave).
    std::string vcd_path;

    /// Structured run telemetry (trace/event.hpp). When either field is set
    /// a SystemTap is instantiated and protocol/generation events flow to
    /// the sink(s); when both are unset tracing costs nothing. `trace_sink`
    /// is borrowed (not owned) and must outlive the system; `trace_path`
    /// opens a JSONL file sink owned by the system. Both may be active.
    trace::TraceSink* trace_sink = nullptr;
    std::string trace_path;

    /// Instantiate the fully gate-level GA module (gates::GateLevelGaCore
    /// + gates::GateLevelRngModule) instead of the RT-level models — the
    /// paper's gate-level netlist deliverable running inside the complete
    /// system. Bit- and cycle-exact with the RT level (tested), just
    /// slower to simulate. Requires the CA RNG kind.
    bool use_gate_level_core = false;
};

/// Init-handshake bound of GaSystem::start(), in GA cycles: six parameter
/// writes of a few 200 MHz cycles each, with wide slack.
inline constexpr std::uint64_t kInitBound = 4096;

class GaSystem {
public:
    /// run_to() target meaning "until GA_done".
    static constexpr std::uint32_t kEnd = UINT32_MAX;

    /// Per-GA-cycle callback of start() and run_to(), called with the number
    /// of cycles that call has clocked so far (the supervised ensemble's
    /// fault-injection surface).
    using CycleFn = std::function<void(std::uint64_t)>;

    /// How far one run_to() got.
    struct Advance {
        bool ok = false;           ///< reached the target within the bound
        std::uint64_t cycles = 0;  ///< GA cycles clocked (== bound on a miss)
    };

    explicit GaSystem(GaSystemConfig cfg);

    /// Reset and run the whole flow (initialization handshake, start pulse,
    /// optimization, GA_done) to completion: start() + run_to(kEnd) +
    /// finish(). Throws std::runtime_error if the system does not finish
    /// within cycle_bound().
    core::RunResult run();

    // --- resumable run: the shape of core::BehavioralEngine ---
    /// Reset, drive the static pins and run the init handshake until the
    /// core enters kStart. Returns false if that takes kInitBound cycles.
    bool start(const CycleFn& on_cycle = {});
    /// Clock until generation `g`'s boundary has passed: one edge past the
    /// cycle the monitor pulse rises with gen id `g` — the edge where the
    /// monitor has captured the boundary and the current bank is poke-safe
    /// (for g == n_gens that edge enters kDone). kEnd clocks until GA_done.
    /// Stops after `bound` cycles without reaching the target.
    Advance run_to(std::uint32_t g, std::uint64_t bound, const CycleFn& on_cycle = {});
    /// After GA_done: clock until the application module has taken the
    /// result, then return it. Throws std::runtime_error if it never does.
    core::RunResult finish();
    /// Clock until the start pulse has fallen (at most 32 cycles). Needed
    /// before a checkpoint restore: a still-high start_GA would re-trigger
    /// the RNG's seed-reload edge detector.
    void drain_start_pulse();
    /// One 50 MHz GA cycle (the 200 MHz peripheral domain advances inside).
    void ga_cycle() { kernel_.run_cycles(*ga_clk_, 1); }

    /// Completed generations: the core's generation counter.
    std::uint32_t generation() const;
    /// The core is in kDone (it raises GA_done there).
    bool done() const { return state() == core::GaCore::State::kDone; }
    core::GaCore::State state() const;
    /// The current population bank (valid where run_to() parks).
    std::vector<core::Member> population() const;
    /// Overwrite one slot of the current bank through the memory backdoor.
    /// Like core::BehavioralEngine::poke_member, the fit_sum register stays
    /// stale and the best-ever registers are untouched.
    void poke_member(std::size_t slot, core::Member m);
    /// Whole-run GA-cycle bound: core::cycle_bound() of the resolved
    /// parameters plus four times the external FEM latency per evaluation.
    std::uint64_t cycle_bound() const;

    // --- post-run metrics ---
    /// 50 MHz cycles from the start_GA pulse to GA_done (the GA execution
    /// time the paper measures with its on-fabric counter, Sec. IV-C).
    std::uint64_t ga_cycles() const noexcept { return ga_cycles_; }
    /// Same, in seconds of modeled hardware time.
    double ga_seconds() const noexcept {
        return static_cast<double>(ga_cycles_) / static_cast<double>(kGaClockHz);
    }
    std::uint64_t fitness_evaluations() const noexcept;

    // --- component access (tests, resource report) ---
    rtl::Kernel& kernel() noexcept { return kernel_; }
    rtl::Clock& ga_clock() noexcept { return *ga_clk_; }
    rtl::Clock& app_clock() noexcept { return *app_clk_; }
    /// RT-level core access (only valid when use_gate_level_core is off).
    core::GaCore& core() noexcept { return *core_; }
    bool gate_level() const noexcept { return gate_core_ != nullptr; }
    const gates::GateLevelGaCore& gate_core() const noexcept { return *gate_core_; }
    std::uint16_t best_candidate() const noexcept {
        return gate_core_ ? gate_core_->best_candidate() : core_->best_candidate();
    }
    std::uint16_t best_fitness() const noexcept {
        return gate_core_ ? gate_core_->best_fitness() : core_->best_fitness();
    }
    const mem::GaMemory& memory() const noexcept { return *memory_; }
    /// Mutable memory access: the supervisor's checkpoint/rollback backdoor
    /// (restore the 256x32 population store alongside the scan chain).
    mem::GaMemory& memory() noexcept { return *memory_; }
    /// RT-level RNG module (only valid when use_gate_level_core is off);
    /// exposed so checkpoints can capture/restore the CA state alongside the
    /// core's scan chain — the RNG registers are not stitched into it.
    prng::RngModule& rng_module() noexcept { return *rng_; }
    CoreWireBundle& wires() noexcept { return wires_; }
    InitModule& init_module() noexcept { return *init_; }
    AppModule& app_module() noexcept { return *app_; }
    const GenerationMonitor& monitor() const noexcept { return *monitor_; }
    /// Telemetry tap, or nullptr when tracing is off.
    const trace::SystemTap* tap() const noexcept { return tap_.get(); }
    const GaSystemConfig& config() const noexcept { return cfg_; }

    /// All FEMs (internal slots then the external one, if any).
    std::vector<const fitness::RomFitnessModule*> fems() const;

private:
    GaSystemConfig cfg_;
    rtl::Kernel kernel_;
    rtl::Clock* ga_clk_ = nullptr;
    rtl::Clock* app_clk_ = nullptr;

    CoreWireBundle wires_;
    rtl::Wire<bool> init_done_;
    rtl::Wire<bool> app_done_;

    std::unique_ptr<core::GaCore> core_;
    std::unique_ptr<gates::GateLevelGaCore> gate_core_;
    std::unique_ptr<prng::RngModule> rng_;
    std::unique_ptr<gates::GateLevelRngModule> gate_rng_;
    std::unique_ptr<mem::GaMemory> memory_;
    std::unique_ptr<fitness::FemMux> mux_;
    std::vector<std::unique_ptr<fitness::RomFitnessModule>> internal_fems_;
    std::unique_ptr<fitness::RomFitnessModule> external_fem_;
    std::unique_ptr<InitModule> init_;
    std::unique_ptr<AppModule> app_;
    std::unique_ptr<GenerationMonitor> monitor_;
    std::unique_ptr<trace::VcdWriter> vcd_;
    std::unique_ptr<trace::JsonlSink> trace_file_;
    trace::TeeSink trace_tee_;
    std::unique_ptr<trace::SystemTap> tap_;

    std::uint64_t ga_cycles_ = 0;
    std::uint64_t start_edge_ = 0;  ///< GA edge count the start pulse rose at
    bool prev_pulse_ = false;       ///< monitor pulse after the previous cycle
};

/// Convenience: build, run, and return the result in one call.
core::RunResult run_ga_system(const GaSystemConfig& cfg);

}  // namespace gaip::system
