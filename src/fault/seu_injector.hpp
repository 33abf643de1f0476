// SeuInjector: plants one single-event upset (fault_model.hpp's FaultSite)
// into a running GA core and classifies the outcome. Three backends reach
// the same flip-flop three different ways:
//
//   kScan     — through the pins: assert `test` and rotate the full AUDI
//               scan chain once (length() shift cycles), re-injecting every
//               dumped bit on scanin except the target, which is inverted —
//               the classic scan-based read-modify-write fault injection.
//               The optimizer is frozen while shifting, so the rotation
//               cycles do not count toward the run's cycle budget.
//   kPoke     — simulator backdoor: GaSystem::flip_register_bit on the
//               RT-level core's register file between two clock edges.
//   kLaneMask — CompiledNetlist::xor_register_lanes on the gate-level
//               64-lane simulation: one XOR plants an independent fault per
//               lane of the same baseline run (campaign.hpp drives this).
//
// Injection happens at the first scan-safe cycle >= FaultSite::cycle
// (cycles counted from the kStart state), which makes the three backends
// architecturally equivalent — verified by tests/fault/ and the campaign's
// sampled cross-check.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "fault/fault_model.hpp"
#include "fitness/functions.hpp"
#include "trace/event.hpp"

namespace gaip::system {
class GaSystem;
}

namespace gaip::fault {

enum class InjectBackend : std::uint8_t { kScan = 0, kPoke, kLaneMask };

inline const char* backend_name(InjectBackend b) noexcept {
    switch (b) {
        case InjectBackend::kScan: return "scan";
        case InjectBackend::kPoke: return "poke";
        case InjectBackend::kLaneMask: return "lane-mask";
    }
    return "?";
}

struct InjectorConfig {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    core::GaParameters params{};
    /// Watchdog = factor x golden ga_cycles; a run that misses it counts as
    /// hang (or recovered, when the FSM settled in kIdle).
    unsigned watchdog_factor = 4;
    /// PRESET mode (Table IV, 1..3) the supervisor falls back to.
    std::uint8_t fallback_preset = 1;
};

class SeuInjector {
public:
    explicit SeuInjector(InjectorConfig cfg);

    const InjectorConfig& config() const noexcept { return cfg_; }

    /// Fault-free RT-level reference run; also defines the cycle numbering
    /// (cycle 0 = the kStart cycle) every backend uses.
    const GoldenRun& golden() const noexcept { return golden_; }

    /// Deterministic result of a PRESET-mode run (behavioral model — the
    /// preset modes ignore all programmed state, so this is exact).
    const GoldenRun& preset_baseline() const noexcept { return preset_baseline_; }

    /// Scan-chain register layout of the core, head first: (name, width).
    const std::vector<std::pair<std::string, unsigned>>& layout() const noexcept {
        return layout_;
    }
    unsigned chain_length() const noexcept { return chain_length_; }

    /// Attach a telemetry sink (nullptr = off). Faulted runs then stream the
    /// full system telemetry plus two fault-layer events: `fault_inject`
    /// (the planted flip) and `divergence` (the first cycle whose
    /// state/best-fitness differs from the golden trajectory). Borrowed,
    /// must outlive the injector's runs.
    void set_sink(trace::TraceSink* sink) noexcept { sink_ = sink; }

    /// Per-cycle golden trajectory entry `c` = packed observation after
    /// c+1 cycles from kStart: state (low 8 bits) | best_fitness << 8.
    const std::vector<std::uint32_t>& golden_trajectory() const noexcept {
        return golden_traj_;
    }

    /// Run one faulted RT-level simulation (kScan or kPoke; kLaneMask runs
    /// batched inside FaultCampaign).
    FaultRecord run_rtl(const FaultSite& site, InjectBackend backend) const;

private:
    /// Overflow-checked `ga_cycles * factor + 64` (throws std::overflow_error
    /// on pathological cycle counts — see fault::watchdog_budget).
    std::uint64_t watchdog_cycles() const {
        return watchdog_budget(golden_.ga_cycles, cfg_.watchdog_factor);
    }

    InjectorConfig cfg_;
    GoldenRun golden_;
    GoldenRun preset_baseline_;
    std::vector<std::pair<std::string, unsigned>> layout_;
    std::vector<std::uint32_t> golden_traj_;
    unsigned chain_length_ = 0;
    trace::TraceSink* sink_ = nullptr;
};

}  // namespace gaip::fault
