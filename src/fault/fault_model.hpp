// Single-event-upset (SEU) fault model for the GA core (Sec. III-C.2: the
// AUDI scan chain gives full state controllability; Table IV's PRESET modes
// are the paper's fault-tolerance story for initialization failure).
//
// A fault is one inverted flip-flop at one point of the optimization cycle:
// the (register, bit, cycle) triple of FaultSite. Injection is restricted to
// SCAN-SAFE cycles — cycles whose controller state has no memory access or
// handshake in flight (the *Rn states, where the core only waits one cycle
// for the RNG) — so that all three injection backends (scan-chain
// read-modify-write, direct register poke, lane-wise XOR mask; see
// seu_injector.hpp) plant the *same* architectural upset and must agree on
// the outcome.
//
// Outcome taxonomy (campaign.hpp classifies every run):
//   kMasked      — run finished within the watchdog with the fault-free best
//                  fitness AND candidate (the upset was logically masked);
//   kWrongAnswer — run finished within the watchdog but delivered a
//                  different result (silent data corruption);
//   kRecovered   — run missed the watchdog, but the core's FSM settled in
//                  kIdle, where the PRESET fallback (assert preset pins,
//                  pulse start_GA — no reset needed) deterministically
//                  restarts the engine with the Table IV parameters;
//   kHang        — run missed the watchdog and the FSM is wedged outside
//                  kIdle (start_GA is only sampled in kIdle/kDone, so only
//                  a system reset can reclaim the core).
// "Missed the watchdog" includes faults that merely made the run
// pathologically long (e.g. an upper eff_ngens bit set): like a timeout-
// classified DUE in a radiation campaign, the supervisor cannot tell the
// difference without unbounded waiting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ga_core.hpp"
#include "fitness/functions.hpp"

namespace gaip::fault {

enum class FaultOutcome : std::uint8_t { kMasked = 0, kWrongAnswer, kHang, kRecovered };

inline const char* outcome_name(FaultOutcome o) noexcept {
    switch (o) {
        case FaultOutcome::kMasked: return "masked";
        case FaultOutcome::kWrongAnswer: return "wrong-answer";
        case FaultOutcome::kHang: return "hang";
        case FaultOutcome::kRecovered: return "recovered";
    }
    return "?";
}

/// One fault: invert `bit` (LSB-relative) of register `reg` at the first
/// scan-safe cycle >= `cycle` (cycles counted from the kStart cycle of the
/// optimization run). `reg`/`bit` name the flip-flop identically in the
/// RT-level core (scan-chain position) and the gate-level netlist (bit net
/// "<reg><bit>"), so one site replays on every backend.
struct FaultSite {
    std::string reg;
    unsigned bit = 0;
    std::uint64_t cycle = 0;

    friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

/// Reference (fault-free) run of the campaign configuration.
struct GoldenRun {
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t ga_cycles = 0;  ///< kStart to kDone, 50 MHz cycles
};

/// One classified injection.
struct FaultRecord {
    FaultSite site;
    std::uint64_t inject_cycle = 0;  ///< actual (scan-safe) injection cycle
    FaultOutcome outcome = FaultOutcome::kMasked;
    bool finished = false;           ///< GA_done within the watchdog
    std::uint16_t best_fitness = 0;  ///< final values (valid when finished)
    std::uint16_t best_candidate = 0;
    std::uint64_t ga_cycles = 0;     ///< kStart to GA_done (when finished)
    std::uint8_t final_state = 0;    ///< FSM state at the watchdog (when not)
};

/// The controller states whose cycles are scan-safe injection points: the
/// core is waiting exactly one cycle for the RNG — no memory address or
/// handshake output is live, so freezing the core (scan backend) or editing
/// state between two edges (poke / lane-mask backends) are equivalent.
inline bool scan_safe_state(core::GaCore::State s) noexcept {
    using S = core::GaCore::State;
    return s == S::kIpRn || s == S::kSelRn || s == S::kXoRn || s == S::kMu1Rn || s == S::kMu2Rn;
}

inline bool scan_safe_state(std::uint8_t s) noexcept {
    return scan_safe_state(static_cast<core::GaCore::State>(s));
}

/// Classification shared by every backend (see taxonomy above).
inline FaultOutcome classify(bool finished, std::uint16_t best_fitness,
                             std::uint16_t best_candidate, std::uint8_t final_state,
                             const GoldenRun& golden) noexcept {
    if (finished) {
        const bool exact = best_fitness == golden.best_fitness &&
                           best_candidate == golden.best_candidate;
        return exact ? FaultOutcome::kMasked : FaultOutcome::kWrongAnswer;
    }
    return static_cast<core::GaCore::State>(final_state) == core::GaCore::State::kIdle
               ? FaultOutcome::kRecovered
               : FaultOutcome::kHang;
}

/// Watchdog cycle budget shared by the SEU injector and the mission
/// supervisor: `ga_cycles * factor + 64`, with explicit uint64 overflow
/// checking. A pathological `eff_ngens` (e.g. an upper bit set during
/// programming or by an upset) can push the golden cycle count high enough
/// that the naive product wraps and silently arms an absurdly SHORT
/// watchdog; this throws std::overflow_error with the offending values
/// instead.
std::uint64_t watchdog_budget(std::uint64_t ga_cycles, std::uint64_t factor);

/// Exact result of Table IV preset mode `preset` (its low two bits, 1..3)
/// on fitness function `fn`: the run a PRESET fallback restarts into. The
/// preset modes resolve every parameter and the seed from constants, so the
/// (RTL-bit-exact) behavioral model gives it without a 10^5-cycle
/// simulation. `ga_cycles` is 0: it is not cycle-measured. The result
/// depends only on (fn, preset), so it is computed once per process and
/// shared by the SEU injector and the mission supervisor; safe to call from
/// any thread. Throws std::invalid_argument for mode 0.
GoldenRun preset_baseline(fitness::FitnessId fn, std::uint8_t preset);

/// Per-register aggregation for the vulnerability table.
struct RegisterVulnerability {
    std::string reg;
    unsigned width = 0;
    std::uint64_t injections = 0;
    std::uint64_t masked = 0;
    std::uint64_t wrong = 0;
    std::uint64_t hang = 0;
    std::uint64_t recovered = 0;

    /// Fraction of injections that did NOT end in the golden answer.
    double vulnerability() const noexcept {
        return injections == 0
                   ? 0.0
                   : static_cast<double>(injections - masked) / static_cast<double>(injections);
    }
};

std::vector<RegisterVulnerability> aggregate_by_register(
    const std::vector<FaultRecord>& records);

}  // namespace gaip::fault
