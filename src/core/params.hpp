// Programmable GA parameters (Tables III & IV of the paper) and the preset
// resolution logic.
//
// Initialization protocol (Sec. III-B.6): with ga_load asserted, the user
// places a parameter index on `index`, the value on the `value` bus, and
// asserts data_valid; the core latches the register selected by the index
// and answers on data_ack (two-way handshake). Indices:
//
//   0  number of generations [15:0]
//   1  number of generations [31:16]
//   2  population size
//   3  crossover rate (4-bit threshold: crossover iff rand4 < threshold)
//   4  mutation rate  (4-bit threshold: mutate   iff rand4 < threshold)
//   5  RNG seed (captured by the RNG module, which also snoops the bus)
//
// Preset modes (Table IV) bypass the programmed values entirely; mode 00
// selects the user-programmed registers.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/bits.hpp"

namespace gaip::core {

enum class ParamIndex : std::uint8_t {
    kNumGensLo = 0,
    kNumGensHi = 1,
    kPopSize = 2,
    kCrossoverRate = 3,
    kMutationRate = 4,
    kRngSeed = 5,
};

/// Resolved GA parameters as the optimization cycle consumes them.
struct GaParameters {
    std::uint8_t pop_size = 32;          ///< individuals per population (2..128)
    std::uint32_t n_gens = 32;           ///< generations to evolve
    std::uint8_t xover_threshold = 12;   ///< crossover iff rand4 < threshold (rate = t/16)
    std::uint8_t mut_threshold = 1;      ///< mutate iff rand4 < threshold (rate = t/16)
    std::uint16_t seed = 1;              ///< RNG seed (0 remaps to 1)

    friend bool operator==(const GaParameters&, const GaParameters&) = default;
};

/// The double-banked 256-word GA memory bounds the population at 128
/// members per bank. (Table IV's user row says "< 256", but the paper's own
/// presets stop at 128 and a 256-deep single-port memory cannot double-
/// buffer more; we clamp and document.)
inline constexpr std::uint8_t kMaxPopSize = 128;
inline constexpr std::uint8_t kMinPopSize = 2;

constexpr std::uint8_t clamp_pop_size(std::uint32_t p) noexcept {
    if (p < kMinPopSize) return kMinPopSize;
    if (p > kMaxPopSize) return kMaxPopSize;
    return static_cast<std::uint8_t>(p);
}

/// Preset parameter sets of Table IV (modes 01, 10, 11).
constexpr GaParameters preset_parameters(std::uint8_t mode) noexcept {
    switch (mode & 0x3) {
        case 1: return {.pop_size = 32, .n_gens = 512, .xover_threshold = 12, .mut_threshold = 1};
        case 2: return {.pop_size = 64, .n_gens = 1024, .xover_threshold = 13, .mut_threshold = 2};
        case 3: return {.pop_size = 128, .n_gens = 4096, .xover_threshold = 14, .mut_threshold = 3};
        default: return {};
    }
}

/// Resolve the parameters the core will actually run with: preset mode 00
/// uses the user-programmed values, other modes the Table IV constants.
constexpr GaParameters resolve_parameters(std::uint8_t preset, const GaParameters& user) noexcept {
    if ((preset & 0x3) == 0) {
        GaParameters p = user;
        p.pop_size = clamp_pop_size(p.pop_size);
        p.xover_threshold &= 0xF;
        p.mut_threshold &= 0xF;
        if (p.seed == 0) p.seed = 1;
        return p;
    }
    return preset_parameters(preset);
}

/// GA-cycle bound of one fault-free run with resolved parameters `eff`:
/// evaluations x (handshake + selection scan + `extra_per_eval`) plus a
/// fixed 100 000-cycle margin, saturating at UINT64_MAX. Every watchdog and
/// run bound derives from it, each with its own factor.
constexpr std::uint64_t cycle_bound(const GaParameters& eff,
                                    std::uint64_t extra_per_eval = 0) noexcept {
    const std::uint64_t evals = util::sat_mul_u64(eff.pop_size, std::uint64_t{eff.n_gens} + 1);
    const std::uint64_t per_eval =
        util::sat_add_u64(64 + 8 * std::uint64_t{eff.pop_size}, extra_per_eval);
    return util::sat_add_u64(util::sat_mul_u64(evals, per_eval), 100'000);
}

/// One init-handshake write: {parameter index, value}.
using InitWrite = std::pair<std::uint8_t, std::uint16_t>;

/// The six init-handshake writes covering Table III for `p` (both halves
/// of n_gens, pop size, both rates, seed).
inline std::vector<InitWrite> init_program(const GaParameters& p) {
    const auto at = [](ParamIndex i) { return static_cast<std::uint8_t>(i); };
    return {
        {at(ParamIndex::kNumGensLo), static_cast<std::uint16_t>(p.n_gens & 0xFFFF)},
        {at(ParamIndex::kNumGensHi), static_cast<std::uint16_t>(p.n_gens >> 16)},
        {at(ParamIndex::kPopSize), p.pop_size},
        {at(ParamIndex::kCrossoverRate), p.xover_threshold},
        {at(ParamIndex::kMutationRate), p.mut_threshold},
        {at(ParamIndex::kRngSeed), p.seed},
    };
}

/// Static configuration of a core instance (fixed at synthesis time, like
/// generics of the netlist).
struct GaCoreConfig {
    /// Bit i set => fitness slot i is served by the external FEM ports
    /// (fit_value_ext / fit_valid_ext) instead of the internal pair.
    std::uint8_t external_slot_mask = 0xF0;
};

}  // namespace gaip::core
