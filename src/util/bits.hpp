// Bit-manipulation helpers shared across the RTL model, the PRNG, and the
// genetic operators. Everything here mirrors an operation that is trivially
// realizable in FPGA fabric (masks, slices, concatenation), so the software
// model and the modeled hardware agree bit-for-bit.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>

namespace gaip::util {

/// Mask with the low `n` bits set. `n == 0` gives 0; `n >= 64` gives all-ones.
constexpr std::uint64_t low_mask(unsigned n) noexcept {
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Extract bits [hi:lo] of `v` (Verilog-style slice, inclusive bounds).
constexpr std::uint64_t bit_slice(std::uint64_t v, unsigned hi, unsigned lo) noexcept {
    return (v >> lo) & low_mask(hi - lo + 1);
}

/// Test bit `i` of `v`.
constexpr bool bit_test(std::uint64_t v, unsigned i) noexcept {
    return ((v >> i) & 1u) != 0;
}

/// Set (b==true) or clear (b==false) bit `i` of `v`.
constexpr std::uint64_t bit_assign(std::uint64_t v, unsigned i, bool b) noexcept {
    const std::uint64_t m = std::uint64_t{1} << i;
    return b ? (v | m) : (v & ~m);
}

/// Concatenate: `hi` in the upper `lo_width` ... i.e. {hi, lo} with `lo`
/// occupying the low `lo_width` bits (Verilog `{hi, lo}`).
constexpr std::uint64_t bit_concat(std::uint64_t hi, std::uint64_t lo, unsigned lo_width) noexcept {
    return (hi << lo_width) | (lo & low_mask(lo_width));
}

/// Single-point-crossover mask: ones in positions [0, cut), zeros above.
/// This is exactly the mask generator described in Sec. III-B.3 of the paper.
constexpr std::uint16_t crossover_mask(unsigned cut) noexcept {
    return static_cast<std::uint16_t>(low_mask(cut));
}

/// Saturating conversion of a wide non-negative value to u16.
constexpr std::uint16_t sat_u16(std::int64_t v) noexcept {
    if (v < 0) return 0;
    if (v > std::numeric_limits<std::uint16_t>::max()) return 0xFFFFu;
    return static_cast<std::uint16_t>(v);
}

/// Saturating u64 addition: clamps to UINT64_MAX instead of wrapping.
/// Cycle-bound computations (bench/gate_batch_runner.hpp) use these so
/// adversarial pop/gens configs produce "effectively unbounded" instead of
/// a tiny wrapped bound that would flag healthy runs as hangs.
constexpr std::uint64_t sat_add_u64(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t r = 0;
    return __builtin_add_overflow(a, b, &r) ? ~std::uint64_t{0} : r;
}

/// Saturating u64 multiplication: clamps to UINT64_MAX instead of wrapping.
constexpr std::uint64_t sat_mul_u64(std::uint64_t a, std::uint64_t b) noexcept {
    std::uint64_t r = 0;
    return __builtin_mul_overflow(a, b, &r) ? ~std::uint64_t{0} : r;
}

/// In-place 64x64 bit-matrix transpose (Hacker's Delight fig. 7-3,
/// generalized to 64 rows): afterwards bit c of a[r] holds what bit r of
/// a[c] held. The SWAR lane engines use it to convert between "one word
/// per signal bit, one lane per word bit" (the compiled-netlist layout)
/// and "one word per lane" (what per-lane peripheral models want) in
/// ~6*64 word ops instead of width*64 single-bit probes.
inline void transpose64(std::uint64_t a[64]) noexcept {
    std::uint64_t m = 0x00000000FFFFFFFFull;
    for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
    }
}

/// Width (in bits) needed to represent `v`.
constexpr unsigned bit_width_of(std::uint64_t v) noexcept {
    unsigned w = 0;
    while (v != 0) { ++w; v >>= 1; }
    return w == 0 ? 1 : w;
}

}  // namespace gaip::util
