#include <gtest/gtest.h>

#include "util/bits.hpp"

namespace gaip::util {
namespace {

TEST(LowMask, Boundaries) {
    EXPECT_EQ(low_mask(0), 0u);
    EXPECT_EQ(low_mask(1), 1u);
    EXPECT_EQ(low_mask(16), 0xFFFFu);
    EXPECT_EQ(low_mask(63), 0x7FFFFFFFFFFFFFFFull);
    EXPECT_EQ(low_mask(64), ~std::uint64_t{0});
    EXPECT_EQ(low_mask(99), ~std::uint64_t{0});
}

TEST(BitSlice, VerilogStyleInclusiveBounds) {
    EXPECT_EQ(bit_slice(0xABCD, 15, 12), 0xAu);
    EXPECT_EQ(bit_slice(0xABCD, 11, 8), 0xBu);
    EXPECT_EQ(bit_slice(0xABCD, 7, 0), 0xCDu);
    EXPECT_EQ(bit_slice(0xABCD, 0, 0), 1u);
}

TEST(BitOps, TestAssignRoundTrip) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 64; i += 7) {
        v = bit_assign(v, i, true);
        EXPECT_TRUE(bit_test(v, i));
        v = bit_assign(v, i, false);
        EXPECT_FALSE(bit_test(v, i));
    }
}

TEST(BitConcat, MatchesShiftOr) {
    EXPECT_EQ(bit_concat(0xAB, 0xCD, 8), 0xABCDu);
    EXPECT_EQ(bit_concat(0x1234, 0x5678, 16), 0x12345678u);
    // low field is masked to its width
    EXPECT_EQ(bit_concat(0x1, 0xFFFF, 8), 0x1FFu);
}

class CrossoverMaskTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrossoverMaskTest, OnesBelowCutZerosAbove) {
    const unsigned cut = GetParam();
    const std::uint16_t m = crossover_mask(cut);
    for (unsigned b = 0; b < 16; ++b) {
        EXPECT_EQ(bit_test(m, b), b < cut) << "cut=" << cut << " bit=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCutPoints, CrossoverMaskTest, ::testing::Range(0u, 17u));

TEST(SatU16, Clamps) {
    EXPECT_EQ(sat_u16(-5), 0u);
    EXPECT_EQ(sat_u16(0), 0u);
    EXPECT_EQ(sat_u16(65535), 65535u);
    EXPECT_EQ(sat_u16(65536), 65535u);
    EXPECT_EQ(sat_u16(1'000'000'000), 65535u);
}

TEST(SatU64, AddAndMulClampAtMax) {
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    EXPECT_EQ(sat_add_u64(2, 3), 5u);
    EXPECT_EQ(sat_add_u64(kMax - 1, 1), kMax);
    EXPECT_EQ(sat_add_u64(kMax, 1), kMax);
    EXPECT_EQ(sat_add_u64(kMax, kMax), kMax);
    EXPECT_EQ(sat_mul_u64(6, 7), 42u);
    EXPECT_EQ(sat_mul_u64(kMax, 0), 0u);
    EXPECT_EQ(sat_mul_u64(kMax, 1), kMax);
    EXPECT_EQ(sat_mul_u64(std::uint64_t{1} << 32, std::uint64_t{1} << 32), kMax);
    // A saturated intermediate stays saturated through further math — the
    // cycle-bound formula relies on this.
    EXPECT_EQ(sat_add_u64(sat_mul_u64(kMax, 2), 100'000), kMax);
}

TEST(BitWidthOf, MinimalWidths) {
    EXPECT_EQ(bit_width_of(0), 1u);
    EXPECT_EQ(bit_width_of(1), 1u);
    EXPECT_EQ(bit_width_of(2), 2u);
    EXPECT_EQ(bit_width_of(255), 8u);
    EXPECT_EQ(bit_width_of(256), 9u);
}

}  // namespace
}  // namespace gaip::util
