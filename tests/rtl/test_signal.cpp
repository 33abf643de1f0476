#include <gtest/gtest.h>

#include "rtl/module.hpp"
#include "rtl/signal.hpp"

namespace gaip::rtl {
namespace {

TEST(Wire, DriveChangesValueAndCountsDeltas) {
    Wire<std::uint16_t> w;
    EXPECT_EQ(w.read(), 0u);
    const std::uint64_t before = wire_change_count();
    w.drive(42);
    EXPECT_EQ(w.read(), 42u);
    EXPECT_EQ(wire_change_count(), before + 1);
    w.drive(42);  // no change, no delta
    EXPECT_EQ(wire_change_count(), before + 1);
}

TEST(Reg, TwoPhaseCommit) {
    Reg<std::uint16_t> r("r", 5);
    EXPECT_EQ(r.read(), 5u);
    r.load(9);
    EXPECT_EQ(r.read(), 5u) << "load must not be visible before commit";
    r.commit();
    EXPECT_EQ(r.read(), 9u);
    r.commit();  // idempotent without a pending load
    EXPECT_EQ(r.read(), 9u);
}

TEST(Reg, HardResetRestoresResetValue) {
    Reg<std::uint8_t> r("r", 0xAB);
    r.load(1);
    r.commit();
    r.hard_reset();
    EXPECT_EQ(r.read(), 0xABu);
}

TEST(Reg, WidthMasksCommittedValue) {
    Reg<std::uint8_t> r("thresh", 0, 4);
    r.load(0xFF);
    r.commit();
    EXPECT_EQ(r.read(), 0xFu);
}

TEST(Reg, BitsRoundTripForIntegral) {
    Reg<std::uint16_t> r("r", 0);
    r.set_bits(0xBEEF);
    EXPECT_EQ(r.read(), 0xBEEFu);
    EXPECT_EQ(r.bits(), 0xBEEFu);
}

TEST(Reg, BitsRoundTripForBool) {
    Reg<bool> r("b", false, 1);
    r.set_bits(1);
    EXPECT_TRUE(r.read());
    EXPECT_EQ(r.bits(), 1u);
    r.set_bits(0);
    EXPECT_FALSE(r.read());
}

enum class Color : std::uint8_t { kRed = 0, kGreen = 1, kBlue = 2 };

TEST(Reg, BitsRoundTripForEnum) {
    Reg<Color> r("c", Color::kRed, 2);
    r.load(Color::kBlue);
    r.commit();
    EXPECT_EQ(r.bits(), 2u);
    r.set_bits(1);
    EXPECT_EQ(r.read(), Color::kGreen);
}

TEST(Reg, SetBitsClearsPendingLoad) {
    Reg<std::uint16_t> r("r", 0);
    r.load(77);
    r.set_bits(12);
    r.commit();
    EXPECT_EQ(r.read(), 12u) << "set_bits must cancel an uncommitted load";
}

TEST(Reg, RejectsWidthOver64) {
    EXPECT_THROW((Reg<std::uint64_t>("w", 0, 65)), std::invalid_argument);
}

/// A module whose registers the test loads directly, as a tick() would.
class TwoRegs final : public Module {
public:
    TwoRegs() : Module("two_regs") { attach_all(a, b); }
    Reg<std::uint16_t> a{"a", 3};
    Reg<std::uint16_t> b{"b", 4};
};

TEST(PendingCommits, OnlyLoadedRegistersAreListed) {
    TwoRegs m;
    EXPECT_EQ(m.pending_commits(), 0u);
    m.b.load(8);
    EXPECT_EQ(m.pending_commits(), 1u);
    EXPECT_TRUE(m.commit_registers());
    EXPECT_EQ(m.b.read(), 8u);
    EXPECT_EQ(m.a.read(), 3u);
    EXPECT_EQ(m.pending_commits(), 0u) << "a commit empties the list";
    EXPECT_FALSE(m.commit_registers()) << "nothing loaded, nothing changes";
}

TEST(PendingCommits, TwoLoadsInOneEdgeCommitOnceAndTheLastWins) {
    TwoRegs m;
    m.a.load(10);
    m.a.load(11);
    EXPECT_EQ(m.pending_commits(), 1u) << "a register is listed at most once per edge";
    EXPECT_TRUE(m.commit_registers());
    EXPECT_EQ(m.a.read(), 11u);
}

TEST(PendingCommits, LoadThenSetBitsCommitsNothingAndIsNotListedTwice) {
    TwoRegs m;
    m.a.load(10);
    m.a.set_bits(20);  // drops the load but not the list entry
    m.a.load(30);
    m.a.set_bits(40);
    EXPECT_EQ(m.pending_commits(), 1u);
    EXPECT_FALSE(m.commit_registers()) << "set_bits cancelled every pending load";
    EXPECT_EQ(m.a.read(), 40u);
    m.a.load(50);  // the list entry was released by the commit
    EXPECT_EQ(m.pending_commits(), 1u);
    EXPECT_TRUE(m.commit_registers());
    EXPECT_EQ(m.a.read(), 50u);
}

TEST(PendingCommits, UnchangedValuesReportNoChange) {
    TwoRegs m;
    m.a.load(3);  // both equal their current values
    m.b.load(4);
    EXPECT_EQ(m.pending_commits(), 2u);
    EXPECT_FALSE(m.commit_registers());
    m.a.load(3);
    m.b.load(5);
    EXPECT_TRUE(m.commit_registers()) << "one changed register is enough";
}

TEST(PendingCommits, ResetRegistersDropsPendingLoads) {
    TwoRegs m;
    m.a.load(9);
    m.b.load(9);
    m.reset_registers();
    EXPECT_EQ(m.pending_commits(), 0u);
    EXPECT_FALSE(m.commit_registers());
    EXPECT_EQ(m.a.read(), 3u);
    EXPECT_EQ(m.b.read(), 4u);
    m.a.load(7);
    EXPECT_EQ(m.pending_commits(), 1u) << "a reset register can be listed again";
}

}  // namespace
}  // namespace gaip::rtl
