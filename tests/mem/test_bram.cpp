#include <gtest/gtest.h>

#include "mem/bram.hpp"
#include "mem/ga_memory.hpp"
#include "mem/rom.hpp"
#include "rtl/kernel.hpp"

namespace gaip::mem {
namespace {

struct RamBench {
    rtl::Kernel kernel;
    rtl::Clock& clk = kernel.add_clock("clk", 50'000'000);
    rtl::Wire<std::uint8_t> addr;
    rtl::Wire<std::uint32_t> din;
    rtl::Wire<bool> wr;
    rtl::Wire<std::uint32_t> dout;
    GaMemory ram{GaMemoryPorts{addr, din, wr, dout}};

    RamBench() {
        kernel.bind(ram, clk);
        kernel.reset();
    }
    void cycle(unsigned n = 1) { kernel.run_cycles(clk, n); }
};

TEST(SpBlockRam, SynchronousReadHasOneCycleLatency) {
    RamBench b;
    b.ram.poke(7, 0xCAFEBABE);
    b.addr.drive(7);
    b.wr.drive(false);
    // Before any clock edge, dout still shows the reset value.
    EXPECT_EQ(b.dout.read(), 0u);
    b.cycle();
    EXPECT_EQ(b.dout.read(), 0xCAFEBABEu);
}

TEST(SpBlockRam, WriteThenReadBack) {
    RamBench b;
    b.addr.drive(33);
    b.din.drive(0x12345678);
    b.wr.drive(true);
    b.cycle();
    b.wr.drive(false);
    b.cycle();
    EXPECT_EQ(b.dout.read(), 0x12345678u);
    EXPECT_EQ(b.ram.peek(33), 0x12345678u);
}

TEST(SpBlockRam, WriteFirstBehaviour) {
    RamBench b;
    b.ram.poke(5, 0xAAAAAAAA);
    b.addr.drive(5);
    b.din.drive(0x55555555);
    b.wr.drive(true);
    b.cycle();
    // Write-first: the write cycle's read port already shows the new data.
    EXPECT_EQ(b.dout.read(), 0x55555555u);
}

TEST(SpBlockRam, ResetClearsContents) {
    RamBench b;
    b.ram.poke(9, 123);
    b.kernel.reset();
    EXPECT_EQ(b.ram.peek(9), 0u);
}

TEST(SpBlockRam, DepthAndBitsReported) {
    RamBench b;
    EXPECT_EQ(b.ram.depth(), kGaMemoryDepth);
    EXPECT_EQ(b.ram.storage_bits(), kGaMemoryDepth * 32u);
}

TEST(GaMemoryLayout, PackUnpackRoundTrip) {
    const std::uint32_t w = pack_member(0xBEEF, 0x1234);
    EXPECT_EQ(member_candidate(w), 0xBEEFu);
    EXPECT_EQ(member_fitness(w), 0x1234u);
}

TEST(GaMemoryLayout, BankAddressUsesMsb) {
    EXPECT_EQ(bank_address(false, 0), 0x00u);
    EXPECT_EQ(bank_address(false, 127), 0x7Fu);
    EXPECT_EQ(bank_address(true, 0), 0x80u);
    EXPECT_EQ(bank_address(true, 127), 0xFFu);
    // Index is clamped into the bank (7 bits).
    EXPECT_EQ(bank_address(false, 0xFF), 0x7Fu);
}

TEST(GaMemory, BackdoorAccessors) {
    RamBench b;
    b.ram.poke(bank_address(true, 3), pack_member(0xABCD, 42));
    EXPECT_EQ(b.ram.candidate_at(true, 3), 0xABCDu);
    EXPECT_EQ(b.ram.fitness_at(true, 3), 42u);
}

TEST(BlockRom, ReadAndBits) {
    BlockRom rom({10, 20, 30});
    EXPECT_EQ(rom.depth(), 3u);
    EXPECT_EQ(rom.read(1), 20u);
    EXPECT_EQ(rom.storage_bits(), 48u);
    EXPECT_THROW(rom.read(3), std::out_of_range);
}

}  // namespace
}  // namespace gaip::mem
