// Golden-value regression suite for the N-core island system: pins the
// speedup-vs-cores makespan table (fixed 64-member total population split
// over N gate-lane islands) and the quality-vs-topology best-fitness table
// (isolated / ring / star over the paper seed schedule) of the verified
// build. The island stack is bit-exact across substrates, so these numbers
// are deterministic; any change to the migration spec, barrier placement,
// RNG consumption, or lane stall accounting trips a row immediately.
//
// Regenerate deliberately (after an intentional semantic change) with:
//   ./build/bench/bench_island_scaling   (bench_out/BENCH_islands.json)
#include <gtest/gtest.h>

#include <cstdint>

#include "bench/common.hpp"
#include "gates/compiled.hpp"
#include "island/island.hpp"
#include "supervisor/supervisor.hpp"

namespace gaip::island {
namespace {

// ---------------------------------------------------------------- speedup

struct ScalingGolden {
    unsigned islands;
    std::uint64_t makespan;  ///< wall GA cycles, barrier stalls included
    std::uint16_t best_fitness;
    std::uint16_t best_candidate;
};

// Fixed total population 64 split over N islands (pop 64/N each), 12
// generations, seed 0x2961, ring, interval 4, count 2, gate-lane
// interpreter substrate. Cycle counts are exact: the lane block models
// the per-generation handshake cost and the barrier stalls of a real
// N-core fabric.
const ScalingGolden kScaling[] = {
    {1, 56038, 8143, 65162},
    {2, 16098, 7668, 61200},
    {4, 5166, 8009, 64449},
    {8, 1796, 7845, 63008},
};

IslandResult run_scaling(unsigned n) {
    IslandConfig cfg;
    cfg.base.pop_size = static_cast<std::uint8_t>(64 / n);
    cfg.base.n_gens = 12;
    cfg.base.seed = 0x2961;
    cfg.islands = n;
    cfg.migration.interval = 4;
    cfg.migration.count = 2;
    cfg.backend = core::Substrate::kGates;
    cfg.gate_backend = gates::Backend::kInterp;
    return run_island_system(cfg);
}

class IslandScalingGolds : public ::testing::TestWithParam<ScalingGolden> {};

TEST_P(IslandScalingGolds, MakespanAndBestPinned) {
    const ScalingGolden& g = GetParam();
    const IslandResult r = run_scaling(g.islands);
    EXPECT_EQ(r.makespan_cycles, g.makespan);
    EXPECT_EQ(r.best_fitness, g.best_fitness);
    EXPECT_EQ(r.best_candidate, g.best_candidate);
}

INSTANTIATE_TEST_SUITE_P(Table, IslandScalingGolds, ::testing::ValuesIn(kScaling),
                         [](const ::testing::TestParamInfo<ScalingGolden>& info) {
                             return "N" + std::to_string(info.param.islands);
                         });

// The headline scaling property behind the pinned numbers: for a fixed
// total population, the N-core makespan shrinks strictly with every
// doubling of the island count (the per-generation handshake cost is
// superlinear in subpopulation size, so splitting wins even after paying
// the barrier stalls).
TEST(IslandScaling, SpeedupIsMonotoneInCores) {
    for (std::size_t i = 1; i < std::size(kScaling); ++i)
        EXPECT_LT(kScaling[i].makespan, kScaling[i - 1].makespan)
            << "N=" << kScaling[i].islands << " vs N=" << kScaling[i - 1].islands;
}

// ---------------------------------------------------- quality vs topology

struct TopologyGolden {
    std::uint16_t seed;
    std::uint16_t isolated_fit, isolated_ind;
    std::uint16_t ring_fit, ring_ind;
    std::uint16_t star_fit, star_ind;
};

// 4 islands, pop 16 each, 24 generations, interval 8, count 2, behavioral
// substrate (bit-identical to RTL and gate-lane by the differential
// harness), over the first three paper seeds.
const TopologyGolden kTopology[] = {
    {0x2961, 8019, 64448, 8019, 64448, 8190, 65520},
    {0x061F, 8174, 65515, 8190, 65520, 8190, 65520},
    {0xB342, 8085, 64795, 8098, 64798, 7902, 64782},
};

IslandResult run_topology(std::uint16_t seed, std::uint16_t interval, Topology topo) {
    IslandConfig cfg;
    cfg.base.pop_size = 16;
    cfg.base.n_gens = 24;
    cfg.base.seed = seed;
    cfg.islands = 4;
    cfg.migration.interval = interval;
    cfg.migration.count = 2;
    cfg.topology = topo;
    cfg.backend = core::Substrate::kBehavioral;
    return run_island_system(cfg);
}

class IslandTopologyGolds : public ::testing::TestWithParam<TopologyGolden> {};

TEST_P(IslandTopologyGolds, BestPerTopologyPinned) {
    const TopologyGolden& g = GetParam();
    const IslandResult iso = run_topology(g.seed, 0, Topology::kRing);
    EXPECT_EQ(iso.best_fitness, g.isolated_fit);
    EXPECT_EQ(iso.best_candidate, g.isolated_ind);
    const IslandResult ring = run_topology(g.seed, 8, Topology::kRing);
    EXPECT_EQ(ring.best_fitness, g.ring_fit);
    EXPECT_EQ(ring.best_candidate, g.ring_ind);
    const IslandResult star = run_topology(g.seed, 8, Topology::kStar);
    EXPECT_EQ(star.best_fitness, g.star_fit);
    EXPECT_EQ(star.best_candidate, g.star_ind);
}

INSTANTIATE_TEST_SUITE_P(Table, IslandTopologyGolds, ::testing::ValuesIn(kTopology),
                         [](const ::testing::TestParamInfo<TopologyGolden>& info) {
                             char buf[16];
                             std::snprintf(buf, sizeof buf, "Seed0x%04X", info.param.seed);
                             return std::string(buf);
                         });

// Aggregate property behind the table: over the seed schedule, migration
// never hurts on average — each connected topology's summed best fitness
// is at least the isolated ensemble's (individual seeds may go either
// way; the stochastic benefit shows in the aggregate).
TEST(IslandTopology, MigrationHelpsOnAverage) {
    unsigned iso = 0, ring = 0, star = 0;
    for (const TopologyGolden& g : kTopology) {
        iso += g.isolated_fit;
        ring += g.ring_fit;
        star += g.star_fit;
    }
    EXPECT_GE(ring, iso);
    EXPECT_GE(star, iso);
}

}  // namespace
}  // namespace gaip::island
