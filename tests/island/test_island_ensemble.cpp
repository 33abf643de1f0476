// Ensemble-level contract of island::IslandSystem in the two multi-engine
// configurations of the paper's parallel direction: seed-parallel engines
// (migration off, suite ParallelGaSystem) and ring-migrating islands
// (suite IslandGa). The best-of reduction reports the fittest island, a
// system object can be run again with identical results, and every island
// spends exactly the elitist evaluation budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fitness/functions.hpp"
#include "island/island.hpp"
#include "supervisor/supervisor.hpp"

namespace gaip::island {
namespace {

using fitness::FitnessId;
using core::Substrate;

const core::GaParameters kSmall{.pop_size = 16, .n_gens = 8, .xover_threshold = 10,
                                .mut_threshold = 1, .seed = 0};

/// Seed-parallel engines: RT-level islands with the interconnect off.
IslandConfig seed_parallel(FitnessId fn, std::vector<std::uint16_t> seeds) {
    IslandConfig cfg;
    cfg.fn = fn;
    cfg.base = kSmall;
    cfg.islands = static_cast<unsigned>(seeds.size());
    cfg.seeds = std::move(seeds);
    cfg.migration.interval = 0;
    cfg.backend = Substrate::kRtl;
    return cfg;
}

TEST(ParallelGaSystem, CombinerPicksTheFittestEngine) {
    const IslandConfig cfg =
        seed_parallel(FitnessId::kMShubert2D, {0x2961, 0x061F, 0xB342, 0xAAAA});
    const IslandResult r = IslandSystem(cfg).run();
    ASSERT_EQ(r.islands.size(), 4u);

    std::uint16_t expect_best = 0;
    for (const IslandStats& s : r.islands) expect_best = std::max(expect_best, s.best_fitness);
    EXPECT_EQ(r.best_fitness, expect_best);
    ASSERT_LT(r.best_island, r.islands.size());
    EXPECT_EQ(r.islands[r.best_island].best_fitness, expect_best);
    EXPECT_EQ(r.best_candidate, r.islands[r.best_island].best_candidate);
    EXPECT_EQ(r.best_fitness, fitness::fitness_u16(FitnessId::kMShubert2D, r.best_candidate));
}

TEST(ParallelGaSystem, SeedDiversityBeatsOrEqualsAnySingleEngine) {
    IslandConfig cfg = seed_parallel(FitnessId::kBf6, {0x2961, 0x061F, 0xB342, 0xAAAA});
    cfg.base.pop_size = 32;
    cfg.base.n_gens = 16;
    const IslandResult r = IslandSystem(cfg).run();
    ASSERT_EQ(r.islands.size(), 4u);
    for (const IslandStats& s : r.islands) EXPECT_GE(r.best_fitness, s.best_fitness);
    EXPECT_GT(r.makespan_cycles, 0u);
}

TEST(ParallelGaSystem, RepeatedRunsAreDeterministic) {
    IslandSystem sys(seed_parallel(FitnessId::kOneMax, {0x2961, 0x061F}));
    const IslandResult a = sys.run();
    const IslandResult b = sys.run();
    EXPECT_EQ(a.best_candidate, b.best_candidate);
    EXPECT_EQ(a.best_fitness, b.best_fitness);
    EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
    EXPECT_EQ(a, b);
}

TEST(IslandGa, MatchesBudgetAndReportsPerIslandBest) {
    IslandConfig cfg;
    cfg.fn = FitnessId::kMBf6_2;
    cfg.base = {.pop_size = 16, .n_gens = 16, .xover_threshold = 10, .mut_threshold = 2,
                .seed = 0x2961};
    cfg.islands = 4;
    cfg.migration.interval = 4;
    cfg.migration.count = 1;
    const IslandResult r = IslandSystem(cfg).run();
    EXPECT_FALSE(r.migrations.empty());
    ASSERT_EQ(r.islands.size(), 4u);

    std::uint64_t evaluations = 0;
    std::uint16_t mx = 0;
    for (const IslandStats& s : r.islands) {
        evaluations += s.evaluations;
        mx = std::max(mx, s.best_fitness);
    }
    EXPECT_EQ(evaluations, 4u * (16u + 16u * 15u));
    EXPECT_EQ(r.best_fitness, mx);
}

}  // namespace
}  // namespace gaip::island
