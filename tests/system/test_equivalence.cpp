// The paper's core verification flow: the behavioral model and the
// synthesized RT-level netlist must agree. Our two models share the RNG
// consumption order, so agreement is bit-exact: same best individual, same
// best fitness, same per-generation statistics, same final population.
#include <gtest/gtest.h>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"
#include "system/ga_system.hpp"

namespace gaip {
namespace {

using core::GaParameters;
using core::RunResult;
using fitness::FitnessId;

struct EquivCase {
    FitnessId fn;
    GaParameters params;
    prng::RngKind rng = prng::RngKind::kCellularAutomaton;
};

class EquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EquivalenceTest, RtlMatchesBehavioralBitExactly) {
    const EquivCase& c = GetParam();

    system::GaSystemConfig cfg;
    cfg.params = c.params;
    cfg.internal_fems = {c.fn};
    cfg.fitfunc_select = 0;
    cfg.rng_kind = c.rng;
    const RunResult hw = system::run_ga_system(cfg);

    const RunResult sw = core::run_behavioral_ga(
        c.params, [&](std::uint16_t x) { return fitness::fitness_u16(c.fn, x); }, c.rng);

    EXPECT_EQ(hw.best_candidate, sw.best_candidate);
    EXPECT_EQ(hw.best_fitness, sw.best_fitness);
    EXPECT_EQ(hw.evaluations, sw.evaluations);

    ASSERT_EQ(hw.history.size(), sw.history.size());
    for (std::size_t g = 0; g < hw.history.size(); ++g) {
        SCOPED_TRACE("generation " + std::to_string(g));
        EXPECT_EQ(hw.history[g].gen, sw.history[g].gen);
        EXPECT_EQ(hw.history[g].best_fit, sw.history[g].best_fit);
        EXPECT_EQ(hw.history[g].best_ind, sw.history[g].best_ind);
        EXPECT_EQ(hw.history[g].fit_sum, sw.history[g].fit_sum);
        ASSERT_EQ(hw.history[g].population.size(), sw.history[g].population.size());
        for (std::size_t i = 0; i < hw.history[g].population.size(); ++i) {
            EXPECT_EQ(hw.history[g].population[i], sw.history[g].population[i])
                << "member " << i;
        }
    }
}

// A namespace-scope array, so the padding bytes inside each case are zero:
// gtest names each case after the raw bytes of its parameter, and padding in
// a stack temporary would give the case a different name in every process.
const EquivCase kSweep[] = {
    {FitnessId::kOneMax,
     {.pop_size = 8, .n_gens = 4, .xover_threshold = 10, .mut_threshold = 2,
      .seed = 1}},
    {FitnessId::kOneMax,
     {.pop_size = 16, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
      .seed = 0x2961}},
    {FitnessId::kMBf6_2,
     {.pop_size = 32, .n_gens = 8, .xover_threshold = 10, .mut_threshold = 1,
      .seed = 0x061F}},
    {FitnessId::kF2,
     {.pop_size = 32, .n_gens = 6, .xover_threshold = 10, .mut_threshold = 1,
      .seed = 45890}},
    {FitnessId::kMShubert2D,
     {.pop_size = 16, .n_gens = 6, .xover_threshold = 14, .mut_threshold = 3,
      .seed = 0xAAAA}},
    {FitnessId::kRoyalRoad,
     {.pop_size = 13, .n_gens = 5, .xover_threshold = 8, .mut_threshold = 4,
      .seed = 1567}},  // odd population exercises the Mu2 skip
    // More odd populations: both models must drop the surplus second
    // offspring without consuming its mutation draw, or the RNG streams
    // shear apart and every later generation diverges.
    {FitnessId::kOneMax,
     {.pop_size = 3, .n_gens = 6, .xover_threshold = 10, .mut_threshold = 2,
      .seed = 0x3A3A}},
    {FitnessId::kMBf6_2,
     {.pop_size = 5, .n_gens = 6, .xover_threshold = 12, .mut_threshold = 1,
      .seed = 0x55AA}},
    {FitnessId::kBf6,
     {.pop_size = 127, .n_gens = 2, .xover_threshold = 10, .mut_threshold = 1,
      .seed = 0x7F01}},
    {FitnessId::kBf6,
     {.pop_size = 64, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 2,
      .seed = 10593}},
    {FitnessId::kMBf6_2,
     {.pop_size = 16, .n_gens = 6, .xover_threshold = 10, .mut_threshold = 1,
      .seed = 0xB342},
     prng::RngKind::kLfsr},
    {FitnessId::kF3,
     {.pop_size = 16, .n_gens = 6, .xover_threshold = 10, .mut_threshold = 2,
      .seed = 0xA0A0},
     prng::RngKind::kXorShift},
};

INSTANTIATE_TEST_SUITE_P(SeedAndParameterSweep, EquivalenceTest, ::testing::ValuesIn(kSweep));

}  // namespace
}  // namespace gaip
