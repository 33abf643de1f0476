// The resumable GaSystem (start / run_to / finish) on both cores, RT-level
// and gate-level: stepping it one generation at a time is the same
// simulation as run(), byte for byte; its population at every boundary is
// the behavioral engine's; a poke at a boundary steers both models
// identically (stale fit_sum, untouched best registers); and run_to never
// clocks past its bound or past GA_done.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/behavioral.hpp"
#include "system/ga_system.hpp"

namespace gaip::system {
namespace {

using core::GaParameters;
using core::Member;
using core::RunResult;
using fitness::FitnessId;

constexpr FitnessId kFn = FitnessId::kMBf6_2;

GaParameters params() {
    return {.pop_size = 10, .n_gens = 6, .xover_threshold = 12, .mut_threshold = 3,
            .seed = 0x061F};
}

GaSystemConfig config(bool gate_level) {
    GaSystemConfig cfg;
    cfg.params = params();
    cfg.internal_fems = {kFn};
    cfg.use_gate_level_core = gate_level;
    return cfg;
}

core::BehavioralEngine behavioral() {
    return core::BehavioralEngine(params(), core::rom_fitness(kFn));
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_same_result(const RunResult& got, const RunResult& want) {
    EXPECT_EQ(got.best_fitness, want.best_fitness);
    EXPECT_EQ(got.best_candidate, want.best_candidate);
    EXPECT_EQ(got.evaluations, want.evaluations);
    ASSERT_EQ(got.history.size(), want.history.size());
    for (std::size_t g = 0; g < want.history.size(); ++g) {
        SCOPED_TRACE("generation " + std::to_string(g));
        EXPECT_EQ(got.history[g].gen, want.history[g].gen);
        EXPECT_EQ(got.history[g].best_fit, want.history[g].best_fit);
        EXPECT_EQ(got.history[g].best_ind, want.history[g].best_ind);
        EXPECT_EQ(got.history[g].fit_sum, want.history[g].fit_sum);
        EXPECT_EQ(got.history[g].population, want.history[g].population);
    }
}

class ResumableGaSystem : public ::testing::TestWithParam<bool> {
protected:
    bool gate_level() const { return GetParam(); }
    std::string path(const char* what) const {
        return std::string("t_resumable_") + (gate_level() ? "gates_" : "rtl_") + what;
    }
};

TEST_P(ResumableGaSystem, SteppedRunIsTheWholeRunByteForByte) {
    RunResult whole;
    std::uint64_t whole_cycles = 0;
    {
        GaSystemConfig cfg = config(gate_level());
        cfg.trace_path = path("whole.jsonl");
        cfg.vcd_path = path("whole.vcd");
        GaSystem sys(cfg);
        whole = sys.run();
        whole_cycles = sys.ga_cycles();
    }
    RunResult stepped;
    std::uint64_t stepped_cycles = 0;
    {
        GaSystemConfig cfg = config(gate_level());
        cfg.trace_path = path("stepped.jsonl");
        cfg.vcd_path = path("stepped.vcd");
        GaSystem sys(cfg);
        ASSERT_TRUE(sys.start());
        EXPECT_EQ(sys.generation(), 0u);
        for (std::uint32_t g = 0; g <= params().n_gens; ++g) {
            EXPECT_FALSE(sys.done());
            ASSERT_TRUE(sys.run_to(g, sys.cycle_bound()).ok) << "generation " << g;
            EXPECT_EQ(sys.generation(), g);
        }
        EXPECT_TRUE(sys.done());
        stepped = sys.finish();
        stepped_cycles = sys.ga_cycles();
    }
    expect_same_result(stepped, whole);
    EXPECT_EQ(stepped_cycles, whole_cycles);
    const std::string trace = slurp(path("whole.jsonl"));
    EXPECT_FALSE(trace.empty());
    EXPECT_EQ(slurp(path("stepped.jsonl")), trace);
    const std::string vcd = slurp(path("whole.vcd"));
    EXPECT_FALSE(vcd.empty());
    EXPECT_EQ(slurp(path("stepped.vcd")), vcd);
}

TEST_P(ResumableGaSystem, PopulationAtEveryBoundaryIsTheBehavioralOne) {
    GaSystem sys(config(gate_level()));
    core::BehavioralEngine eng = behavioral();
    ASSERT_TRUE(sys.start());
    for (std::uint32_t g = 0; g <= params().n_gens; ++g) {
        ASSERT_TRUE(sys.run_to(g, sys.cycle_bound()).ok);
        eng.run_to(g);
        EXPECT_EQ(sys.population(), eng.population()) << "generation " << g;
        EXPECT_EQ(sys.best_fitness(), eng.best_fitness()) << "generation " << g;
    }
}

TEST_P(ResumableGaSystem, PokeAtABoundaryMatchesTheBehavioralPoke) {
    // A member whose fitness field is not its FEM value, so the poked
    // slot's selection weight and the stale fit_sum must agree too.
    const Member migrant{0xBEEF, 0xFFF0};
    const std::uint32_t at = 2;

    GaSystem sys(config(gate_level()));
    ASSERT_TRUE(sys.start());
    ASSERT_TRUE(sys.run_to(at, sys.cycle_bound()).ok);
    sys.poke_member(4, migrant);
    EXPECT_EQ(sys.population()[4], migrant);
    ASSERT_TRUE(sys.run_to(core::kEnd, sys.cycle_bound()).ok);
    const RunResult got = sys.finish();

    core::BehavioralEngine eng = behavioral();
    eng.run_to(at);
    eng.poke_member(4, migrant);
    eng.run_to(params().n_gens);
    const RunResult want = eng.result();

    expect_same_result(got, want);
    core::BehavioralEngine unpoked = behavioral();
    unpoked.run_to(params().n_gens);
    EXPECT_NE(got.history[at + 1].population, unpoked.history()[at + 1].population)
        << "the poke must have changed the run";
}

// run_to() never clocks past its bound, not even the capture edge of a
// boundary whose pulse lands on the bound's last cycle, and a generation
// target past GA_done is missed at once instead of burning the bound.
TEST_P(ResumableGaSystem, RunToStopsAtItsBoundAndAtDone) {
    std::uint64_t to_gen1 = 0;
    {
        GaSystem sys(config(gate_level()));
        ASSERT_TRUE(sys.start());
        to_gen1 = sys.run_to(1, sys.cycle_bound()).cycles;
    }
    GaSystem sys(config(gate_level()));
    ASSERT_TRUE(sys.start());
    const core::Advance cut = sys.run_to(1, to_gen1 - 1);  // the pulse edge is the last
    EXPECT_FALSE(cut.ok);
    EXPECT_EQ(cut.cycles, to_gen1 - 1);

    ASSERT_TRUE(sys.run_to(core::kEnd, sys.cycle_bound()).ok);
    const core::Advance past = sys.run_to(params().n_gens + 1, sys.cycle_bound());
    EXPECT_FALSE(past.ok);
    EXPECT_EQ(past.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Cores, ResumableGaSystem, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                             return p.param ? std::string("GateLevel") : std::string("RtLevel");
                         });

}  // namespace
}  // namespace gaip::system
