// Full-design RT-vs-gate equivalence (the paper's Sec. III-A verification
// flow, applied to the WHOLE core): the gate-level GA core dropped into the
// complete system must reproduce the RT-level core bit- and cycle-exactly.
#include <gtest/gtest.h>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"
#include "gates/ga_core_gates.hpp"
#include "system/ga_system.hpp"

namespace gaip::gates {
namespace {

using core::GaParameters;
using core::RunResult;
using fitness::FitnessId;

system::GaSystemConfig config_for(const GaParameters& p, FitnessId fn, bool gate_level) {
    system::GaSystemConfig cfg;
    cfg.params = p;
    cfg.internal_fems = {fn};
    cfg.use_gate_level_core = gate_level;
    return cfg;
}

struct GateEquivCase {
    FitnessId fn;
    GaParameters params;
};

class GateCoreEquivalence : public ::testing::TestWithParam<GateEquivCase> {};

TEST_P(GateCoreEquivalence, FullRunBitAndCycleExactWithRtlCore) {
    const GateEquivCase& c = GetParam();

    system::GaSystem rtl_sys(config_for(c.params, c.fn, false));
    const RunResult rtl = rtl_sys.run();

    system::GaSystem gate_sys(config_for(c.params, c.fn, true));
    const RunResult gate = gate_sys.run();

    EXPECT_EQ(gate.best_candidate, rtl.best_candidate);
    EXPECT_EQ(gate.best_fitness, rtl.best_fitness);
    EXPECT_EQ(gate.evaluations, rtl.evaluations);
    EXPECT_EQ(gate_sys.ga_cycles(), rtl_sys.ga_cycles())
        << "the two controllers must agree on every cycle, not just results";

    ASSERT_EQ(gate.history.size(), rtl.history.size());
    for (std::size_t g = 0; g < gate.history.size(); ++g) {
        SCOPED_TRACE("generation " + std::to_string(g));
        EXPECT_EQ(gate.history[g].best_fit, rtl.history[g].best_fit);
        EXPECT_EQ(gate.history[g].best_ind, rtl.history[g].best_ind);
        EXPECT_EQ(gate.history[g].fit_sum, rtl.history[g].fit_sum);
        EXPECT_EQ(gate.history[g].population, rtl.history[g].population);
    }
}

// A namespace-scope array, so the padding bytes inside each case are zero:
// gtest names each case after the raw bytes of its parameter, and padding in
// a stack temporary would give the case a different name in every process.
const GateEquivCase kSmallRuns[] = {
    {FitnessId::kOneMax,
     {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2, .seed = 0x2961}},
    {FitnessId::kMBf6_2,
     {.pop_size = 16, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1, .seed = 0x061F}},
    {FitnessId::kMShubert2D,
     {.pop_size = 9, .n_gens = 3, .xover_threshold = 14, .mut_threshold = 4,
      .seed = 0xB342}},  // odd population exercises the Mu2 skip
};

INSTANTIATE_TEST_SUITE_P(SmallRuns, GateCoreEquivalence, ::testing::ValuesIn(kSmallRuns));

TEST(GateCore, PresetModeRunsWithoutInitialization) {
    // The fault-tolerance path at gate level: preset pins only, no init.
    system::GaSystemConfig cfg;
    cfg.skip_initialization = true;
    cfg.preset = 1;  // pop 32, 512 gens — too long for a gate sim; override:
    // use user mode with tiny params instead, and separately check preset
    // resolution registers after start.
    cfg.preset = 0;
    cfg.params = {.pop_size = 8, .n_gens = 2, .xover_threshold = 10, .mut_threshold = 1,
                  .seed = 0};  // unprogrammed: reset defaults carry the run
    cfg.internal_fems = {FitnessId::kF2};
    cfg.use_gate_level_core = true;
    cfg.skip_initialization = true;
    system::GaSystem sys(cfg);
    const RunResult r = sys.run();
    // Reset defaults: pop 32, 32 gens (Table III register reset values).
    EXPECT_EQ(r.history.size(), 33u);
    EXPECT_EQ(r.history.back().population.size(), 32u);
    EXPECT_GT(r.best_fitness, 0u);
}

TEST(GateCore, ScanChainRotationRestoresState) {
    GateLevelGaCore* gate_core = nullptr;
    system::GaSystemConfig cfg;
    cfg.params = {.pop_size = 8, .n_gens = 4, .xover_threshold = 10, .mut_threshold = 1,
                  .seed = 0xAAAA};
    cfg.internal_fems = {FitnessId::kOneMax};
    cfg.use_gate_level_core = true;
    system::GaSystem sys(cfg);
    gate_core = const_cast<GateLevelGaCore*>(&sys.gate_core());

    auto& k = sys.kernel();
    k.reset();
    ASSERT_TRUE(k.run_until(
        sys.app_clock(),
        [&] {
            return gate_core->generation() >= 1 &&
                   gate_core->state() == core::GaCore::State::kSelRn;
        },
        10'000'000));

    const GateStats stats = gate_core->gate_stats();
    const unsigned len = stats.registers;
    ASSERT_GT(len, 300u);

    // Loop scanout into scanin for a full rotation, then resume.
    const std::uint16_t best_before = gate_core->best_fitness();
    sys.wires().test.drive(true);
    for (unsigned i = 0; i < len; ++i) {
        sys.wires().scanin.drive(sys.wires().scanout.read());
        k.run_cycles(sys.ga_clock(), 1);
    }
    sys.wires().test.drive(false);
    EXPECT_EQ(gate_core->best_fitness(), best_before) << "rotation must restore the state";

    ASSERT_TRUE(k.run_until(
        sys.app_clock(), [&] { return sys.app_module().done(); }, 100'000'000));
    EXPECT_EQ(gate_core->state(), core::GaCore::State::kDone);
}

TEST(GateCore, NetlistSizeAndExport) {
    const auto g = build_ga_core_netlist();
    const GateStats s = g->nl.stats();
    EXPECT_EQ(s.registers, 405u) << "same flip-flop inventory as the RT-level core";
    EXPECT_GT(s.logic_gates, 5000u) << "a full core flattens to thousands of gates";
    const std::string v = g->nl.to_verilog("ga_core");
    EXPECT_NE(v.find("module ga_core"), std::string::npos);
    EXPECT_NE(v.find("SCAN_REGISTER r404"), std::string::npos)
        << "every register must be stitched into the scan chain";
}

}  // namespace
}  // namespace gaip::gates
