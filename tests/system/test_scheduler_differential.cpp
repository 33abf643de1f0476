// Differential test of the two kernel schedulers: the event-driven schedule
// and the evaluate-everything sweep (GAIP_KERNEL_FULL_SETTLE) must produce
// identical VCD-visible state trajectories and identical run results on the
// Table V style workloads. Any divergence means a module's sensitivity list
// is missing a wire its eval() reads.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <string>

#include "fitness/functions.hpp"
#include "system/ga_system.hpp"

namespace gaip::system {
namespace {

using fitness::FitnessId;

std::string slurp(const std::string& path) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

struct Workload {
    const char* name;
    FitnessId fn;
    core::GaParameters params;
};

class SchedulerDifferentialTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SchedulerDifferentialTest, IdenticalVcdTrajectoryAndResults) {
    const Workload& wl = GetParam();

    auto run_mode = [&](bool full_settle, const std::string& vcd_path) {
        GaSystemConfig cfg;
        cfg.params = wl.params;
        cfg.internal_fems = {wl.fn};
        cfg.keep_populations = true;
        cfg.vcd_path = vcd_path;
        GaSystem sys(cfg);
        sys.kernel().set_full_settle(full_settle);
        return sys.run();
    };

    const std::string event_vcd =
        ::testing::TempDir() + "/sched_event_" + wl.name + ".vcd";
    const std::string sweep_vcd =
        ::testing::TempDir() + "/sched_sweep_" + wl.name + ".vcd";
    const core::RunResult event_r = run_mode(false, event_vcd);
    const core::RunResult sweep_r = run_mode(true, sweep_vcd);

    EXPECT_EQ(event_r.best_candidate, sweep_r.best_candidate);
    EXPECT_EQ(event_r.best_fitness, sweep_r.best_fitness);
    EXPECT_EQ(event_r.evaluations, sweep_r.evaluations);
    ASSERT_EQ(event_r.history.size(), sweep_r.history.size());
    for (std::size_t g = 0; g < event_r.history.size(); ++g) {
        SCOPED_TRACE("generation " + std::to_string(g));
        EXPECT_EQ(event_r.history[g].best_fit, sweep_r.history[g].best_fit);
        EXPECT_EQ(event_r.history[g].best_ind, sweep_r.history[g].best_ind);
        EXPECT_EQ(event_r.history[g].fit_sum, sweep_r.history[g].fit_sum);
        EXPECT_EQ(event_r.history[g].population, sweep_r.history[g].population);
    }

    // The VCD dump samples every traced register at every time point, so
    // byte equality is cycle-by-cycle equality of the visible state.
    const std::string event_dump = slurp(event_vcd);
    const std::string sweep_dump = slurp(sweep_vcd);
    EXPECT_FALSE(event_dump.empty());
    EXPECT_EQ(event_dump, sweep_dump)
        << "schedulers diverged somewhere in the cycle-by-cycle trajectory";

    std::filesystem::remove(event_vcd);
    std::filesystem::remove(sweep_vcd);
}

INSTANTIATE_TEST_SUITE_P(
    Table5Workloads, SchedulerDifferentialTest,
    ::testing::Values(
        Workload{"onemax", FitnessId::kOneMax,
                 {.pop_size = 16, .n_gens = 8, .xover_threshold = 10, .mut_threshold = 1,
                  .seed = 0x2961}},
        Workload{"mbf6_2", FitnessId::kMBf6_2,
                 {.pop_size = 32, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 2,
                  .seed = 0x061F}},
        Workload{"shubert_odd_pop", FitnessId::kMShubert2D,
                 {.pop_size = 13, .n_gens = 5, .xover_threshold = 8, .mut_threshold = 4,
                  .seed = 1567}}),
    [](const ::testing::TestParamInfo<Workload>& info) { return std::string(info.param.name); });

// Machine-independent cost gate of the RT-level kernel on the
// BM_RtlSystemRun configuration: module ticks and register commits are
// deterministic counts, identical under both schedulers. Only loaded
// registers are committed, a handful per GA edge; committing every attached
// register of every ticked module cost 73 per GA edge.
TEST(KernelWorkCounters, PinnedOnTheRtlSystemBenchmarkRun) {
    auto run_mode = [](bool full_settle) {
        GaSystemConfig cfg;
        cfg.params = {.pop_size = 16, .n_gens = 8, .xover_threshold = 10, .mut_threshold = 1,
                      .seed = 0x2961};
        cfg.internal_fems = {FitnessId::kMBf6_2};
        cfg.keep_populations = false;
        GaSystem sys(cfg);
        sys.kernel().set_full_settle(full_settle);
        sys.run();
        const rtl::KernelStats s = sys.kernel().stats();
        return std::array<std::uint64_t, 4>{s.time_points, s.module_ticks, s.register_commits,
                                            sys.ga_clock().edges()};
    };
    const auto [points, ticks, commits, ga_edges] = run_mode(false);
    EXPECT_EQ(ga_edges, 3484u);
    EXPECT_EQ(points, 13934u) << "four time points per GA cycle (50/200 MHz)";
    EXPECT_EQ(ticks, 55738u);
    EXPECT_EQ(commits, 20234u);
    EXPECT_LE(static_cast<double>(commits) / static_cast<double>(ga_edges), 8.0);
    EXPECT_EQ(run_mode(true), (std::array<std::uint64_t, 4>{points, ticks, commits, ga_edges}))
        << "tick and commit counts must not depend on the settle scheduler";
}

}  // namespace
}  // namespace gaip::system
