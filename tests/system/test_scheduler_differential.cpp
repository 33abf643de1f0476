// Differential test of the two kernel schedulers: the event-driven schedule
// with tick elision and the evaluate-everything sweep that ticks every module
// (GAIP_KERNEL_FULL_SETTLE) must produce identical VCD-visible state
// trajectories, identical tap streams (JSONL bytes) and identical run
// results on Table V style workloads, a gate-level core, an external FEM
// and a supervisor restart-rung run. Any divergence means a module's
// sensitivity list is missing a wire its eval() or pure tick() reads, or a
// pure tick is missing a wake.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "fault/fault_model.hpp"
#include "fitness/functions.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/jsonl.hpp"

namespace gaip::system {
namespace {

using fitness::FitnessId;

std::string slurp(const std::string& path) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

std::string jsonl(const trace::MemorySink& sink) {
    std::string out;
    for (const trace::TraceEvent& e : sink.events()) {
        trace::append_json_line(out, e);
        out += '\n';
    }
    return out;
}

// The two flags sit in the padding after `fn`, so the parameter stays the
// 24-byte object that gtest names in the test listing.
struct Workload {
    const char* name;
    FitnessId fn;
    bool gate_level = false;            ///< gates::GateLevelGaCore in place of the RT core
    std::uint8_t external_latency = 0;  ///< nonzero: `fn` on the external FEM (slot 4)
    core::GaParameters params;
};
static_assert(sizeof(Workload) == 24);

class SchedulerDifferentialTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SchedulerDifferentialTest, IdenticalVcdTrajectoryAndResults) {
    const Workload& wl = GetParam();

    struct ModeRun {
        core::RunResult result;
        std::string vcd;
        std::string stream;
    };
    auto run_mode = [&](bool full_settle) {
        const std::string vcd_path = ::testing::TempDir() + "/sched_" +
                                     (full_settle ? "sweep_" : "event_") + wl.name + ".vcd";
        GaSystemConfig cfg;
        cfg.params = wl.params;
        cfg.use_gate_level_core = wl.gate_level;
        if (wl.external_latency > 0) {
            cfg.internal_fems = {};
            cfg.external_fem = wl.fn;
            cfg.external_latency_cycles = wl.external_latency;
            cfg.fitfunc_select = 4;  // slots 4-7 are external by default
        } else {
            cfg.internal_fems = {wl.fn};
        }
        cfg.keep_populations = true;
        cfg.vcd_path = vcd_path;
        trace::MemorySink sink;
        cfg.trace_sink = &sink;
        ModeRun out;
        {
            GaSystem sys(cfg);
            sys.kernel().set_full_settle(full_settle);
            out.result = sys.run();
        }
        out.vcd = slurp(vcd_path);
        out.stream = jsonl(sink);
        std::filesystem::remove(vcd_path);
        return out;
    };

    const ModeRun event = run_mode(false);
    const ModeRun sweep = run_mode(true);
    const core::RunResult& event_r = event.result;
    const core::RunResult& sweep_r = sweep.result;

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
    // byte equality is cycle-by-cycle equality of the visible state; the
    // tap stream stamps every protocol step with its time and GA cycle.
    EXPECT_FALSE(event.vcd.empty());
    EXPECT_EQ(event.vcd, sweep.vcd)
        << "schedulers diverged somewhere in the cycle-by-cycle trajectory";
    EXPECT_NE(event.stream.find("\"kind\":\"done\""), std::string::npos);
    EXPECT_EQ(event.stream, sweep.stream) << "the tap streams diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Table5Workloads, SchedulerDifferentialTest,
    ::testing::Values(
        Workload{.name = "onemax",
                 .fn = FitnessId::kOneMax,
                 .params = {.pop_size = 16, .n_gens = 8, .xover_threshold = 10,
                            .mut_threshold = 1, .seed = 0x2961}},
        Workload{.name = "mbf6_2",
                 .fn = FitnessId::kMBf6_2,
                 .params = {.pop_size = 32, .n_gens = 4, .xover_threshold = 12,
                            .mut_threshold = 2, .seed = 0x061F}},
        Workload{.name = "shubert_odd_pop",
                 .fn = FitnessId::kMShubert2D,
                 .params = {.pop_size = 13, .n_gens = 5, .xover_threshold = 8,
                            .mut_threshold = 4, .seed = 1567}},
        Workload{.name = "gate_level_core",
                 .fn = FitnessId::kMBf6_2,
                 .gate_level = true,
                 .params = {.pop_size = 8, .n_gens = 3, .xover_threshold = 10,
                            .mut_threshold = 1, .seed = 0x2961}},
        Workload{.name = "external_fem",
                 .fn = FitnessId::kMShubert2D,
                 .external_latency = 13,
                 .params = {.pop_size = 12, .n_gens = 4, .xover_threshold = 12,
                            .mut_threshold = 2, .seed = 0xB342}}),
    [](const ::testing::TestParamInfo<Workload>& info) { return std::string(info.param.name); });

/// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() {
        if (old_) {
            ::setenv(name_, old_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
    std::optional<std::string> old_;
};

// The supervisor's in-place restart rung: a state-bit upset parks the FSM in
// kIdle, the watchdog trips and AppModule::request_restart() re-pulses
// start_GA on the same system — the one wake that comes from software, not
// from a wire or a register. The supervisor builds its systems itself, so
// the sweep is selected through GAIP_KERNEL_FULL_SETTLE, which every kernel
// reads at construction. The per-cycle hook records a fingerprint of the
// system after every GA cycle of every attempt.
TEST(SchedulerDifferential, SupervisorRestartRung) {
    const core::GaParameters params{.pop_size = 8, .n_gens = 8, .xover_threshold = 12,
                                    .mut_threshold = 1, .seed = 0x2961};
    GaSystemConfig golden_cfg;
    golden_cfg.params = params;
    golden_cfg.internal_fems = {FitnessId::kMBf6_2};
    GaSystem golden(golden_cfg);
    golden.run();

    struct ModeRun {
        supervisor::SupervisorReport report;
        std::string trajectory;
        std::string stream;
    };
    auto run_mode = [&](bool full_settle) {
        const ScopedEnv env("GAIP_KERNEL_FULL_SETTLE", full_settle ? "1" : "0");
        supervisor::SupervisorConfig cfg;
        cfg.fn = FitnessId::kMBf6_2;
        cfg.params = params;
        cfg.expected_cycles = golden.ga_cycles();
        cfg.ladder.max_retries = 0;
        trace::MemorySink sink;
        cfg.sink = &sink;
        ModeRun out;
        bool fired = false;
        cfg.hook = [&](GaSystem& sys, const supervisor::AttemptInfo& info, std::uint64_t cycle) {
            EXPECT_EQ(sys.kernel().full_settle(), full_settle);
            out.trajectory += std::to_string(info.attempt) + ':' + std::to_string(cycle) + ':' +
                              std::to_string(static_cast<int>(sys.state())) + ':' +
                              std::to_string(sys.generation()) + ':' +
                              std::to_string(sys.fitness_evaluations()) + ':' +
                              std::to_string(sys.wires().start_ga.read()) +
                              std::to_string(sys.wires().fit_request.read()) +
                              std::to_string(sys.app_module().done()) + ':' +
                              std::to_string(sys.wires().candidate.read()) + '\n';
            if (!fired && !info.in_init && cycle >= 10 &&
                fault::scan_safe_state(sys.core().state())) {
                sys.flip_register_bit("state", 2);
                fired = true;
            }
        };
        out.report = supervisor::MissionSupervisor(cfg).run();
        EXPECT_TRUE(fired);
        out.stream = jsonl(sink);
        return out;
    };

    const ModeRun event = run_mode(false);
    const ModeRun sweep = run_mode(true);
    ASSERT_EQ(event.report.status, supervisor::Status::kOk);
    EXPECT_EQ(event.report.final_rung, supervisor::Rung::kRestart)
        << "the workload must reach the restart rung";
    EXPECT_EQ(event.report.restarts, 1u);
    EXPECT_EQ(event.report.best_fitness, golden.best_fitness());
    EXPECT_EQ(event.report, sweep.report);
    EXPECT_EQ(event.trajectory, sweep.trajectory);
    EXPECT_EQ(event.stream, sweep.stream);
}

// Machine-independent cost gate of the RT-level kernel on the
// BM_RtlSystemRun configuration: time points, module ticks and register
// commits are deterministic counts for each scheduler. Only loaded
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
    // The reference path ticks every module at every edge of its clock.
    EXPECT_EQ(run_mode(true), (std::array<std::uint64_t, 4>{13934u, 55738u, 20234u, 3484u}))
        << "four time points per GA cycle (50/200 MHz), 16 ticks per GA cycle";
    // The default path skips the pure ticks of the 200 MHz modules nothing
    // woke: the same time points and GA edges, far fewer ticks. A skipped
    // tick would have loaded nothing, so the commits stay the same.
    const auto [points, ticks, commits, ga_edges] = run_mode(false);
    EXPECT_EQ(ga_edges, 3484u);
    EXPECT_EQ(points, 13934u);
    EXPECT_EQ(ticks, 15170u);
    EXPECT_EQ(commits, 20234u);
    EXPECT_LE(static_cast<double>(commits) / static_cast<double>(ga_edges), 8.0);
}

}  // namespace
}  // namespace gaip::system
