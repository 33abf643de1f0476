// BatchGateRunner verification: batched lane-block gate-level GA runs must
// reproduce the RT-level GaSystem results (best fitness/candidate,
// evaluation counts, generation counts, GA cycles) for the same seeds and
// settings,
// and lanes must be fully independent of batch composition — including
// lanes that live beyond word 0 of a multi-word block.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "gates/batch_runner.hpp"
#include "gates/jit.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"

namespace gaip::gates {
namespace {

using core::GaParameters;
using fitness::FitnessId;

struct RtlRun {
    core::RunResult result;
    std::uint64_t ga_cycles = 0;
};

RtlRun run_rtl(FitnessId fn, const GaParameters& p) {
    system::GaSystemConfig cfg;
    cfg.params = p;
    cfg.internal_fems = {fn};
    cfg.keep_populations = false;
    system::GaSystem sys(cfg);
    RtlRun out;
    out.result = sys.run();
    out.ga_cycles = sys.ga_cycles();
    return out;
}

TEST(BatchGateRunner, LanesMatchRtlSystemResults) {
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = {
        {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0x2961},
        {.pop_size = 16, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
         .seed = 0x061F},
        {.pop_size = 9, .n_gens = 3, .xover_threshold = 14, .mut_threshold = 4,
         .seed = 0xB342},  // odd population exercises the Mu2 skip
        {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0xAAAA},
    };

    BatchGateRunner runner(fn, lanes);
    const std::vector<BatchLaneResult> batch = runner.run();
    ASSERT_EQ(batch.size(), lanes.size());

    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        const RtlRun rtl = run_rtl(fn, lanes[k]);
        EXPECT_TRUE(batch[k].finished);
        EXPECT_EQ(batch[k].best_fitness, rtl.result.best_fitness);
        EXPECT_EQ(batch[k].best_candidate, rtl.result.best_candidate);
        EXPECT_EQ(batch[k].evaluations, rtl.result.evaluations);
        EXPECT_EQ(batch[k].generations + 1, rtl.result.history.size())
            << "one monitor record per generation plus the initial population";
        EXPECT_EQ(batch[k].ga_cycles, rtl.ga_cycles) << "the lane FEM answers in the same cycle";
    }
}

TEST(BatchGateRunner, MultiSeedSweepMatchesRtl) {
    // The paper's six FPGA seeds in one batched simulation (the Table VII
    // sweep pattern at toy size so the RT reference stays fast).
    const FitnessId fn = FitnessId::kOneMax;
    std::vector<GaParameters> lanes;
    for (const std::uint16_t seed : bench::kPaperSeeds)
        lanes.push_back({.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = seed});

    BatchGateRunner runner(fn, lanes);
    const auto batch = runner.run();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        SCOPED_TRACE("seed " + std::to_string(lanes[k].seed));
        const RtlRun rtl = run_rtl(fn, lanes[k]);
        EXPECT_EQ(batch[k].best_fitness, rtl.result.best_fitness);
        EXPECT_EQ(batch[k].best_candidate, rtl.result.best_candidate);
        EXPECT_EQ(batch[k].ga_cycles, rtl.ga_cycles);
    }
}

TEST(BatchGateRunner, LaneResultsIndependentOfBatchComposition) {
    const FitnessId fn = FitnessId::kMShubert2D;
    const GaParameters probe{.pop_size = 8, .n_gens = 3, .xover_threshold = 12,
                             .mut_threshold = 1, .seed = 0xA0A0};

    BatchGateRunner solo(fn, {probe});
    const auto alone = solo.run();

    std::vector<GaParameters> mixed = {
        {.pop_size = 16, .n_gens = 5, .xover_threshold = 10, .mut_threshold = 3,
         .seed = 0xFFFF},
        probe,
        {.pop_size = 12, .n_gens = 2, .xover_threshold = 14, .mut_threshold = 1,
         .seed = 0x0001},
    };
    BatchGateRunner batch(fn, mixed);
    const auto together = batch.run();

    EXPECT_EQ(together[1].best_fitness, alone[0].best_fitness);
    EXPECT_EQ(together[1].best_candidate, alone[0].best_candidate);
    EXPECT_EQ(together[1].evaluations, alone[0].evaluations);
    EXPECT_EQ(together[1].ga_cycles, alone[0].ga_cycles)
        << "a lane must not even see the other lanes' timing";
}

TEST(BatchGateRunner, RejectsEmptyAndOversizedBatches) {
    EXPECT_THROW(BatchGateRunner(FitnessId::kOneMax, {}), std::invalid_argument);
    // 65 lanes used to be the hard ceiling; with lane blocks it just means
    // a 2-word block. The ceiling is now the widest block (512 lanes).
    std::vector<GaParameters> too_many(BatchGateRunner::kMaxLanes + 1);
    EXPECT_THROW(BatchGateRunner(FitnessId::kOneMax, too_many), std::invalid_argument);
    // An explicit width that cannot hold the requested lanes is refused
    // instead of silently dropping lanes.
    std::vector<GaParameters> sixty_five(65);
    EXPECT_THROW(BatchGateRunner(FitnessId::kOneMax, sixty_five, 1), std::invalid_argument);
}

TEST(BatchGateRunner, AutoWidthPicksSmallestFittingBlock) {
    const GaParameters p{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = 0x2961};
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, {p}).words(), 1u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(64, p)).words(), 1u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(65, p)).words(), 2u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(129, p)).words(),
              4u);
    EXPECT_EQ(BatchGateRunner(FitnessId::kOneMax, std::vector<GaParameters>(257, p)).words(),
              8u);
}

TEST(BatchGateRunner, LaneBeyondWordZeroMatchesSoloRun) {
    // A lane placed past bit 63 (word 1 of a 2-word block) must behave
    // exactly like a solo single-word run of the same config.
    const FitnessId fn = FitnessId::kOneMax;
    const GaParameters probe{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                             .mut_threshold = 1, .seed = 0xA0A0};
    BatchGateRunner solo(fn, {probe});
    const auto alone = solo.run();

    std::vector<GaParameters> lanes(70, GaParameters{.pop_size = 8, .n_gens = 2,
                                                     .xover_threshold = 12,
                                                     .mut_threshold = 1, .seed = 0x1111});
    for (std::size_t k = 0; k < lanes.size(); ++k)
        lanes[k].seed = static_cast<std::uint16_t>(0x1111 + 13 * k);
    lanes[68] = probe;
    BatchGateRunner batch(fn, lanes);
    ASSERT_EQ(batch.words(), 2u);
    const auto together = batch.run();
    EXPECT_EQ(together[68].best_fitness, alone[0].best_fitness);
    EXPECT_EQ(together[68].best_candidate, alone[0].best_candidate);
    EXPECT_EQ(together[68].evaluations, alone[0].evaluations);
    EXPECT_EQ(together[68].ga_cycles, alone[0].ga_cycles)
        << "lane timing must not depend on block width or position";
}

TEST(BatchGateRunner, DefaultCycleBoundIsExactAndOverflowSafe) {
    // The bound formula now runs on saturating u64 arithmetic (sat_add_u64
    // / sat_mul_u64 — wrap-to-tiny-bound is impossible by construction;
    // the clamping itself is unit-tested in tests/util/test_bits.cpp).
    // With the max-representable parameters the formula must come out
    // exact and monotone, not wrapped.
    const GaParameters adversarial{.pop_size = 128, .n_gens = 0xFFFFFFFF,
                                   .xover_threshold = 12, .mut_threshold = 1, .seed = 1};
    BatchGateRunner runner(FitnessId::kOneMax, {adversarial});
    const std::uint64_t evals = 128ull * 0x1'0000'0000ull;
    const std::uint64_t per_eval = 64ull + 8ull * 128ull;
    EXPECT_EQ(runner.default_cycle_bound(), evals * per_eval + 100'000ull);
    EXPECT_GT(runner.default_cycle_bound(), evals) << "no wraparound";

    // Sane configs still get the exact formula value.
    const GaParameters sane{.pop_size = 16, .n_gens = 12, .xover_threshold = 12,
                            .mut_threshold = 1, .seed = 0x2961};
    BatchGateRunner ok(FitnessId::kOneMax, {sane});
    EXPECT_EQ(ok.default_cycle_bound(), (16ull * 13ull) * (64ull + 8ull * 16ull) + 100'000ull);
}

TEST(BatchGateRunner, JitBackendReproducesInterpLanes) {
    // The runner's 4th constructor parameter swaps the evaluation engine
    // under both compiled netlists (core + RNG); every per-lane result —
    // fitness, candidate, evaluation/generation counts, cycle timings —
    // must be bit-identical to the interpreter.
    if (!gates::jit::available())
        GTEST_SKIP() << "no host compiler for the JIT backend";
    const FitnessId fn = FitnessId::kMBf6_2;
    const std::vector<GaParameters> lanes = {
        {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0x2961},
        {.pop_size = 16, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
         .seed = 0x061F},
        {.pop_size = 9, .n_gens = 3, .xover_threshold = 14, .mut_threshold = 4,
         .seed = 0xB342},
    };
    BatchGateRunner interp(fn, lanes, 1, gates::Backend::kInterp);
    BatchGateRunner jitted(fn, lanes, 1, gates::Backend::kJitForce);
    ASSERT_TRUE(jitted.core_sim().jit_active());
    const std::vector<BatchLaneResult> a = interp.run();
    const std::vector<BatchLaneResult> b = jitted.run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        SCOPED_TRACE("lane " + std::to_string(k));
        EXPECT_EQ(a[k].finished, b[k].finished);
        EXPECT_EQ(a[k].best_fitness, b[k].best_fitness);
        EXPECT_EQ(a[k].best_candidate, b[k].best_candidate);
        EXPECT_EQ(a[k].generations, b[k].generations);
        EXPECT_EQ(a[k].evaluations, b[k].evaluations);
        EXPECT_EQ(a[k].ga_cycles, b[k].ga_cycles);
    }
}

/// Events as JSONL lines: exact to compare, readable when they differ.
std::vector<std::string> json_lines(const std::vector<trace::TraceEvent>& events) {
    std::vector<std::string> out;
    for (const trace::TraceEvent& e : events) out.push_back(trace::to_json_line(e));
    return out;
}

/// One lane's job run alone on a fresh one-lane runner: result + stream.
struct SoloRun {
    BatchLaneResult result;
    std::vector<std::string> events;
};

SoloRun solo_run(FitnessId fn, const GaParameters& p, gates::Backend backend) {
    BatchGateRunner runner(fn, {p}, 1, backend);
    trace::MemorySink sink;
    runner.set_lane_sink(0, &sink);
    const BatchLaneResult result = runner.run()[0];
    return {result, json_lines(sink.events())};
}

void expect_same_result(const BatchLaneResult& got, const BatchLaneResult& want) {
    EXPECT_TRUE(got.finished);
    EXPECT_EQ(got.finished, want.finished);
    EXPECT_EQ(got.best_fitness, want.best_fitness);
    EXPECT_EQ(got.best_candidate, want.best_candidate);
    EXPECT_EQ(got.generations, want.generations);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(got.ga_cycles, want.ga_cycles);
}

/// Continuous refill: lane 0 is reloaded the cycle after its first job
/// finishes (with a different fitness function), and lane 70 — word 1 of
/// a 2-word block — is loaded while the block is running. Both must be
/// indistinguishable from fresh one-lane runs, trace `cycle`/`t` included,
/// and the siblings must not notice.
void reload_lanes_mid_run(gates::Backend backend) {
    const std::vector<GaParameters> first = {
        {.pop_size = 8, .n_gens = 2, .xover_threshold = 12, .mut_threshold = 1,
         .seed = 0x2961},  // short: finishes first
        {.pop_size = 16, .n_gens = 6, .xover_threshold = 10, .mut_threshold = 2,
         .seed = 0x061F},
        {.pop_size = 9, .n_gens = 4, .xover_threshold = 14, .mut_threshold = 4,
         .seed = 0xB342},
    };
    const GaParameters again{.pop_size = 12, .n_gens = 3, .xover_threshold = 12,
                             .mut_threshold = 3, .seed = 0xA0A0};
    const GaParameters far{.pop_size = 10, .n_gens = 3, .xover_threshold = 13,
                           .mut_threshold = 1, .seed = 0xFFFF};

    BatchGateRunner plain(FitnessId::kMBf6_2, first, 2, backend);
    const std::vector<BatchLaneResult> untouched = plain.run();

    BatchGateRunner runner(FitnessId::kMBf6_2, first, 2, backend);
    ASSERT_EQ(runner.words(), 2u);
    runner.begin_run();
    while (!runner.lane_result(0).finished) {
        ASSERT_LT(runner.cycles(), runner.default_cycle_bound());
        runner.step_cycle();
    }
    ASSERT_FALSE(runner.lane_result(1).finished) << "the reload must happen mid-run";
    expect_same_result(runner.lane_result(0), untouched[0]);

    trace::MemorySink again_sink, far_sink;
    runner.load_lane(0, FitnessId::kOneMax, again);
    runner.set_lane_sink(0, &again_sink);
    for (int i = 0; i < 301; ++i) runner.step_cycle();
    runner.load_lane(70, FitnessId::kRoyalRoad, far);
    runner.set_lane_sink(70, &far_sink);
    EXPECT_EQ(runner.lane_count(), 71u);
    EXPECT_EQ(runner.lane_cycles(70), 0u);
    EXPECT_EQ(runner.lane_cycle_bound(70),
              BatchGateRunner(FitnessId::kRoyalRoad, {far}).default_cycle_bound());

    const std::uint64_t bound = runner.cycles() + runner.default_cycle_bound();
    while (runner.step_cycle() > 0) ASSERT_LT(runner.cycles(), bound);

    {
        SCOPED_TRACE("lane 0 reloaded with another fitness function");
        const SoloRun want = solo_run(FitnessId::kOneMax, again, backend);
        expect_same_result(runner.lane_result(0), want.result);
        EXPECT_EQ(json_lines(again_sink.events()), want.events);
        EXPECT_FALSE(want.events.empty());
    }
    {
        SCOPED_TRACE("lane 70 loaded into word 1");
        const SoloRun want = solo_run(FitnessId::kRoyalRoad, far, backend);
        expect_same_result(runner.lane_result(70), want.result);
        EXPECT_EQ(json_lines(far_sink.events()), want.events);
    }
    for (unsigned k : {1u, 2u}) {
        SCOPED_TRACE("sibling lane " + std::to_string(k));
        expect_same_result(runner.lane_result(k), untouched[k]);
    }
}

TEST(BatchGateRunner, ReloadedLanesMatchFreshOneLaneRuns) {
    reload_lanes_mid_run(gates::Backend::kInterp);
}

TEST(BatchGateRunner, ReloadedLanesMatchFreshOneLaneRunsJit) {
    if (!gates::jit::available())
        GTEST_SKIP() << "no host compiler for the JIT backend";
    reload_lanes_mid_run(gates::Backend::kJitForce);
}

TEST(BatchGateRunner, FreedLaneStopsCounting) {
    const GaParameters p{.pop_size = 8, .n_gens = 2, .xover_threshold = 12,
                         .mut_threshold = 1, .seed = 0x2961};
    BatchGateRunner runner(FitnessId::kOneMax, {p, p});
    runner.begin_run();
    EXPECT_EQ(runner.step_cycle(), 2u);
    runner.free_lane(1);
    EXPECT_EQ(runner.step_cycle(), 1u) << "a freed lane is no longer unfinished";
    EXPECT_EQ(runner.pending_lanes(), 1u);
    EXPECT_THROW(runner.load_lane(64, FitnessId::kOneMax, p), std::invalid_argument)
        << "lane 64 lies beyond a one-word block";
}

}  // namespace
}  // namespace gaip::gates
