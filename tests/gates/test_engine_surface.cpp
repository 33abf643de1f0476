// One engine surface across the three substrates: the RT-level GaSystem, a
// one-lane BatchGateRunner and the BehavioralEngine, each stepped with
// run_to(g) through every generation boundary, must hold the same
// population at every boundary, take the same poke to the same end, and a
// lane stepped boundary by boundary must end exactly like one run().
// The lane runs on the interpreter and, when a host compiler is present,
// on the JIT.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/behavioral.hpp"
#include "core/substrate.hpp"
#include "gates/batch_runner.hpp"
#include "gates/jit.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"

namespace gaip::gates {
namespace {

using core::GaParameters;
using fitness::FitnessId;

struct Job {
    FitnessId fn;
    GaParameters p;
};

std::vector<Job> jobs() {
    return {
        {FitnessId::kOneMax,
         {.pop_size = 8, .n_gens = 5, .xover_threshold = 10, .mut_threshold = 2,
          .seed = 0x2961}},
        {FitnessId::kMBf6_2,
         {.pop_size = 16, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
          .seed = 0x061F}},
        {FitnessId::kRoyalRoad,
         {.pop_size = 9, .n_gens = 3, .xover_threshold = 14, .mut_threshold = 4,
          .seed = 0xB342}},  // odd population: the Mu2 skip
    };
}

/// The three engines of one job, each past its init handshake.
struct Engines {
    system::GaSystem sys;
    BatchGateRunner lane;
    core::BehavioralEngine beh;

    Engines(const Job& j, Backend backend)
        : sys([&] {
              system::GaSystemConfig cfg;
              cfg.params = j.p;
              cfg.internal_fems = {j.fn};
              cfg.keep_populations = false;
              return cfg;
          }()),
          lane(j.fn, {j.p}, 1, backend),
          beh(j.p, core::rom_fitness(j.fn), prng::RngKind::kCellularAutomaton,
              /*keep_populations=*/false) {
        EXPECT_TRUE(sys.start());
        lane.begin_run();
    }

    void run_to(std::uint32_t g) {
        ASSERT_TRUE(sys.run_to(g, sys.cycle_bound()).ok);
        ASSERT_TRUE(lane.run_to(g, lane.default_cycle_bound()).ok);
        beh.run_to(g);
    }
};

void populations_agree_at_every_boundary(Backend backend) {
    for (const Job& j : jobs()) {
        SCOPED_TRACE(fitness::fitness_name(j.fn) + " pop " + std::to_string(j.p.pop_size));
        Engines e(j, backend);
        for (std::uint32_t g = 0; g <= j.p.n_gens; ++g) {
            SCOPED_TRACE("generation " + std::to_string(g));
            e.run_to(g);
            EXPECT_EQ(e.sys.generation(), g);
            EXPECT_EQ(e.lane.lane_generation(0), g);
            EXPECT_EQ(e.beh.generation(), g);
            EXPECT_EQ(e.sys.population(), e.beh.population());
            EXPECT_EQ(e.lane.lane_population(0), e.beh.population());
        }
    }
}

TEST(EngineSurface, PopulationsAgreeAtEveryBoundary) {
    populations_agree_at_every_boundary(Backend::kInterp);
}

TEST(EngineSurface, PopulationsAgreeAtEveryBoundaryJit) {
    if (!jit::available()) GTEST_SKIP() << "no host compiler for the JIT backend";
    populations_agree_at_every_boundary(Backend::kJitForce);
}

void poke_at_generation_two_agrees_to_the_end(Backend backend) {
    for (const Job& j : jobs()) {
        SCOPED_TRACE(fitness::fitness_name(j.fn) + " pop " + std::to_string(j.p.pop_size));
        Engines e(j, backend);
        e.run_to(2);
        // A strong migrant: it enters the best registers only once an
        // offspring evaluation beats it (stale fit_sum, untouched best).
        const core::Member m{0xBEEF, 0xFFF0};
        e.sys.poke_member(1, m);
        e.lane.poke_lane_member(0, 1, m);
        e.beh.poke_member(1, m);
        EXPECT_EQ(e.lane.lane_population(0), e.beh.population());

        ASSERT_TRUE(e.sys.run_to(core::kEnd, e.sys.cycle_bound()).ok);
        const core::RunResult rtl = e.sys.finish();
        ASSERT_TRUE(e.lane.run_to(core::kEnd, e.lane.default_cycle_bound()).ok);
        const BatchLaneResult& lane = e.lane.lane_result(0);
        e.beh.run_to(j.p.n_gens);

        EXPECT_TRUE(lane.finished);
        EXPECT_EQ(rtl.best_fitness, e.beh.best_fitness());
        EXPECT_EQ(rtl.best_candidate, e.beh.best_candidate());
        EXPECT_EQ(rtl.evaluations, e.beh.evaluations());
        EXPECT_EQ(lane.best_fitness, e.beh.best_fitness());
        EXPECT_EQ(lane.best_candidate, e.beh.best_candidate());
        EXPECT_EQ(lane.evaluations, e.beh.evaluations());
    }
}

TEST(EngineSurface, PokeAtGenerationTwoAgreesToTheEnd) {
    poke_at_generation_two_agrees_to_the_end(Backend::kInterp);
}

TEST(EngineSurface, PokeAtGenerationTwoAgreesToTheEndJit) {
    if (!jit::available()) GTEST_SKIP() << "no host compiler for the JIT backend";
    poke_at_generation_two_agrees_to_the_end(Backend::kJitForce);
}

std::vector<std::string> json_lines(const std::vector<trace::TraceEvent>& events) {
    std::vector<std::string> out;
    for (const trace::TraceEvent& e : events) out.push_back(trace::to_json_line(e));
    return out;
}

void stepped_lane_ends_like_run(Backend backend) {
    for (const Job& j : jobs()) {
        SCOPED_TRACE(fitness::fitness_name(j.fn) + " pop " + std::to_string(j.p.pop_size));
        BatchGateRunner whole(j.fn, {j.p}, 1, backend);
        trace::MemorySink whole_sink;
        whole.set_lane_sink(0, &whole_sink);
        const BatchLaneResult want = whole.run()[0];

        BatchGateRunner stepped(j.fn, {j.p}, 1, backend);
        trace::MemorySink stepped_sink;
        stepped.set_lane_sink(0, &stepped_sink);
        stepped.begin_run();
        for (std::uint32_t g = 0; g <= j.p.n_gens + 1; ++g)
            ASSERT_TRUE(stepped.run_to(g, stepped.default_cycle_bound()).ok);
        EXPECT_EQ(stepped.pending_lanes(), 0u);
        const BatchLaneResult& got = stepped.lane_result(0);

        EXPECT_TRUE(got.finished);
        EXPECT_EQ(got.best_fitness, want.best_fitness);
        EXPECT_EQ(got.best_candidate, want.best_candidate);
        EXPECT_EQ(got.generations, want.generations);
        EXPECT_EQ(got.evaluations, want.evaluations);
        EXPECT_EQ(got.ga_cycles, want.ga_cycles);
        EXPECT_EQ(stepped.cycles(), whole.cycles());
        EXPECT_EQ(stepped.lane_stall_cycles(0), 0u);
        EXPECT_EQ(json_lines(stepped_sink.events()), json_lines(whole_sink.events()));
        EXPECT_FALSE(whole_sink.events().empty());
    }
}

TEST(EngineSurface, SteppedLaneEndsLikeRun) { stepped_lane_ends_like_run(Backend::kInterp); }

TEST(EngineSurface, SteppedLaneEndsLikeRunJit) {
    if (!jit::available()) GTEST_SKIP() << "no host compiler for the JIT backend";
    stepped_lane_ends_like_run(Backend::kJitForce);
}

TEST(EngineSurface, PokeLaneMemberChecksTheSlot) {
    const Job j = jobs()[0];
    BatchGateRunner lane(j.fn, {j.p}, 1, Backend::kInterp);
    lane.begin_run();
    ASSERT_TRUE(lane.run_to(1, lane.default_cycle_bound()).ok);
    EXPECT_EQ(lane.lane_population(0).size(), j.p.pop_size);
    EXPECT_THROW(lane.poke_lane_member(0, j.p.pop_size, {}), std::invalid_argument);
}

TEST(EngineSurface, FlipRegisterBitNeedsTheScanChain) {
    system::GaSystemConfig cfg;
    cfg.params = jobs()[0].p;
    system::GaSystem rtl(cfg);
    ASSERT_TRUE(rtl.start());
    const std::uint32_t before = rtl.core().generation();
    rtl.flip_register_bit("gen_id", 3);
    EXPECT_EQ(rtl.core().generation(), before ^ 8u);
    EXPECT_THROW(rtl.flip_register_bit("gen_id", 99), std::out_of_range);

    cfg.use_gate_level_core = true;
    system::GaSystem gates(cfg);
    EXPECT_THROW(gates.flip_register_bit("gen_id", 3), std::logic_error);
}

}  // namespace
}  // namespace gaip::gates
