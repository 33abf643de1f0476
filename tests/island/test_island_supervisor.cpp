// Supervisor-interplay tests for the island ensemble: the mission
// supervisor's checkpoint/rollback machinery applied per island. An SEU
// wedging ONE island mid-segment (between two migration barriers) must
// trip that island's segment watchdog, roll back ONLY that island to its
// last barrier checkpoint, and re-run the segment — while the ring keeps
// delivering: the final migrations, per-island trajectories, and best
// result are bit-identical to the fault-free golden run. Plus the NMR
// ensemble vote and the structured-abort path when the rollback budget is
// exhausted.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fault/fault_model.hpp"
#include "island/supervised.hpp"
#include "rtl/scan.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"

namespace gaip::island {
namespace {

using supervisor::AttemptInfo;
using core::Substrate;
using supervisor::Rung;
using supervisor::Status;

IslandConfig base_islands() {
    IslandConfig cfg;
    cfg.base.pop_size = 16;
    cfg.base.n_gens = 24;
    cfg.base.seed = 0x2961;
    cfg.islands = 4;
    cfg.migration.interval = 8;  // boundaries at gens 8 and 16
    cfg.migration.count = 2;
    cfg.backend = Substrate::kRtl;
    return cfg;
}

/// Wedge island `island` once, in its primary (non-resumed) pass of the
/// segment containing `cycle`, by flipping scan bit "state"[5] — an
/// invalid FSM encoding the watchdog is guaranteed to catch.
supervisor::CycleHook wedge_island_hook(unsigned island, std::uint64_t at_cycle, bool& fired) {
    return [island, at_cycle, &fired](system::GaSystem& sys, const AttemptInfo& info,
                                      std::uint64_t cycle) {
        if (fired || info.attempt != island || info.rung != Rung::kPrimary || info.resumed)
            return;
        if (cycle >= at_cycle && fault::scan_safe_state(sys.core().state())) {
            rtl::ScanChain& chain = sys.core().scan_chain();
            chain.flip(chain.position_of("state", 5));
            sys.core().input_changed();
            fired = true;
        }
    };
}

// The headline property: one upset core costs one island one segment
// re-run, never the ensemble — and reconverges bit-exactly.
TEST(SupervisedIslands, SeuMidRunRollsBackOnlyThatIsland) {
    const IslandConfig icfg = base_islands();
    const IslandResult golden = run_island_system(icfg);

    trace::MemorySink sink;
    SupervisedIslandConfig cfg;
    cfg.islands = icfg;
    cfg.sink = &sink;
    bool fired = false;
    // Cycle 9000 lands mid second segment (gens 8..16) for pop 16.
    cfg.hook = wedge_island_hook(1, 9000, fired);
    SupervisedIslandSystem sup(cfg);
    const SupervisedIslandReport rep = sup.run();

    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.watchdog_trips, 1u);
    EXPECT_EQ(rep.rollbacks, 1u);
    // Checkpoints: one per island at gen 0 plus one per island per
    // migration barrier (gens 8, 16) = 4 x 3.
    EXPECT_EQ(rep.checkpoints, 12u);

    // Bit-identical reconvergence with the fault-free golden.
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    EXPECT_EQ(rep.result.migrations, golden.migrations);
    ASSERT_EQ(rep.result.islands.size(), golden.islands.size());
    for (std::size_t i = 0; i < golden.islands.size(); ++i) {
        EXPECT_EQ(rep.result.islands[i].best_fitness, golden.islands[i].best_fitness)
            << "island " << i;
        EXPECT_EQ(rep.result.islands[i].best_trajectory, golden.islands[i].best_trajectory)
            << "island " << i;
    }

    // The telemetry stream names the rolled-back island — and only it.
    unsigned rollback_events = 0;
    for (const trace::TraceEvent& e : sink.events()) {
        if (e.kind == trace::kind::kIslandRollback) {
            ++rollback_events;
            EXPECT_EQ(e.u64("island"), 1u);
        }
    }
    EXPECT_EQ(rollback_events, 1u);
    // The ring kept delivering: both barriers appear with full payloads.
    unsigned barriers = 0;
    for (const trace::TraceEvent& e : sink.events())
        if (e.kind == trace::kind::kIslandBarrier) ++barriers;
    EXPECT_EQ(barriers, 2u);
}

// A fault-free supervised run is just the island system with bookkeeping:
// same result, zero trips, checkpoints at every barrier.
TEST(SupervisedIslands, FaultFreeRunMatchesPlainSystem) {
    const IslandConfig icfg = base_islands();
    const IslandResult golden = run_island_system(icfg);
    SupervisedIslandConfig cfg;
    cfg.islands = icfg;
    const SupervisedIslandReport rep = SupervisedIslandSystem(cfg).run();
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.watchdog_trips, 0u);
    EXPECT_EQ(rep.rollbacks, 0u);
    EXPECT_EQ(rep.checkpoints, 12u);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    EXPECT_EQ(rep.result.migrations, golden.migrations);
    EXPECT_FALSE(rep.voted);
}

// NMR: the island job is bit-exact per replica, so an undisturbed
// 3-replica vote is unanimous and delivers the plain result.
TEST(SupervisedIslands, NmrVoteUnanimousWhenUndisturbed) {
    const IslandConfig icfg = base_islands();
    const IslandResult golden = run_island_system(icfg);
    trace::MemorySink sink;
    SupervisedIslandConfig cfg;
    cfg.islands = icfg;
    cfg.nmr = 3;
    cfg.sink = &sink;
    const SupervisedIslandReport rep = SupervisedIslandSystem(cfg).run();
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_TRUE(rep.voted);
    EXPECT_EQ(rep.vote_agree, 3u);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    bool saw_vote = false;
    for (const trace::TraceEvent& e : sink.events())
        if (e.kind == trace::kind::kSupVote) saw_vote = true;
    EXPECT_TRUE(saw_vote);
}

// A persistent wedge with the rollback budget at zero must end in a
// structured abort (status, reason, sup_abort event) — never a hang or an
// exception escaping run().
TEST(SupervisedIslands, ExhaustedRollbackBudgetAborts) {
    trace::MemorySink sink;
    SupervisedIslandConfig cfg;
    cfg.islands = base_islands();
    cfg.max_retries = 0;
    cfg.sink = &sink;
    bool fired = false;
    cfg.hook = wedge_island_hook(2, 9000, fired);
    const SupervisedIslandReport rep = SupervisedIslandSystem(cfg).run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(rep.status, Status::kAborted);
    EXPECT_FALSE(rep.ok());
    EXPECT_GE(rep.watchdog_trips, 1u);
    EXPECT_EQ(rep.rollbacks, 0u);
    EXPECT_FALSE(rep.abort_reason.empty());
    bool saw_abort = false;
    for (const trace::TraceEvent& e : sink.events())
        if (e.kind == trace::kind::kSupAbort) saw_abort = true;
    EXPECT_TRUE(saw_abort);
}

// The checkpoint/rollback machinery is the RT-level scan-chain path; the
// wrapper rejects the other substrates up front.
TEST(SupervisedIslands, NonRtlBackendThrows) {
    SupervisedIslandConfig cfg;
    cfg.islands = base_islands();
    cfg.islands.backend = Substrate::kBehavioral;
    EXPECT_THROW(SupervisedIslandSystem{cfg}, std::invalid_argument);
    cfg.islands.backend = Substrate::kGates;
    EXPECT_THROW(SupervisedIslandSystem{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace gaip::island
