// Migration-register contract tests: the interconnect's programmable
// values (init-handshake indices 6 and 7) follow the repo's register
// semantics — values arriving over the REGISTER path clamp silently like
// the pop-size register, structural errors in the C++ API throw
// std::invalid_argument, and no register value, however hostile, can hang
// an island run. Plus the spec-level properties of the pure
// plan_migration() function: emigrant/victim selection order, tie
// breaking, star pooling, and the zero-emigrant degeneration to N fully
// independent islands.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"
#include "island/island.hpp"
#include "prng/rng_module.hpp"
#include "supervisor/supervisor.hpp"

namespace gaip::island {
namespace {

using core::Member;
using supervisor::BackendKind;

/// splitmix64 — deterministic fuzz stimulus.
struct Rand {
    std::uint64_t s;
    std::uint64_t next() {
        s += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
};

// ---------------------------------------------------------------- encoding

TEST(MigrationRegisters, PackDecodeRoundTrip) {
    Rand rnd{0x15A4D5u};
    for (int i = 0; i < 200; ++i) {
        MigrationConfig cfg;
        cfg.interval = static_cast<std::uint16_t>(rnd.next());
        cfg.count = static_cast<std::uint16_t>(rnd.next() & 0xFF);  // encodable range
        cfg.policy = (rnd.next() & 1) != 0 ? ReplacePolicy::kRandom : ReplacePolicy::kWorst;
        const MigrationConfig back = decode_registers(cfg.interval, pack_count_policy(cfg));
        EXPECT_EQ(back.interval, cfg.interval);
        EXPECT_EQ(back.count, cfg.count);
        EXPECT_EQ(back.policy, cfg.policy);
    }
}

TEST(MigrationRegisters, CountFieldIsEightBits) {
    MigrationConfig cfg;
    cfg.count = 0x1FF;  // 511 requested: only bits [7:0] exist in the register
    cfg.policy = ReplacePolicy::kWorst;
    const std::uint16_t reg = pack_count_policy(cfg);
    EXPECT_EQ(reg & 0x100, 0) << "count bit 8 must not bleed into the policy bit";
    EXPECT_EQ(decode_registers(0, reg).count, 0xFF);
    cfg.policy = ReplacePolicy::kRandom;
    EXPECT_EQ(decode_registers(0, pack_count_policy(cfg)).policy, ReplacePolicy::kRandom);
}

TEST(MigrationRegisters, ClampSaturatesAtHalfPopAndHardwareCeiling) {
    MigrationConfig raw;
    raw.count = 200;
    EXPECT_EQ(clamp_migration(raw, 16).count, 8u);              // pop/2 dominates
    EXPECT_EQ(clamp_migration(raw, 64).count, kMaxEmigrants);   // ceiling dominates
    raw.count = 3;
    EXPECT_EQ(clamp_migration(raw, 16).count, 3u);              // in range: untouched
    raw.count = 0;
    EXPECT_EQ(clamp_migration(raw, 16).count, 0u);              // off stays off
}

// Every substrate derives its effective config through the SAME register
// decode + clamp, so an out-of-range request behaves identically
// everywhere — including the 8-bit truncation of the count field.
TEST(MigrationRegisters, EffectiveConfigIsTheRegisterView) {
    IslandConfig cfg;
    cfg.base.pop_size = 16;
    cfg.base.n_gens = 8;
    cfg.base.seed = 0x2961;
    cfg.islands = 2;
    cfg.migration.interval = 4;
    cfg.migration.count = 0x103;  // truncates to 3 in the 8-bit field
    IslandSystem sys(cfg);
    EXPECT_EQ(sys.effective_migration().count, 3u);
    EXPECT_EQ(sys.effective_migration().interval, 4u);
    cfg.migration.count = 200;  // survives the 8-bit field, then clamps
    EXPECT_EQ(IslandSystem(cfg).effective_migration().count, 8u);
}

// ------------------------------------------------------------- structural

TEST(MigrationRegisters, StructuralErrorsThrow) {
    IslandConfig cfg;
    cfg.base.pop_size = 16;
    cfg.base.n_gens = 4;
    cfg.islands = 0;
    EXPECT_THROW(IslandSystem{cfg}, std::invalid_argument);
    cfg.islands = 2;
    cfg.seeds = {1, 2, 3};  // size != islands
    EXPECT_THROW(IslandSystem{cfg}, std::invalid_argument);
    cfg.seeds.clear();
    cfg.backend = BackendKind::kGateLane;
    cfg.rng_kind = prng::RngKind::kXorShift;  // gate netlist is CA-only
    EXPECT_THROW(IslandSystem{cfg}, std::invalid_argument);
}

TEST(MigrationRegisters, RegisterValuesNeverThrow) {
    // Hostile register values are NOT structural: the hardware path clamps.
    IslandConfig cfg;
    cfg.base.pop_size = 8;
    cfg.base.n_gens = 4;
    cfg.base.seed = 0x061F;
    cfg.islands = 2;
    cfg.migration.interval = 0xFFFF;
    cfg.migration.count = 0xFFFF;
    EXPECT_NO_THROW({
        const IslandResult r = IslandSystem(cfg).run();
        EXPECT_TRUE(r.migrations.empty());  // interval past n_gens: no boundary
    });
}

// -------------------------------------------------------------- fuzz runs

// Fuzzed register values on real runs: whatever the registers hold, every
// island completes its full generation count within the cycle bound (the
// "migration interconnect can never hang the cores" hardware claim) and
// the effective count respects the clamp. Behavioral and RT-level
// substrates stay bit-identical under fuzz, too.
TEST(MigrationRegisters, FuzzedRegistersNeverHangAndStayBitIdentical) {
    Rand rnd{0xF00DF00Du};
    for (int iter = 0; iter < 12; ++iter) {
        IslandConfig cfg;
        cfg.base.pop_size = static_cast<std::uint8_t>((rnd.next() & 1) != 0 ? 16 : 8);
        cfg.base.n_gens = 10;
        cfg.base.seed = static_cast<std::uint16_t>(rnd.next());
        cfg.islands = 1 + static_cast<unsigned>(rnd.next() % 4);
        cfg.topology = (rnd.next() & 1) != 0 ? Topology::kStar : Topology::kRing;
        cfg.migration.interval = static_cast<std::uint16_t>(rnd.next() % 40);  // incl. > n_gens
        cfg.migration.count = static_cast<std::uint16_t>(rnd.next() % 300);
        cfg.migration.policy =
            (rnd.next() & 1) != 0 ? ReplacePolicy::kRandom : ReplacePolicy::kWorst;

        cfg.backend = BackendKind::kBehavioral;
        IslandSystem beh(cfg);
        const unsigned cap =
            std::min(kMaxEmigrants, static_cast<unsigned>(cfg.base.pop_size / 2));
        EXPECT_LE(beh.effective_migration().count, cap) << "iter " << iter;
        const IslandResult b = beh.run();

        cfg.backend = BackendKind::kRtl;
        const IslandResult r = IslandSystem(cfg).run();  // throws on a missed bound

        ASSERT_EQ(b.islands.size(), r.islands.size()) << "iter " << iter;
        EXPECT_EQ(b.migrations, r.migrations) << "iter " << iter;
        for (std::size_t i = 0; i < b.islands.size(); ++i) {
            EXPECT_EQ(b.islands[i].generations, cfg.base.n_gens) << "iter " << iter;
            EXPECT_EQ(b.islands[i].best_trajectory, r.islands[i].best_trajectory)
                << "iter " << iter << " island " << i;
        }
        EXPECT_EQ(b.best_fitness, r.best_fitness) << "iter " << iter;
    }
}

// ---------------------------------------------------------- zero emigrants

// interval == 0 and count == 0 both mean "interconnect off": N islands
// evolve exactly as N fully independent single-island runs with the same
// seeds, on every substrate.
TEST(MigrationRegisters, ZeroEmigrantEnsembleEqualsIndependentRuns) {
    for (bool via_count : {false, true}) {
        IslandConfig cfg;
        cfg.base.pop_size = 16;
        cfg.base.n_gens = 16;
        cfg.base.seed = 0xB342;
        cfg.islands = 4;
        cfg.migration.interval = via_count ? 4 : 0;
        cfg.migration.count = via_count ? 0 : 2;
        cfg.backend = BackendKind::kRtl;
        IslandSystem sys(cfg);
        EXPECT_TRUE(sys.boundaries().empty());
        const IslandResult ens = sys.run();
        EXPECT_TRUE(ens.migrations.empty());
        // Best-of reduction: the maximum over the islands, credited to the
        // lowest island index that reaches it.
        std::uint16_t best = 0;
        for (const IslandStats& s : ens.islands) best = std::max(best, s.best_fitness);
        EXPECT_EQ(ens.best_fitness, best);
        ASSERT_LT(ens.best_island, ens.islands.size());
        EXPECT_EQ(ens.islands[ens.best_island].best_fitness, best);
        EXPECT_EQ(ens.best_candidate, ens.islands[ens.best_island].best_candidate);
        for (unsigned i = 0; i < ens.best_island; ++i)
            EXPECT_LT(ens.islands[i].best_fitness, best) << "island " << i;
        EXPECT_EQ(fitness::fitness_u16(cfg.fn, ens.best_candidate), ens.best_fitness);
        // run() rebuilds every island, so a repeat call is bit-identical.
        EXPECT_EQ(sys.run(), ens);
        for (unsigned i = 0; i < cfg.islands; ++i) {
            IslandConfig solo = cfg;
            solo.islands = 1;
            solo.seeds = {sys.seeds()[i]};
            const IslandResult one = IslandSystem(solo).run();
            EXPECT_EQ(ens.islands[i].best_fitness, one.islands[0].best_fitness) << "island " << i;
            EXPECT_EQ(ens.islands[i].best_candidate, one.islands[0].best_candidate)
                << "island " << i;
            EXPECT_EQ(ens.islands[i].best_trajectory, one.islands[0].best_trajectory)
                << "island " << i;
            // Elitist budget: pop initial evaluations + (pop - 1) per generation.
            EXPECT_EQ(ens.islands[i].evaluations, 16u + 15u * 16u) << "island " << i;
        }
    }
    // Islands with one seed tie on every register: the reduction credits island 0.
    IslandConfig twins;
    twins.base.pop_size = 16;
    twins.base.n_gens = 16;
    twins.islands = 3;
    twins.seeds = {0xB342, 0xB342, 0xB342};
    twins.backend = BackendKind::kRtl;
    EXPECT_EQ(IslandSystem(twins).run().best_island, 0u);
}

// ------------------------------------------------------------ bus readback

// The RT-level MigrationRegisterBus must latch the RAW handshake values —
// the clamp lives at the point of use, not in the register file.
TEST(MigrationRegisters, BusLatchesRawHandshakeValues) {
    IslandConfig cfg;
    cfg.base.pop_size = 16;
    cfg.base.n_gens = 8;
    cfg.base.seed = 0x2961;
    cfg.islands = 2;
    cfg.migration.interval = 4;
    cfg.migration.count = 9;  // raw 9, clamps to 8 (= pop/2) at use
    cfg.migration.policy = ReplacePolicy::kRandom;
    cfg.backend = BackendKind::kRtl;
    IslandSystem sys(cfg);
    const IslandResult r = sys.run();
    EXPECT_EQ(r.bus_interval_reg, 4u);
    EXPECT_EQ(r.bus_count_reg, pack_count_policy(cfg.migration));
    EXPECT_EQ(r.bus_count_reg & 0xFF, 9u);
    EXPECT_NE(r.bus_count_reg & 0x100, 0);
    EXPECT_EQ(r.effective.count, 8u);
    EXPECT_EQ(r.effective.policy, ReplacePolicy::kRandom);
}

// --------------------------------------------------- plan_migration() spec

std::vector<std::vector<Member>> two_pops() {
    // Island 0: fitness 40,10,30,20  island 1: fitness 5,50,15,25
    return {{{100, 40}, {101, 10}, {102, 30}, {103, 20}},
            {{200, 5}, {201, 50}, {202, 15}, {203, 25}}};
}

TEST(MigrationPlanSpec, RingSelectsTopEmigrantsAndWorstVictims) {
    auto pops = two_pops();
    MigrationConfig eff;
    eff.interval = 1;
    eff.count = 2;
    core::RngState rng(eff.mig_seed);
    const MigrationPlan plan = plan_migration(pops, Topology::kRing, eff, rng, 7);
    // Canonical order: destination ascending, rank ascending. Island 0
    // imports island 1's best two (201/50, 203/25); its own worst two are
    // slots 1 (fit 10) and 3 (fit 20).
    ASSERT_EQ(plan.records.size(), 4u);
    EXPECT_EQ(plan.records[0].gen, 7u);
    EXPECT_EQ(plan.records[0].from, 1);
    EXPECT_EQ(plan.records[0].to, 0);
    EXPECT_EQ(plan.records[0].src_slot, 1);
    EXPECT_EQ(plan.records[0].member, (Member{201, 50}));
    EXPECT_EQ(plan.records[0].dst_slot, 1);
    EXPECT_EQ(plan.records[0].victim, (Member{101, 10}));
    EXPECT_EQ(plan.records[1].member, (Member{203, 25}));
    EXPECT_EQ(plan.records[1].dst_slot, 3);
    // Island 1 imports island 0's best two (100/40, 102/30) over its worst
    // two (slot 0 fit 5, slot 2 fit 15).
    EXPECT_EQ(plan.records[2].to, 1);
    EXPECT_EQ(plan.records[2].member, (Member{100, 40}));
    EXPECT_EQ(plan.records[2].dst_slot, 0);
    EXPECT_EQ(plan.records[3].member, (Member{102, 30}));
    EXPECT_EQ(plan.records[3].dst_slot, 2);
}

TEST(MigrationPlanSpec, ExchangeNeverCascades) {
    // Simultaneous exchange: island 1's import of island 0's best must use
    // island 0's PRE-migration members even though island 0 imports first
    // in canonical order.
    auto pops = two_pops();
    MigrationConfig eff;
    eff.count = 2;
    core::RngState rng(eff.mig_seed);
    const MigrationPlan plan = plan_migration(pops, Topology::kRing, eff, rng, 1);
    apply_plan(plan, pops);
    EXPECT_EQ(pops[0][1], (Member{201, 50}));
    EXPECT_EQ(pops[0][3], (Member{203, 25}));
    EXPECT_EQ(pops[1][0], (Member{100, 40}));  // not 201 — no cascade
    EXPECT_EQ(pops[1][2], (Member{102, 30}));
}

TEST(MigrationPlanSpec, WorstVictimTiesSpareSlotZeroLongest) {
    // All fitness equal: worst-replaced breaks ties slot-DESCENDING so the
    // elite copy in slot 0 is overwritten last.
    std::vector<std::vector<Member>> pops = {{{1, 9}, {2, 9}, {3, 9}, {4, 9}},
                                             {{5, 9}, {6, 9}, {7, 9}, {8, 9}}};
    MigrationConfig eff;
    eff.count = 2;
    core::RngState rng(eff.mig_seed);
    const MigrationPlan plan = plan_migration(pops, Topology::kRing, eff, rng, 1);
    ASSERT_EQ(plan.records.size(), 4u);
    EXPECT_EQ(plan.records[0].dst_slot, 3);  // highest slots first
    EXPECT_EQ(plan.records[1].dst_slot, 2);
    // Emigrant ties break slot-ASCENDING.
    EXPECT_EQ(plan.records[0].src_slot, 0);
    EXPECT_EQ(plan.records[1].src_slot, 1);
}

TEST(MigrationPlanSpec, StarHubPoolsAndBroadcasts) {
    // Hub = island 0. Spokes 1 and 2 send their top-1; the hub imports the
    // best of the pooled candidates, and every spoke receives the hub's
    // PRE-import best.
    std::vector<std::vector<Member>> pops = {{{10, 60}, {11, 8}},   // hub: best 10/60
                                             {{20, 30}, {21, 4}},   // spoke 1: best 20/30
                                             {{30, 30}, {31, 90}}};  // spoke 2: best 31/90
    MigrationConfig eff;
    eff.count = 1;
    core::RngState rng(eff.mig_seed);
    const MigrationPlan plan = plan_migration(pops, Topology::kStar, eff, rng, 3);
    ASSERT_EQ(plan.records.size(), 3u);
    // Hub import: best of {20/30 from 1, 31/90 from 2} is 31/90.
    EXPECT_EQ(plan.records[0].to, 0);
    EXPECT_EQ(plan.records[0].from, 2);
    EXPECT_EQ(plan.records[0].member, (Member{31, 90}));
    // Broadcast: every spoke gets the hub's pre-import best (10/60).
    EXPECT_EQ(plan.records[1].to, 1);
    EXPECT_EQ(plan.records[1].from, 0);
    EXPECT_EQ(plan.records[1].member, (Member{10, 60}));
    EXPECT_EQ(plan.records[2].to, 2);
    EXPECT_EQ(plan.records[2].member, (Member{10, 60}));
}

TEST(MigrationPlanSpec, StarPoolTiesBreakSourceThenSlot) {
    // Pooled candidates with equal fitness: source island ascending, then
    // slot ascending.
    std::vector<std::vector<Member>> pops = {{{10, 1}, {11, 1}},
                                             {{20, 70}, {21, 2}},
                                             {{30, 70}, {31, 2}}};
    MigrationConfig eff;
    eff.count = 1;
    core::RngState rng(eff.mig_seed);
    const MigrationPlan plan = plan_migration(pops, Topology::kStar, eff, rng, 1);
    EXPECT_EQ(plan.records[0].from, 1);  // island 1 beats island 2 on the tie
    EXPECT_EQ(plan.records[0].member, (Member{20, 70}));
}

TEST(MigrationPlanSpec, RandomPolicyDrawsDistinctVictims) {
    auto pops = two_pops();
    MigrationConfig eff;
    eff.count = 2;
    eff.policy = ReplacePolicy::kRandom;
    core::RngState rng(eff.mig_seed);
    const MigrationPlan plan = plan_migration(pops, Topology::kRing, eff, rng, 1);
    ASSERT_EQ(plan.records.size(), 4u);
    EXPECT_NE(plan.records[0].dst_slot, plan.records[1].dst_slot);
    EXPECT_NE(plan.records[2].dst_slot, plan.records[3].dst_slot);
    // The draws advanced the interconnect RNG stream.
    EXPECT_NE(rng.state(), core::RngState(eff.mig_seed).state());
}

TEST(MigrationPlanSpec, DegenerateInputs) {
    MigrationConfig eff;
    eff.count = 1;
    core::RngState rng(eff.mig_seed);
    std::vector<std::vector<Member>> one = {{{1, 2}, {3, 4}}};
    EXPECT_TRUE(plan_migration(one, Topology::kRing, eff, rng, 1).records.empty());
    eff.count = 0;
    auto pops = two_pops();
    EXPECT_TRUE(plan_migration(pops, Topology::kRing, eff, rng, 1).records.empty());
    eff.count = 1;
    std::vector<std::vector<Member>> ragged = {{{1, 2}, {3, 4}}, {{5, 6}}};
    EXPECT_THROW(plan_migration(ragged, Topology::kRing, eff, rng, 1), std::invalid_argument);
    std::vector<std::vector<Member>> empty_pop = {{}, {}};
    EXPECT_THROW(plan_migration(empty_pop, Topology::kRing, eff, rng, 1), std::invalid_argument);
}

TEST(MigrationPlanSpec, BoundariesAreInteriorMultiples) {
    MigrationConfig eff;
    eff.interval = 8;
    eff.count = 2;
    EXPECT_EQ(migration_boundaries(eff, 4, 24), (std::vector<std::uint32_t>{8, 16}));
    EXPECT_EQ(migration_boundaries(eff, 4, 25), (std::vector<std::uint32_t>{8, 16, 24}));
    EXPECT_TRUE(migration_boundaries(eff, 1, 24).empty());  // one island: off
    eff.interval = 0;
    EXPECT_TRUE(migration_boundaries(eff, 4, 24).empty());
    eff.interval = 8;
    eff.count = 0;
    EXPECT_TRUE(migration_boundaries(eff, 4, 24).empty());
}

}  // namespace
}  // namespace gaip::island
