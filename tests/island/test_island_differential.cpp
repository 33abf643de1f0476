// Differential island test harness — the tentpole property of the N-core
// island system: the SAME island job run on the behavioral engines, the
// RT-level GaSystem array, and the gate-level SIMD lane block must be
// byte-identical — per-island best-fitness trajectories, final bests,
// evaluation counts, AND every individual migration payload (gen, source,
// destination, slots, member, victim). The matrix spans
//
//   islands      N in {1, 2, 4, 8}
//   topology     ring, star
//   interval     off (0), 8, 32
//   gate widths  W in {1, 2, 4, 8} 64-lane words
//   gate engine  interpreter vs native-codegen JIT (skipped w/o compiler)
//   threads      1, 2, 4 (RT-level and behavioral segment workers)
//
// plus both replacement policies. Any divergence in RNG consumption order,
// barrier placement, bank observation point, or poke semantics trips the
// comparison at the first differing generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gates/compiled.hpp"
#include "gates/jit.hpp"
#include "island/island.hpp"
#include "supervisor/supervisor.hpp"
#include "trace/event.hpp"

namespace gaip::island {
namespace {

using core::Substrate;

IslandConfig base_cfg(unsigned islands, Topology topo, std::uint16_t interval) {
    IslandConfig cfg;
    cfg.base.pop_size = 16;
    cfg.base.n_gens = 24;
    cfg.base.seed = 0x2961;
    cfg.islands = islands;
    cfg.topology = topo;
    cfg.migration.interval = interval;
    cfg.migration.count = 2;
    return cfg;
}

std::string label(const IslandConfig& cfg) {
    return std::string("N=") + std::to_string(cfg.islands) + " " +
           topology_name(cfg.topology) + " interval=" + std::to_string(cfg.migration.interval) +
           " policy=" + policy_name(cfg.migration.policy);
}

/// Full byte-for-byte comparison of two substrates' results. Cycle-level
/// accounting (run/stall/makespan) is substrate-specific and deliberately
/// excluded here — the GA-visible outcome is what must match.
void expect_identical(const IslandResult& a, const IslandResult& b, const std::string& what) {
    EXPECT_EQ(a.best_fitness, b.best_fitness) << what;
    EXPECT_EQ(a.best_candidate, b.best_candidate) << what;
    EXPECT_EQ(a.best_island, b.best_island) << what;
    EXPECT_EQ(a.effective, b.effective) << what;
    EXPECT_EQ(a.boundaries, b.boundaries) << what;
    ASSERT_EQ(a.migrations.size(), b.migrations.size()) << what;
    for (std::size_t m = 0; m < a.migrations.size(); ++m)
        EXPECT_EQ(a.migrations[m], b.migrations[m]) << what << " migration #" << m;
    ASSERT_EQ(a.islands.size(), b.islands.size()) << what;
    for (std::size_t i = 0; i < a.islands.size(); ++i) {
        const IslandStats& x = a.islands[i];
        const IslandStats& y = b.islands[i];
        EXPECT_EQ(x.seed, y.seed) << what << " island " << i;
        EXPECT_EQ(x.best_fitness, y.best_fitness) << what << " island " << i;
        EXPECT_EQ(x.best_candidate, y.best_candidate) << what << " island " << i;
        EXPECT_EQ(x.generations, y.generations) << what << " island " << i;
        EXPECT_EQ(x.evaluations, y.evaluations) << what << " island " << i;
        ASSERT_EQ(x.best_trajectory.size(), y.best_trajectory.size()) << what << " island " << i;
        for (std::size_t g = 0; g < x.best_trajectory.size(); ++g)
            EXPECT_EQ(x.best_trajectory[g], y.best_trajectory[g])
                << what << " island " << i << " gen " << g;
    }
}

IslandResult run_on(IslandConfig cfg, Substrate backend) {
    cfg.backend = backend;
    return IslandSystem(cfg).run();
}

// The core matrix: N x topology x interval, behavioral vs RTL vs gate-lane
// (interpreter engine pinned so this test is compiler-independent).
TEST(IslandDifferential, ThreeSubstratesBitIdenticalAcrossMatrix) {
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        for (Topology topo : {Topology::kRing, Topology::kStar}) {
            for (std::uint16_t interval : {std::uint16_t{0}, std::uint16_t{8}, std::uint16_t{32}}) {
                if (interval == 0 && topo == Topology::kStar) continue;  // off == off
                IslandConfig cfg = base_cfg(n, topo, interval);
                cfg.gate_backend = gates::Backend::kInterp;
                const IslandResult beh = run_on(cfg, Substrate::kBehavioral);
                const IslandResult rtl = run_on(cfg, Substrate::kRtl);
                const IslandResult gate = run_on(cfg, Substrate::kGates);
                expect_identical(beh, rtl, label(cfg) + " [behavioral vs RTL]");
                expect_identical(beh, gate, label(cfg) + " [behavioral vs gate]");
                // Migration actually happened where it should: interval 8
                // over 24 generations has boundaries {8, 16}; each carries
                // count emigrants per destination island.
                if (interval == 8 && n >= 2) {
                    ASSERT_EQ(beh.boundaries.size(), 2u) << label(cfg);
                    EXPECT_EQ(beh.migrations.size(), 2u * n * beh.effective.count) << label(cfg);
                } else if (interval == 0 || n < 2) {
                    EXPECT_TRUE(beh.migrations.empty()) << label(cfg);
                }
            }
        }
    }
}

// Random-replacement draws come from the interconnect's own CA RNG stream,
// which every substrate must consume in the same order.
TEST(IslandDifferential, RandomReplacementPolicyBitIdentical) {
    for (Topology topo : {Topology::kRing, Topology::kStar}) {
        IslandConfig cfg = base_cfg(4, topo, 8);
        cfg.migration.policy = ReplacePolicy::kRandom;
        cfg.gate_backend = gates::Backend::kInterp;
        const IslandResult beh = run_on(cfg, Substrate::kBehavioral);
        const IslandResult rtl = run_on(cfg, Substrate::kRtl);
        const IslandResult gate = run_on(cfg, Substrate::kGates);
        expect_identical(beh, rtl, label(cfg) + " [behavioral vs RTL]");
        expect_identical(beh, gate, label(cfg) + " [behavioral vs gate]");
        EXPECT_FALSE(beh.migrations.empty()) << label(cfg);
    }
}

// Lane-block width is a packing choice, never a semantic one: W in
// {1,2,4,8} words must deliver the identical result (8 islands fit in one
// 64-lane word, so wider blocks exercise pure padding lanes too).
TEST(IslandDifferential, GateLaneWidthsBitIdentical) {
    IslandConfig cfg = base_cfg(8, Topology::kRing, 8);
    cfg.gate_backend = gates::Backend::kInterp;
    const IslandResult ref = run_on(cfg, Substrate::kBehavioral);
    for (unsigned words : {1u, 2u, 4u, 8u}) {
        IslandConfig wcfg = cfg;
        wcfg.words = words;
        const IslandResult gate = run_on(wcfg, Substrate::kGates);
        expect_identical(ref, gate, label(cfg) + " [W=" + std::to_string(words) + "]");
    }
}

// Interpreter vs native-codegen JIT engine on the same lane block.
TEST(IslandDifferential, GateLaneJitMatchesInterpreter) {
    if (!gates::jit::available()) GTEST_SKIP() << "no host compiler for the JIT backend";
    for (Topology topo : {Topology::kRing, Topology::kStar}) {
        IslandConfig cfg = base_cfg(4, topo, 8);
        cfg.gate_backend = gates::Backend::kInterp;
        const IslandResult interp = run_on(cfg, Substrate::kGates);
        cfg.gate_backend = gates::Backend::kJitForce;
        const IslandResult jit = run_on(cfg, Substrate::kGates);
        expect_identical(interp, jit, label(cfg) + " [interp vs JIT]");
        // The JIT runs the same netlist clock-for-clock, so even the
        // cycle accounting must agree between the two engines.
        EXPECT_EQ(interp.makespan_cycles, jit.makespan_cycles) << label(cfg);
        for (std::size_t i = 0; i < interp.islands.size(); ++i) {
            EXPECT_EQ(interp.islands[i].run_cycles, jit.islands[i].run_cycles) << "island " << i;
            EXPECT_EQ(interp.islands[i].stall_cycles, jit.islands[i].stall_cycles)
                << "island " << i;
        }
    }
}

// Barrier-to-barrier segments are data-independent across islands, so the
// worker count must never change a bit — including the cycle accounting.
TEST(IslandDifferential, ThreadCountInvariant) {
    for (Substrate backend : {Substrate::kBehavioral, Substrate::kRtl}) {
        IslandConfig cfg = base_cfg(4, Topology::kRing, 8);
        cfg.threads = 1;
        const IslandResult ref = run_on(cfg, backend);
        for (unsigned threads : {2u, 4u}) {
            IslandConfig tcfg = cfg;
            tcfg.threads = threads;
            const IslandResult r = run_on(tcfg, backend);
            expect_identical(ref, r, label(cfg) + " threads=" + std::to_string(threads));
            EXPECT_EQ(ref.makespan_cycles, r.makespan_cycles);
            for (std::size_t i = 0; i < ref.islands.size(); ++i) {
                EXPECT_EQ(ref.islands[i].run_cycles, r.islands[i].run_cycles);
                EXPECT_EQ(ref.islands[i].stall_cycles, r.islands[i].stall_cycles);
            }
        }
    }
}

// The trace stream is part of the interconnect's contract: one
// island_barrier per boundary, one island_migrate per record (payload
// fields matching the result's canonical migration list), one island_done
// per island — identical event payloads on every substrate.
TEST(IslandDifferential, TraceEventsMirrorMigrationRecords) {
    for (Substrate backend :
         {Substrate::kBehavioral, Substrate::kRtl, Substrate::kGates}) {
        trace::MemorySink sink;
        IslandConfig cfg = base_cfg(4, Topology::kRing, 8);
        cfg.gate_backend = gates::Backend::kInterp;
        cfg.backend = backend;
        cfg.sink = &sink;
        const IslandResult r = IslandSystem(cfg).run();
        std::vector<const trace::TraceEvent*> barriers, migrates, dones;
        for (const trace::TraceEvent& e : sink.events()) {
            if (e.kind == trace::kind::kIslandBarrier) barriers.push_back(&e);
            if (e.kind == trace::kind::kIslandMigrate) migrates.push_back(&e);
            if (e.kind == trace::kind::kIslandDone) dones.push_back(&e);
        }
        ASSERT_EQ(barriers.size(), r.boundaries.size());
        for (std::size_t b = 0; b < barriers.size(); ++b)
            EXPECT_EQ(barriers[b]->u64("gen"), r.boundaries[b]);
        ASSERT_EQ(migrates.size(), r.migrations.size());
        for (std::size_t m = 0; m < migrates.size(); ++m) {
            const MigrationRecord& rec = r.migrations[m];
            EXPECT_EQ(migrates[m]->u64("gen"), rec.gen);
            EXPECT_EQ(migrates[m]->u64("from"), rec.from);
            EXPECT_EQ(migrates[m]->u64("to"), rec.to);
            EXPECT_EQ(migrates[m]->u64("src_slot"), rec.src_slot);
            EXPECT_EQ(migrates[m]->u64("dst_slot"), rec.dst_slot);
            EXPECT_EQ(migrates[m]->u64("candidate"), rec.member.candidate);
            EXPECT_EQ(migrates[m]->u64("fitness"), rec.member.fitness);
        }
        EXPECT_EQ(dones.size(), cfg.islands);
    }
}

// Both timed substrates model real N-core timing: islands stall at
// barriers (faster cores wait for the slowest) and the makespan covers the
// whole run including stalls. The absolute cycle counts are a property of
// each substrate's clock model (the gate lane block and the RT-level
// simulator pace the FEM handshake differently), so the invariants — not
// cross-substrate equality — are what this test pins.
TEST(IslandDifferential, CycleAccountingIsInternallyConsistent) {
    for (Substrate backend : {Substrate::kRtl, Substrate::kGates}) {
        IslandConfig cfg = base_cfg(4, Topology::kRing, 8);
        cfg.gate_backend = gates::Backend::kInterp;
        const IslandResult r = run_on(cfg, backend);
        std::uint64_t max_total = 0;
        bool any_stall = false;
        for (const IslandStats& s : r.islands) {
            EXPECT_GT(s.run_cycles, 0u);
            any_stall |= s.stall_cycles > 0;
            if (s.run_cycles + s.stall_cycles > max_total)
                max_total = s.run_cycles + s.stall_cycles;
        }
        EXPECT_EQ(r.makespan_cycles, max_total);
        // Islands run different workloads, so at a synchronous barrier at
        // least one of them must have waited.
        EXPECT_TRUE(any_stall);
        // The behavioral substrate is untimed by contract.
        const IslandResult beh = run_on(cfg, Substrate::kBehavioral);
        EXPECT_EQ(beh.makespan_cycles, 0u);
    }
}

}  // namespace
}  // namespace gaip::island
