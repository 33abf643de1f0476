// FaultCampaign tests: fault-space enumeration, the batched 64-lane gate
// backend (with its built-in golden-lane determinism check), and agreement
// between the gate lane-mask backend and both RT-level backends on a
// strided sample of the real fault space.
#include <gtest/gtest.h>

#include <set>

#include "core/ga_core.hpp"
#include "fault/campaign.hpp"
#include "gates/jit.hpp"

namespace gaip::fault {
namespace {

CampaignConfig small_config() {
    CampaignConfig cfg;
    cfg.params = {.pop_size = 8, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
                  .seed = 0x2961};
    cfg.cycle_points = 5;
    return cfg;
}

TEST(FaultCampaign, EnumerationCoversChainTimesGrid) {
    CampaignConfig cfg = small_config();
    FaultCampaign campaign(cfg);
    const std::vector<FaultSite> sites = campaign.enumerate_sites();
    EXPECT_EQ(sites.size(), 405u * cfg.cycle_points);

    std::set<std::pair<std::string, unsigned>> seen;
    for (const FaultSite& s : sites) {
        seen.insert({s.reg, s.bit});
        EXPECT_LT(s.cycle, campaign.golden().ga_cycles);
    }
    EXPECT_EQ(seen.size(), 405u) << "every flip-flop must appear";
}

TEST(FaultCampaign, StrideAndCapSubsample) {
    CampaignConfig cfg = small_config();
    cfg.stride = 7;
    FaultCampaign strided(cfg);
    const auto sites = strided.enumerate_sites();
    EXPECT_EQ(sites.size(), (405u * cfg.cycle_points + 6) / 7);

    cfg.max_sites = 11;
    FaultCampaign capped(cfg);
    EXPECT_EQ(capped.enumerate_sites().size(), 11u);
}

TEST(FaultCampaign, RejectsBadConfig) {
    CampaignConfig cfg = small_config();
    cfg.cycle_points = 0;
    EXPECT_THROW(FaultCampaign{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.cycle_span = 1.0;
    EXPECT_THROW(FaultCampaign{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.stride = 0;
    EXPECT_THROW(FaultCampaign{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.lane_words = 3;  // only power-of-two block widths exist
    EXPECT_THROW(FaultCampaign{cfg}, std::invalid_argument);
    cfg.lane_words = 16;
    EXPECT_THROW(FaultCampaign{cfg}, std::invalid_argument);
}

TEST(FaultCampaign, UnknownGateSiteIsAnArgumentError) {
    // Sites are resolved before the batch runs, so an unknown register or
    // bit is rejected as such even when its cycle lies past the golden
    // run's end.
    FaultCampaign campaign(small_config());
    const std::uint64_t late = campaign.golden().ga_cycles * 4;
    EXPECT_THROW(campaign.run_gate({FaultSite{"no_such_reg", 0, late}}), std::invalid_argument);
    EXPECT_THROW(campaign.run_gate({FaultSite{"no_such_reg", 0, 0}}), std::invalid_argument);
    EXPECT_THROW(campaign.run_gate({FaultSite{"scan_reads", 999, late}}), std::invalid_argument);
}

TEST(FaultCampaign, GateBackendAgreesWithBothRtlBackends) {
    // A strided slice of the real fault space through the gate backend,
    // then every record replayed on the RT-level scan and poke backends.
    // The batch's internal golden-lane check already guarantees lane 0
    // reproduced the RT-level golden run bit- and cycle-exactly.
    CampaignConfig cfg = small_config();
    cfg.stride = 97;  // ~21 sites across all registers / grid points
    FaultCampaign campaign(cfg);
    const std::vector<FaultSite> sites = campaign.enumerate_sites();
    ASSERT_GE(sites.size(), 15u);

    const CampaignResult res = campaign.run_gate(sites);
    ASSERT_EQ(res.records.size(), sites.size());
    EXPECT_EQ(res.masked + res.wrong + res.hang + res.recovered, res.records.size());
    EXPECT_GT(res.batches, 0u);
    EXPECT_GT(res.gate_cycles, 0u);

    for (const FaultRecord& gate : res.records) {
        const FaultRecord scan = campaign.run_rtl(gate.site, InjectBackend::kScan);
        const FaultRecord poke = campaign.run_rtl(gate.site, InjectBackend::kPoke);
        const std::string where =
            gate.site.reg + "[" + std::to_string(gate.site.bit) + "]@" +
            std::to_string(gate.site.cycle);
        EXPECT_EQ(gate.outcome, scan.outcome) << where;
        EXPECT_EQ(gate.outcome, poke.outcome) << where;
        EXPECT_EQ(gate.inject_cycle, poke.inject_cycle) << where;
        EXPECT_EQ(gate.best_fitness, poke.best_fitness) << where;
        EXPECT_EQ(gate.best_candidate, poke.best_candidate) << where;
        EXPECT_EQ(gate.ga_cycles, poke.ga_cycles) << where;
    }
}

TEST(FaultCampaign, MaskedFaultsExistAndMatchGolden) {
    // Low-order bits of dead registers late in the run are reliably masked:
    // the record must then carry the golden result exactly.
    CampaignConfig cfg = small_config();
    FaultCampaign campaign(cfg);
    const FaultSite site{"scan_reads", 8, 0};
    const CampaignResult res = campaign.run_gate({site});
    ASSERT_EQ(res.records.size(), 1u);
    const FaultRecord& rec = res.records[0];
    if (rec.outcome == FaultOutcome::kMasked) {
        EXPECT_EQ(rec.best_fitness, campaign.golden().best_fitness);
        EXPECT_EQ(rec.best_candidate, campaign.golden().best_candidate);
    }
}

TEST(FaultCampaign, ProgressCallbackReportsMonotonically) {
    CampaignConfig cfg = small_config();
    cfg.max_sites = 70;  // forces two batches (63 + 7)
    FaultCampaign campaign(cfg);
    const auto sites = campaign.enumerate_sites();
    ASSERT_EQ(sites.size(), 70u);

    std::vector<std::size_t> done;
    campaign.run_gate(sites, [&](std::size_t d, std::size_t total) {
        EXPECT_EQ(total, 70u);
        done.push_back(d);
    });
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 63u);
    EXPECT_EQ(done[1], 70u);
}

TEST(FaultCampaign, WideBlocksAndThreadsReproduceDefaultRecords) {
    // The campaign's record stream (site order, inject cycles, outcomes,
    // per-record results) and aggregate counters must be bit-identical at
    // every lane-block width and thread count: batches are independent
    // simulations and lane position within a batch is semantically inert.
    CampaignConfig cfg = small_config();
    cfg.max_sites = 150;  // > 2 single-word batches, spans word boundaries
    FaultCampaign baseline(cfg);
    const auto sites = baseline.enumerate_sites();
    ASSERT_EQ(sites.size(), 150u);
    const CampaignResult ref = baseline.run_gate(sites);
    ASSERT_EQ(ref.records.size(), sites.size());

    struct Variant {
        unsigned words;
        unsigned threads;
    };
    for (const Variant v : {Variant{8, 1}, Variant{2, 2}, Variant{1, 0}}) {
        SCOPED_TRACE("lane_words=" + std::to_string(v.words) +
                     " threads=" + std::to_string(v.threads));
        CampaignConfig wide = cfg;
        wide.lane_words = v.words;
        wide.threads = v.threads;
        FaultCampaign campaign(wide);
        std::size_t last_done = 0;
        const CampaignResult res =
            campaign.run_gate(sites, [&](std::size_t d, std::size_t total) {
                EXPECT_EQ(total, sites.size());
                EXPECT_GT(d, last_done) << "progress must be monotone";
                last_done = d;
            });
        EXPECT_EQ(last_done, sites.size());
        EXPECT_EQ(res.masked, ref.masked);
        EXPECT_EQ(res.wrong, ref.wrong);
        EXPECT_EQ(res.hang, ref.hang);
        EXPECT_EQ(res.recovered, ref.recovered);
        EXPECT_EQ(res.gate_cycles > 0, true);
        ASSERT_EQ(res.records.size(), ref.records.size());
        for (std::size_t i = 0; i < ref.records.size(); ++i) {
            const FaultRecord& a = ref.records[i];
            const FaultRecord& b = res.records[i];
            ASSERT_EQ(a.site.reg, b.site.reg);
            ASSERT_EQ(a.site.bit, b.site.bit);
            ASSERT_EQ(a.site.cycle, b.site.cycle);
            EXPECT_EQ(a.inject_cycle, b.inject_cycle);
            EXPECT_EQ(a.outcome, b.outcome);
            EXPECT_EQ(a.finished, b.finished);
            EXPECT_EQ(a.best_fitness, b.best_fitness);
            EXPECT_EQ(a.best_candidate, b.best_candidate);
            EXPECT_EQ(a.ga_cycles, b.ga_cycles);
            EXPECT_EQ(a.final_state, b.final_state);
        }
    }
}

TEST(FaultCampaign, JitBackendReproducesInterpRecords) {
    // The native-codegen backend must be a pure engine swap: the record
    // stream (inject cycles, outcomes, per-record results) and the
    // aggregate taxonomy are bit-identical to the interpreter at every
    // width/thread combination, including threaded runs where concurrent
    // workers block on one shared artifact compile (jit.cpp registry).
    if (!gates::jit::available())
        GTEST_SKIP() << "no host compiler for the JIT backend";
    CampaignConfig cfg = small_config();
    cfg.max_sites = 150;
    cfg.backend = gates::Backend::kInterp;
    FaultCampaign baseline(cfg);
    const auto sites = baseline.enumerate_sites();
    const CampaignResult ref = baseline.run_gate(sites);
    ASSERT_EQ(ref.records.size(), sites.size());

    struct Variant {
        unsigned words;
        unsigned threads;
    };
    for (const Variant v : {Variant{1, 1}, Variant{4, 2}, Variant{8, 0}}) {
        SCOPED_TRACE("jit lane_words=" + std::to_string(v.words) +
                     " threads=" + std::to_string(v.threads));
        CampaignConfig jcfg = cfg;
        jcfg.lane_words = v.words;
        jcfg.threads = v.threads;
        jcfg.backend = gates::Backend::kJitForce;  // fallback would hide a break
        FaultCampaign campaign(jcfg);
        const CampaignResult res = campaign.run_gate(sites);
        EXPECT_EQ(res.masked, ref.masked);
        EXPECT_EQ(res.wrong, ref.wrong);
        EXPECT_EQ(res.hang, ref.hang);
        EXPECT_EQ(res.recovered, ref.recovered);
        ASSERT_EQ(res.records.size(), ref.records.size());
        for (std::size_t i = 0; i < ref.records.size(); ++i) {
            const FaultRecord& a = ref.records[i];
            const FaultRecord& b = res.records[i];
            ASSERT_EQ(a.site.reg, b.site.reg);
            ASSERT_EQ(a.site.bit, b.site.bit);
            ASSERT_EQ(a.site.cycle, b.site.cycle);
            EXPECT_EQ(a.inject_cycle, b.inject_cycle);
            EXPECT_EQ(a.outcome, b.outcome);
            EXPECT_EQ(a.finished, b.finished);
            EXPECT_EQ(a.best_fitness, b.best_fitness);
            EXPECT_EQ(a.best_candidate, b.best_candidate);
            EXPECT_EQ(a.ga_cycles, b.ga_cycles);
            EXPECT_EQ(a.final_state, b.final_state);
        }
    }
}

}  // namespace
}  // namespace gaip::fault
