// SeuInjector unit tests: fault-site addressing across the whole 405-bit
// scan chain, the classification taxonomy, backend equivalence (scan-chain
// read-modify-write through the pins vs the register-poke backdoor), and
// the PRESET fallback recovery path (through the supervisor's fallback
// rung).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/behavioral.hpp"
#include "core/ga_core.hpp"
#include "fault/seu_injector.hpp"
#include "gates/compiled.hpp"
#include "gates/rng_gates.hpp"
#include "prng/rng_module.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"

namespace gaip::fault {
namespace {

using core::GaCore;

InjectorConfig small_config() {
    InjectorConfig cfg;
    cfg.params = {.pop_size = 8, .n_gens = 4, .xover_threshold = 12, .mut_threshold = 1,
                  .seed = 0x2961};
    return cfg;
}

TEST(FaultModel, ClassifyTaxonomy) {
    GoldenRun golden{.best_fitness = 100, .best_candidate = 7, .generations = 4, .ga_cycles = 50};
    const auto idle = static_cast<std::uint8_t>(GaCore::State::kIdle);
    const auto sel = static_cast<std::uint8_t>(GaCore::State::kSelCheck);
    const auto done = static_cast<std::uint8_t>(GaCore::State::kDone);

    EXPECT_EQ(classify(true, 100, 7, done, golden), FaultOutcome::kMasked);
    EXPECT_EQ(classify(true, 99, 7, done, golden), FaultOutcome::kWrongAnswer);
    EXPECT_EQ(classify(true, 100, 8, done, golden), FaultOutcome::kWrongAnswer);
    EXPECT_EQ(classify(false, 0, 0, sel, golden), FaultOutcome::kHang);
    EXPECT_EQ(classify(false, 0, 0, idle, golden), FaultOutcome::kRecovered);
}

TEST(FaultModel, WatchdogBudgetFormulaAndOverflowGuard) {
    EXPECT_EQ(watchdog_budget(0, 4), 64u);
    EXPECT_EQ(watchdog_budget(1000, 4), 4064u);
    // Largest products that still fit, with and without the +64 slack.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(watchdog_budget(kMax - 64, 1), kMax);
    EXPECT_THROW(watchdog_budget(kMax - 63, 1), std::overflow_error);
    // A wrapped product would arm an absurdly SHORT watchdog — must throw.
    EXPECT_THROW(watchdog_budget(kMax / 2, 4), std::overflow_error);
    EXPECT_THROW(watchdog_budget(kMax, kMax), std::overflow_error);
    // The message names the offending values (descriptive, not just a type).
    try {
        watchdog_budget(kMax, 4);
        FAIL() << "expected std::overflow_error";
    } catch (const std::overflow_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("watchdog"), std::string::npos);
    }
}

TEST(FaultModel, ScanSafeStatesAreTheRngWaits) {
    unsigned safe = 0;
    for (unsigned s = 0; s < 64; ++s)
        if (scan_safe_state(static_cast<std::uint8_t>(s))) ++safe;
    EXPECT_EQ(safe, 5u);
    EXPECT_TRUE(scan_safe_state(GaCore::State::kIpRn));
    EXPECT_TRUE(scan_safe_state(GaCore::State::kSelRn));
    EXPECT_TRUE(scan_safe_state(GaCore::State::kXoRn));
    EXPECT_TRUE(scan_safe_state(GaCore::State::kMu1Rn));
    EXPECT_TRUE(scan_safe_state(GaCore::State::kMu2Rn));
    EXPECT_FALSE(scan_safe_state(GaCore::State::kEvalReq));
    EXPECT_FALSE(scan_safe_state(GaCore::State::kIdle));
}

TEST(FaultModel, AggregateByRegisterCountsPerOutcome) {
    std::vector<FaultRecord> recs;
    FaultRecord r;
    r.site = {"a", 0, 0};
    r.outcome = FaultOutcome::kMasked;
    recs.push_back(r);
    r.site = {"a", 3, 0};
    r.outcome = FaultOutcome::kWrongAnswer;
    recs.push_back(r);
    r.site = {"b", 1, 5};
    r.outcome = FaultOutcome::kHang;
    recs.push_back(r);

    const auto vuln = aggregate_by_register(recs);
    ASSERT_EQ(vuln.size(), 2u);
    EXPECT_EQ(vuln[0].reg, "a");
    EXPECT_EQ(vuln[0].width, 4u);
    EXPECT_EQ(vuln[0].injections, 2u);
    EXPECT_EQ(vuln[0].masked, 1u);
    EXPECT_EQ(vuln[0].wrong, 1u);
    EXPECT_DOUBLE_EQ(vuln[0].vulnerability(), 0.5);
    EXPECT_EQ(vuln[1].reg, "b");
    EXPECT_EQ(vuln[1].hang, 1u);
    EXPECT_DOUBLE_EQ(vuln[1].vulnerability(), 1.0);
}

TEST(SeuInjector, LayoutCoversTheFullScanChain) {
    SeuInjector inj(small_config());
    unsigned total = 0;
    for (const auto& [reg, width] : inj.layout()) {
        EXPECT_GT(width, 0u) << reg;
        total += width;
    }
    EXPECT_EQ(total, inj.chain_length());
    EXPECT_EQ(inj.chain_length(), 405u);
    EXPECT_EQ(inj.layout().size(), 33u);
    EXPECT_EQ(inj.layout().front().first, "state");
}

TEST(SeuInjector, GoldenRunIsDeterministic) {
    SeuInjector a(small_config());
    SeuInjector b(small_config());
    EXPECT_EQ(a.golden().best_fitness, b.golden().best_fitness);
    EXPECT_EQ(a.golden().best_candidate, b.golden().best_candidate);
    EXPECT_EQ(a.golden().ga_cycles, b.golden().ga_cycles);
    EXPECT_GT(a.golden().ga_cycles, 0u);
}

TEST(SeuInjector, ScanAndPokeBackendsAreCycleExactEquivalent) {
    SeuInjector inj(small_config());
    // A spread of registers/bits/cycles across the fault space; the scan
    // rotation (405 frozen test-mode cycles) must not perturb anything the
    // poke backend doesn't do.
    const FaultSite sites[] = {
        {"best_fit", 15, 0},
        {"pop_idx", 0, 10},
        {"eff_ngens", 1, 100},
        {"parent1", 7, inj.golden().ga_cycles / 2},
        {"state", 1, 0},
        {"gen_id", 0, 25},
    };
    for (const FaultSite& s : sites) {
        const FaultRecord scan = inj.run_rtl(s, InjectBackend::kScan);
        const FaultRecord poke = inj.run_rtl(s, InjectBackend::kPoke);
        EXPECT_EQ(scan.outcome, poke.outcome) << s.reg << "[" << s.bit << "]@" << s.cycle;
        EXPECT_EQ(scan.inject_cycle, poke.inject_cycle) << s.reg;
        EXPECT_EQ(scan.finished, poke.finished) << s.reg;
        EXPECT_EQ(scan.best_fitness, poke.best_fitness) << s.reg;
        EXPECT_EQ(scan.best_candidate, poke.best_candidate) << s.reg;
        EXPECT_EQ(scan.ga_cycles, poke.ga_cycles) << s.reg;
        EXPECT_EQ(scan.final_state, poke.final_state) << s.reg;
    }
}

TEST(SeuInjector, StateBitFlipToIdleIsRecoveredViaPresetFallback) {
    // Known deterministic recovered site: the first scan-safe cycle is the
    // initial kIpRn (state 4 = 0b000100); flipping state bit 2 lands in
    // kIdle (0), where only a fresh start_GA edge restarts the core — the
    // watchdog trips with the FSM parked in kIdle => kRecovered.
    SeuInjector inj(small_config());
    const FaultSite site{"state", 2, 0};
    const FaultRecord rec = inj.run_rtl(site, InjectBackend::kPoke);
    EXPECT_EQ(rec.outcome, FaultOutcome::kRecovered);
    EXPECT_FALSE(rec.finished);
    EXPECT_EQ(rec.final_state, static_cast<std::uint8_t>(GaCore::State::kIdle));

    // The supervisor's fallback rung must actually recover it: with the
    // ladder cut to that rung and the injector's watchdog budget, PRESET
    // pins + re-pulsed start_GA (no reset) land on the preset mode's exact
    // result.
    supervisor::SupervisorConfig cfg;
    cfg.fn = inj.config().fn;
    cfg.params = inj.config().params;
    cfg.watchdog_factor = inj.config().watchdog_factor;
    cfg.expected_cycles = inj.golden().ga_cycles;
    cfg.ladder.max_retries = 0;
    cfg.ladder.restart_recovery = false;
    cfg.ladder.fallback_preset = inj.config().fallback_preset;
    bool fired = false;
    cfg.hook = supervisor::flip_hook(site, fired);
    const supervisor::SupervisorReport rep = supervisor::MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(rep.status, supervisor::Status::kOkDegraded);
    EXPECT_EQ(rep.final_rung, supervisor::Rung::kPresetFallback);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].outcome, supervisor::AttemptOutcome::kWatchdogIdle);
    EXPECT_EQ(rep.best_fitness, inj.preset_baseline().best_fitness);
    EXPECT_EQ(rep.best_candidate, inj.preset_baseline().best_candidate);
}

TEST(SeuInjector, LaneMaskBackendIsRejectedForRtlRuns) {
    SeuInjector inj(small_config());
    EXPECT_THROW(inj.run_rtl({"state", 0, 0}, InjectBackend::kLaneMask), std::invalid_argument);
}

TEST(SeuInjector, RejectsBadConfig) {
    InjectorConfig cfg = small_config();
    cfg.watchdog_factor = 1;
    EXPECT_THROW(SeuInjector{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.fallback_preset = 0;
    EXPECT_THROW(SeuInjector{cfg}, std::invalid_argument);
}

TEST(PresetBaseline, ConcurrentCallersGetTheDirectPresetRun) {
    // 8 threads fill the process-wide (fitness, preset) table at once, each
    // walking the 8 x 3 slots from a different start. Every answer must
    // equal a direct behavioral run of the Table IV preset, evaluated with
    // the closed-form fitness rather than the ROM the table uses.
    constexpr unsigned kThreads = 8;
    constexpr std::size_t kSlots = fitness::kNumFitnessIds * 3;
    const auto slot_fn = [](std::size_t s) { return static_cast<fitness::FitnessId>(s / 3); };
    const auto slot_preset = [](std::size_t s) { return static_cast<std::uint8_t>(s % 3 + 1); };
    std::vector<std::vector<GoldenRun>> got(kThreads, std::vector<GoldenRun>(kSlots));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t k = 0; k < kSlots; ++k) {
                const std::size_t s = (k + 3 * t) % kSlots;
                got[t][s] = preset_baseline(slot_fn(s), slot_preset(s));
            }
        });
    }
    for (std::thread& th : pool) th.join();

    for (std::size_t s = 0; s < kSlots; ++s) {
        const fitness::FitnessId fn = slot_fn(s);
        const std::uint8_t preset = slot_preset(s);
        core::GaParameters p = core::preset_parameters(preset);
        p.seed = prng::kPresetSeeds[preset - 1];
        const core::RunResult direct = core::run_behavioral_ga(
            p, [fn](std::uint16_t x) { return fitness::fitness_u16(fn, x); },
            prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
        for (unsigned t = 0; t < kThreads; ++t) {
            const GoldenRun& g = got[t][s];
            EXPECT_EQ(g.best_fitness, direct.best_fitness) << fitness::fitness_name(fn) << " preset "
                                                           << unsigned{preset} << " thread " << t;
            EXPECT_EQ(g.best_candidate, direct.best_candidate) << fitness::fitness_name(fn);
            EXPECT_EQ(g.generations, p.n_gens);
            EXPECT_EQ(g.ga_cycles, 0u);
        }
    }
}

TEST(PresetBaseline, RejectsModeZero) {
    EXPECT_THROW(preset_baseline(fitness::FitnessId::kOneMax, 0), std::invalid_argument);
    EXPECT_THROW(preset_baseline(fitness::FitnessId::kOneMax, 4), std::invalid_argument);
}

TEST(CompiledNetlist, XorRegisterLanesFlipsOnlyMaskedLanes) {
    // The SEU injection hook: XOR a per-lane mask into one register bit's
    // state word, leaving every other lane of the word untouched.
    auto src = gates::build_rng_netlist();
    gates::CompiledNetlist nl(src->nl);
    const auto qs = src->nl.register_q_nets();
    ASSERT_FALSE(qs.empty());
    const gates::Net q = qs.front();

    const std::uint64_t before = nl.lanes(q);
    nl.xor_register_lanes(q, 0b1010);
    EXPECT_EQ(nl.lanes(q), before ^ 0b1010u);
    nl.xor_register_lanes(q, 0b1010);
    EXPECT_EQ(nl.lanes(q), before);

    // Non-register nets (inputs, gate outputs) are not valid SEU targets.
    EXPECT_THROW(nl.xor_register_lanes(src->reset, 1), std::invalid_argument);
}

}  // namespace
}  // namespace gaip::fault
