// MissionSupervisor tests: the recovery ladder end to end (watchdog trips,
// backoff retries, checkpointed rollback, in-place restart, PRESET
// fallback, structured abort), N-modular redundancy with replica
// replacement, and the acceptance sweep converting a stratified SEU sample
// into correct recovered results or structured aborts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ga_core.hpp"
#include "fault/seu_injector.hpp"
#include "rtl/scan.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"

namespace gaip::supervisor {
namespace {

using core::GaCore;
using core::Substrate;
using fault::FaultSite;

core::GaParameters small_params() {
    return {.pop_size = 8, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
            .seed = 0x2961};
}

/// One shared injector: golden RT-level reference for small_params() plus
/// the classification machinery the acceptance sweep reuses.
const fault::SeuInjector& shared_injector() {
    static const fault::SeuInjector inj{[] {
        fault::InjectorConfig c;
        c.fn = fitness::FitnessId::kMBf6_2;
        c.params = small_params();
        return c;
    }()};
    return inj;
}

SupervisorConfig base_config() {
    SupervisorConfig cfg;
    cfg.fn = fitness::FitnessId::kMBf6_2;
    cfg.params = small_params();
    // Tight budget (4 x the known-good cycle count) keeps tripped attempts
    // cheap; the formula default would arm a ~400k-cycle watchdog.
    cfg.expected_cycles = shared_injector().golden().ga_cycles;
    return cfg;
}

/// Hook that plants one SEU (poke backend: ScanChain::flip between two
/// edges) into one attempt of one replica, at the first scan-safe cycle >=
/// site.cycle — the SEU injector's convention.
CycleHook flip_hook(FaultSite site, bool& fired, unsigned replica = 0,
                    unsigned attempt = 0) {
    return [site, &fired, replica, attempt](system::GaSystem& sys, const AttemptInfo& info,
                                            std::uint64_t cycle) {
        if (fired || info.in_init || info.replica != replica || info.attempt != attempt)
            return;
        if (cycle >= site.cycle && fault::scan_safe_state(sys.core().state())) {
            rtl::ScanChain& chain = sys.core().scan_chain();
            chain.flip(chain.position_of(site.reg, site.bit));
            sys.core().input_changed();
            fired = true;
        }
    };
}

TEST(MissionSupervisor, ConfigValidation) {
    SupervisorConfig cfg = base_config();
    cfg.watchdog_factor = 1;
    EXPECT_THROW(MissionSupervisor{cfg}, std::invalid_argument);
    cfg = base_config();
    cfg.ladder.fallback_preset = 4;
    EXPECT_THROW(MissionSupervisor{cfg}, std::invalid_argument);
    cfg = base_config();
    cfg.ladder.backoff_factor = 0.5;
    EXPECT_THROW(MissionSupervisor{cfg}, std::invalid_argument);
    cfg = base_config();
    cfg.nmr = 0;
    EXPECT_THROW(MissionSupervisor{cfg}, std::invalid_argument);
    cfg = base_config();
    cfg.nmr = 3;
    cfg.replica_seeds = {1, 2};  // wrong size
    EXPECT_THROW(MissionSupervisor{cfg}, std::invalid_argument);
    cfg = base_config();
    cfg.nmr = 2;
    cfg.replica_backends = {Substrate::kRtl};  // wrong size
    EXPECT_THROW(MissionSupervisor{cfg}, std::invalid_argument);
}

TEST(MissionSupervisor, PrimaryBudgetMatchesWatchdogConvention) {
    const SupervisorConfig cfg = base_config();
    MissionSupervisor sup(cfg);
    EXPECT_EQ(sup.primary_budget(),
              fault::watchdog_budget(cfg.expected_cycles, cfg.watchdog_factor));
}

TEST(MissionSupervisor, CleanRunAllBackendsBitExact) {
    const fault::GoldenRun& golden = shared_injector().golden();
    for (const Substrate b :
         {Substrate::kRtl, Substrate::kBehavioral, Substrate::kGates}) {
        SupervisorConfig cfg = base_config();
        cfg.backend = b;
        const SupervisorReport rep = MissionSupervisor(cfg).run();
        ASSERT_EQ(rep.status, Status::kOk) << core::substrate_name(b);
        EXPECT_EQ(rep.final_rung, Rung::kPrimary) << core::substrate_name(b);
        EXPECT_EQ(rep.best_fitness, golden.best_fitness) << core::substrate_name(b);
        EXPECT_EQ(rep.best_candidate, golden.best_candidate) << core::substrate_name(b);
        EXPECT_EQ(rep.generations, golden.generations) << core::substrate_name(b);
        EXPECT_EQ(rep.watchdog_trips, 0u);
        EXPECT_TRUE(rep.abort_reason.empty());
        ASSERT_EQ(rep.attempts.size(), 1u);
        EXPECT_EQ(rep.attempts[0].outcome, AttemptOutcome::kFinished);
    }
}

// A state-bit-2 upset during kIpRn parks the FSM in kIdle: the watchdog
// trips and the first from-scratch retry reproduces the golden run.
TEST(MissionSupervisor, IdleTripRetriesToGolden) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    bool fired = false;
    cfg.hook = flip_hook({"state", 2, 10}, fired);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.final_rung, Rung::kRetry);
    EXPECT_EQ(rep.watchdog_trips, 1u);
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].outcome, AttemptOutcome::kWatchdogIdle);
    EXPECT_EQ(rep.attempts[0].final_state, static_cast<std::uint8_t>(GaCore::State::kIdle));
    EXPECT_EQ(rep.attempts[1].outcome, AttemptOutcome::kFinished);
    EXPECT_FALSE(rep.attempts[1].resumed);
    // Backoff: the retry ran with a grown budget.
    EXPECT_GT(rep.attempts[1].budget, rep.attempts[0].budget);
}

// With retries disabled, the same kIdle trip is recovered IN PLACE by
// AppModule::request_restart() — start_GA re-pulsed, no reset — after the
// supervisor verified the programmed parameters survived.
TEST(MissionSupervisor, RestartRungRecoversInPlace) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    cfg.ladder.max_retries = 0;
    bool fired = false;
    cfg.hook = flip_hook({"state", 2, 10}, fired);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.final_rung, Rung::kRestart);
    EXPECT_EQ(rep.retries, 0u);
    EXPECT_EQ(rep.restarts, 1u);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[1].rung, Rung::kRestart);
    EXPECT_EQ(rep.attempts[1].outcome, AttemptOutcome::kFinished);
}

// A state-bit-5 upset lands in an undefined FSM encoding (valid states stop
// at kDone = 25): the controller wedges, the watchdog trips, and the retry
// resumes from the last generation checkpoint instead of from scratch —
// and still reproduces the unfaulted golden result bit-exactly.
TEST(MissionSupervisor, CheckpointedRetryReproducesGolden) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    cfg.ladder.checkpoint_every = 2;
    cfg.ladder.max_retries = 3;
    bool fired = false;
    const std::uint64_t late = golden.ga_cycles * 6 / 10;
    cfg.hook = flip_hook({"state", 5, late}, fired);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.final_rung, Rung::kRetry);
    EXPECT_EQ(rep.watchdog_trips, 1u);
    EXPECT_GE(rep.checkpoints, 2u);
    EXPECT_EQ(rep.rollbacks, 1u);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    EXPECT_EQ(rep.generations, golden.generations);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].outcome, AttemptOutcome::kWatchdogWedged);
    EXPECT_TRUE(rep.attempts[1].resumed);
    EXPECT_GT(rep.attempts[1].resumed_gen, 0u);
    // The resumed run is shorter than a from-scratch run: rollback paid off.
    EXPECT_LT(rep.attempts[1].cycles, golden.ga_cycles);
}

// An eff_pop bit-4 upset (8 -> 24) lands before the first generation
// boundary, so every snapshot the run could take would capture the
// corrupted job. The capture guard must refuse them all: the retry then
// restarts from scratch and reproduces the golden result. Without the
// guard, the retry resumes the poisoned pop-24 job, finishes it, and
// delivers its (wrong) answer as kOk — the silent-corruption escape this
// test pins shut.
TEST(MissionSupervisor, PoisonedCheckpointNeverDeliversWrongJob) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    cfg.ladder.max_retries = 1;
    cfg.ladder.checkpoint_every = 2;
    bool fired = false;
    cfg.hook = flip_hook({"eff_pop", 4, 10}, fired);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    // No boundary of the corrupted primary was checkpoint-worthy, so the
    // successful retry ran from scratch, not from a snapshot. (The report's
    // checkpoint counter still moves — the clean retry snapshots its own
    // boundaries as it goes.)
    EXPECT_EQ(rep.rollbacks, 0u);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_FALSE(rep.attempts[1].resumed);
    EXPECT_EQ(rep.attempts[1].outcome, AttemptOutcome::kFinished);
}

// A hook that freezes the core via the scan-test pin during the init
// handshake produces kInitTimeout; the retry (fresh system, pin released)
// completes the job.
TEST(MissionSupervisor, InitTimeoutRetries) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    cfg.hook = [](system::GaSystem& sys, const AttemptInfo& info, std::uint64_t) {
        if (info.in_init && info.attempt == 0) sys.wires().test.drive(true);
    };
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_EQ(rep.final_rung, Rung::kRetry);
    ASSERT_EQ(rep.attempts.size(), 2u);
    EXPECT_EQ(rep.attempts[0].outcome, AttemptOutcome::kInitTimeout);
    EXPECT_EQ(rep.attempts[1].outcome, AttemptOutcome::kFinished);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
}

// Ladder exhausted with no idle system (the trip wedged the FSM) and no
// retries: the PRESET fallback delivers the Table IV job, verified
// bit-exactly against the behavioral preset baseline.
TEST(MissionSupervisor, WedgedTripFallsBackToPresetBaseline) {
    SupervisorConfig cfg = base_config();
    cfg.ladder.max_retries = 0;
    cfg.ladder.fallback_preset = 1;
    bool fired = false;
    cfg.hook = flip_hook({"state", 5, 400}, fired);
    MissionSupervisor sup(cfg);
    const fault::GoldenRun& baseline = sup.preset_baseline();
    const SupervisorReport rep = sup.run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOkDegraded);
    EXPECT_EQ(rep.final_rung, Rung::kPresetFallback);
    EXPECT_EQ(rep.fallbacks, 1u);
    EXPECT_EQ(rep.best_fitness, baseline.best_fitness);
    EXPECT_EQ(rep.best_candidate, baseline.best_candidate);
    EXPECT_EQ(rep.generations, baseline.generations);
    // Independently cross-check against the SEU injector's preset baseline.
    EXPECT_EQ(baseline.best_fitness, shared_injector().preset_baseline().best_fitness);
    EXPECT_EQ(baseline.best_candidate, shared_injector().preset_baseline().best_candidate);
}

TEST(MissionSupervisor, NoFallbackMeansStructuredAbort) {
    SupervisorConfig cfg = base_config();
    cfg.ladder.max_retries = 0;
    cfg.ladder.fallback_preset = 0;
    bool fired = false;
    cfg.hook = flip_hook({"state", 5, 400}, fired);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kAborted);
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.final_rung, Rung::kAbort);
    EXPECT_NE(rep.abort_reason.find("ladder exhausted"), std::string::npos);
}

// NMR of 3: one replica delivers a silently wrong answer (a best_fit upset
// that finishes within budget — invisible to the watchdog); the majority
// vote masks it bit-exactly and the dissenting replica is replaced.
TEST(MissionSupervisor, NmrOfThreeMasksSingleFaultedReplica) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    cfg.nmr = 3;
    bool fired = false;
    cfg.hook = flip_hook({"best_fit", 14, 200}, fired, /*replica=*/0);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_TRUE(rep.voted);
    EXPECT_EQ(rep.replicas_replaced, 1u);
    EXPECT_EQ(rep.vote_agree, 3u);  // the replacement rejoined the majority
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
    ASSERT_EQ(rep.verdicts.size(), 3u);
    EXPECT_TRUE(rep.verdicts[0].replaced);
    EXPECT_TRUE(rep.verdicts[0].in_majority);
    EXPECT_FALSE(rep.verdicts[1].replaced);
    EXPECT_FALSE(rep.verdicts[2].replaced);
    // The faulted primary really finished wrong (not tripped): that is the
    // failure mode only NMR catches.
    EXPECT_EQ(rep.attempts[0].outcome, AttemptOutcome::kFinished);
    EXPECT_NE(rep.attempts[0].best_fitness, golden.best_fitness);
}

// Mixed substrates: one replica each on RTL, behavioral, and the compiled
// gate lane. Bit-exact cross-substrate equivalence makes the vote
// unanimous.
TEST(MissionSupervisor, NmrMixedBackendsVoteUnanimously) {
    const fault::GoldenRun& golden = shared_injector().golden();
    SupervisorConfig cfg = base_config();
    cfg.nmr = 3;
    cfg.replica_backends = {Substrate::kRtl, Substrate::kBehavioral,
                            Substrate::kGates};
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    ASSERT_EQ(rep.status, Status::kOk);
    EXPECT_TRUE(rep.voted);
    EXPECT_EQ(rep.vote_agree, 3u);
    EXPECT_EQ(rep.replicas_replaced, 0u);
    EXPECT_EQ(rep.best_fitness, golden.best_fitness);
    EXPECT_EQ(rep.best_candidate, golden.best_candidate);
}

// Three replicas each corrupted differently: three distinct answers, no
// majority — the supervisor aborts with a structured reason instead of
// picking one.
TEST(MissionSupervisor, NmrWithoutMajorityAborts) {
    SupervisorConfig cfg = base_config();
    cfg.nmr = 3;
    std::array<bool, 3> fired{};
    cfg.hook = [&fired](system::GaSystem& sys, const AttemptInfo& info, std::uint64_t cycle) {
        if (info.in_init || info.attempt != 0 || fired[info.replica]) return;
        if (cycle >= 200 && fault::scan_safe_state(sys.core().state())) {
            rtl::ScanChain& chain = sys.core().scan_chain();
            chain.flip(chain.position_of("best_fit", 13 + info.replica));
            sys.core().input_changed();
            fired[info.replica] = true;
        }
    };
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    EXPECT_TRUE(fired[0] && fired[1] && fired[2]);
    ASSERT_EQ(rep.status, Status::kAborted);
    EXPECT_NE(rep.abort_reason.find("no NMR majority"), std::string::npos);
    for (const ReplicaVerdict& v : rep.verdicts) EXPECT_FALSE(v.in_majority);
}

// Every supervisor decision leaves a structured trace event.
TEST(MissionSupervisor, DecisionsEmitTraceEvents) {
    SupervisorConfig cfg = base_config();
    cfg.ladder.checkpoint_every = 2;
    cfg.ladder.max_retries = 3;
    trace::MemorySink sink;
    cfg.sink = &sink;
    bool fired = false;
    cfg.hook = flip_hook({"state", 5, shared_injector().golden().ga_cycles * 6 / 10}, fired);
    const SupervisorReport rep = MissionSupervisor(cfg).run();
    ASSERT_EQ(rep.status, Status::kOk);
    auto count = [&sink](const char* kind) {
        std::size_t n = 0;
        for (const trace::TraceEvent& e : sink.events())
            if (e.kind == kind) ++n;
        return n;
    };
    EXPECT_EQ(count(trace::kind::kWatchdogTrip), rep.watchdog_trips);
    EXPECT_EQ(count(trace::kind::kSupRetry), rep.retries);
    EXPECT_EQ(count(trace::kind::kSupRollback), rep.rollbacks);
    EXPECT_EQ(count(trace::kind::kSupCheckpoint), rep.checkpoints);
    ASSERT_EQ(count(trace::kind::kSupResult), 1u);
    const trace::TraceEvent& result = sink.events().back();
    EXPECT_EQ(result.kind, trace::kind::kSupResult);
    EXPECT_EQ(result.u64("best_fit"), rep.best_fitness);
    EXPECT_EQ(result.u64("retries"), rep.retries);
}

// Acceptance sweep: a stratified sample of SEU sites (low/high bit of every
// scan-chain register, one early and one late cycle). Every site the
// injector classifies as kRecovered or kHang must be CONVERTED by the
// supervised run: a retried/restarted result equal to the golden run, a
// degraded result equal to the preset baseline, or a structured abort —
// never a silent wrong answer, never an unclassified crash.
TEST(MissionSupervisor, StratifiedSeuSampleIsConverted) {
    const fault::SeuInjector& inj = shared_injector();
    const fault::GoldenRun& golden = inj.golden();

    std::vector<FaultSite> sample;
    for (const auto& [reg, width] : inj.layout()) {
        for (const unsigned bit : {0u, width - 1}) {
            sample.push_back({reg, bit, 10});
            sample.push_back({reg, bit, golden.ga_cycles * 6 / 10});
            if (bit == width - 1) break;  // 1-bit registers: one site each
        }
    }

    unsigned disruptive = 0, converted_ok = 0, converted_degraded = 0, aborted = 0;
    for (const FaultSite& site : sample) {
        const fault::FaultRecord probe = inj.run_rtl(site, fault::InjectBackend::kPoke);
        if (probe.outcome != fault::FaultOutcome::kRecovered &&
            probe.outcome != fault::FaultOutcome::kHang)
            continue;
        ++disruptive;

        SupervisorConfig cfg = base_config();
        cfg.ladder.max_retries = 1;
        cfg.ladder.fallback_preset = 1;
        bool fired = false;
        cfg.hook = flip_hook(site, fired);
        const SupervisorReport rep = MissionSupervisor(cfg).run();
        ASSERT_TRUE(fired) << site.reg << ":" << site.bit << "@" << site.cycle;

        switch (rep.status) {
            case Status::kOk:
                EXPECT_EQ(rep.best_fitness, golden.best_fitness)
                    << site.reg << ":" << site.bit << "@" << site.cycle;
                EXPECT_EQ(rep.best_candidate, golden.best_candidate)
                    << site.reg << ":" << site.bit << "@" << site.cycle;
                ++converted_ok;
                break;
            case Status::kOkDegraded:
                EXPECT_EQ(rep.best_fitness, inj.preset_baseline().best_fitness);
                EXPECT_EQ(rep.best_candidate, inj.preset_baseline().best_candidate);
                ++converted_degraded;
                break;
            case Status::kAborted:
                EXPECT_FALSE(rep.abort_reason.empty());
                ++aborted;
                break;
        }
    }
    // The sample must actually exercise the ladder (state upsets alone
    // guarantee several kRecovered/kHang sites), and the retry rung must
    // have delivered the requested job for at least some of them.
    EXPECT_GE(disruptive, 3u);
    EXPECT_GE(converted_ok, 1u);
    SUCCEED() << disruptive << " disruptive sites: " << converted_ok << " ok, "
              << converted_degraded << " degraded, " << aborted << " aborted";
}

}  // namespace
}  // namespace gaip::supervisor
