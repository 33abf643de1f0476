// Mission supervisor: runs one GA job end to end with production-grade
// fault handling — the software half of the paper's fault-tolerance story
// (Sec. III-C: scan-chain testability + Table IV PRESET modes). Where
// fault/seu_injector.hpp *studies* upsets one at a time, the supervisor
// *survives* them: it arms a cycle-budget watchdog around the run and, on a
// missed budget or a failed init handshake, walks a recovery ladder:
//
//   kPrimary          the supervised attempt itself;
//   kRetry            bounded re-runs on a fresh system, cycle budget grown
//                     by an exponential backoff factor per attempt — and,
//                     when generation checkpoints are armed, resumed from
//                     the last good checkpoint instead of from scratch;
//   kRestart          the hung-run recovery of AppModule::request_restart():
//                     a watchdog trip that parked the FSM in kIdle is
//                     restartable in place (start_GA re-pulsed, no reset) —
//                     taken only after verifying the programmed parameter
//                     registers and the RNG seed register survived intact,
//                     so the rerun provably reproduces the requested job;
//   kPresetFallback   Table IV pins + start_GA, no reset: the run completes
//                     with the built-in preset parameters, independent of
//                     all (possibly corrupted) programmed state. The result
//                     is verified against the exact behavioral preset
//                     baseline — a mismatch aborts instead of delivering a
//                     silently wrong answer;
//   kAbort            structured failure: the report says what was tried
//                     and why each rung failed.
//
// Optionally the job runs as N-modular redundancy: `nmr` replicas (same
// parameters; independent seeds or mixed simulation substrates on request)
// each walk the ladder, the supervisor majority-votes on the delivered
// (best fitness, best candidate) pair (nmr_vote, which the supervised
// island ensemble shares), and any dissenting or aborted replica is re-run
// (replaced) after the vote. Because the behavioral, RT-level and
// gate-level substrates are bit-exact for the same seed, mixed-backend
// replicas vote meaningfully.
//
// The supervisor is resumable with the shape of GaSystem and IslandSystem
// (start / step / done / finish; run() is those calls). Every rung on
// every substrate goes through one attempt loop: the rung prepares an
// engine — a fresh or checkpoint-restored GaSystem, the tripped system
// kept idle for the restart and in-place fallback rungs, a fresh preset
// system, a BehavioralEngine or a one-lane BatchGateRunner — and step()
// advances it one generation under the attempt's cycle budget until it
// finishes or trips. The RT-level and gate-lane steps are the same call,
// run_to(generation + 1, budget left), on GaSystem and BatchGateRunner.
// gaipd cancels a supervised job between two steps. flip_hook() is the
// one SEU-injecting hook (GaSystem::flip_register_bit) the tools, benches
// and tests plant into an attempt.
//
// Every decision is emitted as a trace::TraceEvent (kinds sup_* and
// watchdog_trip in trace/event.hpp), so `gaip-trace` tooling records and
// diffs supervised runs like any other telemetry stream. The
// tools/gaip-supervise CLI wraps this class.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/behavioral.hpp"
#include "core/params.hpp"
#include "core/substrate.hpp"
#include "fault/fault_model.hpp"
#include "fitness/functions.hpp"
#include "trace/event.hpp"

namespace gaip::system {
class GaSystem;
}

namespace gaip::supervisor {

/// Old name of core::Substrate, kept while perfbench/ still spells it; the
/// benchmark change of ROADMAP item 7 deletes it.
using BackendKind = core::Substrate;

/// Rungs of the recovery ladder, in escalation order.
enum class Rung : std::uint8_t { kPrimary = 0, kRetry, kRestart, kPresetFallback, kAbort };

inline const char* rung_name(Rung r) noexcept {
    switch (r) {
        case Rung::kPrimary: return "primary";
        case Rung::kRetry: return "retry";
        case Rung::kRestart: return "restart";
        case Rung::kPresetFallback: return "preset-fallback";
        case Rung::kAbort: return "abort";
    }
    return "?";
}

/// How one supervised attempt ended.
enum class AttemptOutcome : std::uint8_t {
    kFinished = 0,      ///< GA_done within the cycle budget
    kInitTimeout,       ///< init handshake never started the optimizer
    kWatchdogIdle,      ///< budget missed, FSM settled in kIdle (restartable)
    kWatchdogWedged,    ///< budget missed, FSM wedged outside kIdle
    kCorrupted,         ///< finished, but the effective parameters no longer
                        ///< match the requested job (poisoned resume state) —
                        ///< the result is discarded, never delivered
};

inline const char* attempt_outcome_name(AttemptOutcome o) noexcept {
    switch (o) {
        case AttemptOutcome::kFinished: return "finished";
        case AttemptOutcome::kInitTimeout: return "init-timeout";
        case AttemptOutcome::kWatchdogIdle: return "watchdog-idle";
        case AttemptOutcome::kWatchdogWedged: return "watchdog-wedged";
        case AttemptOutcome::kCorrupted: return "corrupted";
    }
    return "?";
}

/// Final verdict of a supervised job.
enum class Status : std::uint8_t {
    kOk = 0,       ///< requested job delivered (primary, retry, or restart)
    kOkDegraded,   ///< PRESET fallback delivered the Table IV job instead
    kAborted,      ///< ladder exhausted; see SupervisorReport::abort_reason
};

inline const char* status_name(Status s) noexcept {
    switch (s) {
        case Status::kOk: return "ok";
        case Status::kOkDegraded: return "ok-degraded";
        case Status::kAborted: return "aborted";
    }
    return "?";
}

/// Context handed to the per-cycle hook (fault-injection surface for tests
/// and campaigns; only RT-level attempts invoke it).
struct AttemptInfo {
    unsigned replica = 0;   ///< NMR replica index (0 when nmr == 1)
    unsigned attempt = 0;   ///< per-replica attempt counter (0 = primary)
    Rung rung = Rung::kPrimary;
    bool in_init = false;   ///< true while the init handshake is running
    bool resumed = false;   ///< attempt resumed from a checkpoint
    std::uint32_t resumed_gen = 0;  ///< generation resumed from (when resumed)
};

/// Called after every GA cycle of an RT-level attempt (init cycles included,
/// with in_init = true and the cycle counting the handshake cycles; run
/// cycles count from the kStart cycle like the SEU injector's numbering).
/// The hook may poke the system (flip scan bits, drive pins) — exactly what
/// the fault-injection tests do to exercise the ladder.
using CycleHook =
    std::function<void(system::GaSystem&, const AttemptInfo&, std::uint64_t cycle)>;

/// Hook that plants one SEU (GaSystem::flip_register_bit) into attempt
/// `attempt` of replica `replica`, at the first scan-safe run cycle >=
/// site.cycle — the SEU injector's convention — and sets `fired`
/// (borrowed) once it has.
CycleHook flip_hook(fault::FaultSite site, bool& fired, unsigned replica = 0,
                    unsigned attempt = 0);

/// Recovery-ladder policy.
struct LadderConfig {
    /// Retry attempts after the primary (fresh system each time).
    unsigned max_retries = 2;
    /// Cycle-budget growth per retry: attempt k runs with
    /// budget x backoff_factor^k (saturating).
    double backoff_factor = 2.0;
    /// Derive a fresh deterministic seed per retry (ignored for retries that
    /// resume from a checkpoint — the checkpointed RNG state carries over).
    bool reseed_on_retry = false;
    /// Attempt AppModule::request_restart() in place after the retries, when
    /// a watchdog trip parked the FSM in kIdle with intact parameters.
    bool restart_recovery = true;
    /// Table IV preset the final fallback rung runs (1..3; 0 disables it).
    std::uint8_t fallback_preset = 1;
    /// Snapshot the scan chain + memory banks every N generations (0 = no
    /// checkpoints; retries then always restart from scratch).
    std::uint32_t checkpoint_every = 0;
};

/// One generation-boundary snapshot: everything needed to resume the
/// optimizer mid-run on a fresh system. Captured at the kGenCheck entry
/// edge, where no memory access or handshake is in flight.
struct Checkpoint {
    std::uint32_t generation = 0;
    std::uint64_t cycle = 0;                 ///< run cycle of the capture
    std::vector<bool> core_bits;             ///< 405-bit scan-chain snapshot
    std::vector<std::uint64_t> rng_bits;     ///< RNG registers, attach order
    std::vector<std::uint32_t> memory;       ///< 256 x 32 GA memory words
    std::uint64_t memory_dout = 0;           ///< BRAM synchronous-read register
};

/// Snapshot a running RT-level system (scan chain, RNG registers, both GA
/// memory banks, BRAM output register). Public so the island ensemble can
/// checkpoint each member system at its migration boundaries with the same
/// audited capture the supervisor ladder uses.
Checkpoint capture_checkpoint(system::GaSystem& sys, std::uint64_t cycle);

/// Load a checkpoint into a system that has completed its init handshake
/// and whose start pulse has fallen (so the RNG's seed-reload edge is in
/// the past). Every touched module gets input_changed() so the
/// event-driven scheduler re-settles its Moore outputs before the next
/// edge. Throws std::logic_error if the RNG register census changed.
void restore_checkpoint(system::GaSystem& sys, const Checkpoint& cp);

/// One supervised attempt, as recorded in the report.
struct AttemptRecord {
    unsigned replica = 0;
    unsigned attempt = 0;
    Rung rung = Rung::kPrimary;
    core::Substrate backend = core::Substrate::kRtl;
    AttemptOutcome outcome = AttemptOutcome::kFinished;
    bool resumed = false;
    std::uint32_t resumed_gen = 0;
    std::uint16_t seed = 0;          ///< seed the attempt ran with
    std::uint64_t budget = 0;        ///< armed cycle budget
    std::uint64_t cycles = 0;        ///< cycles actually consumed
    std::uint8_t final_state = 0;    ///< FSM state at the trip (when not finished)
    std::uint16_t best_fitness = 0;  ///< delivered result (when finished)
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;

    friend bool operator==(const AttemptRecord&, const AttemptRecord&) = default;
};

/// Per-replica verdict of an NMR vote.
struct ReplicaVerdict {
    unsigned replica = 0;
    core::Substrate backend = core::Substrate::kRtl;
    Status status = Status::kAborted;
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    bool in_majority = false;
    bool replaced = false;  ///< re-run after dissenting from the vote

    friend bool operator==(const ReplicaVerdict&, const ReplicaVerdict&) = default;
};

/// Structured outcome of a supervised job.
struct SupervisorReport {
    Status status = Status::kAborted;
    Rung final_rung = Rung::kAbort;   ///< rung that delivered (or kAbort)
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t total_cycles = 0;   ///< GA cycles across every attempt

    unsigned watchdog_trips = 0;
    unsigned retries = 0;
    unsigned restarts = 0;
    unsigned rollbacks = 0;           ///< retries resumed from a checkpoint
    unsigned checkpoints = 0;         ///< snapshots taken
    unsigned fallbacks = 0;

    bool voted = false;               ///< NMR vote happened
    unsigned vote_agree = 0;          ///< replicas agreeing with the majority
    unsigned replicas_replaced = 0;
    std::vector<ReplicaVerdict> verdicts;

    std::vector<AttemptRecord> attempts;
    std::string abort_reason;         ///< set when status == kAborted

    bool ok() const noexcept { return status != Status::kAborted; }

    friend bool operator==(const SupervisorReport&, const SupervisorReport&) = default;
};

struct SupervisorConfig {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    core::GaParameters params{};
    core::Substrate backend = core::Substrate::kRtl;

    /// Watchdog = factor x expected cycles (same convention as the SEU
    /// injector; fault::watchdog_budget adds the slack and overflow-checks).
    unsigned watchdog_factor = 4;
    /// Expected fault-free GA cycle count. 0 selects core::cycle_bound(),
    /// the formula estimate every cycle bound of the repo derives from.
    std::uint64_t expected_cycles = 0;

    LadderConfig ladder{};

    /// N-modular redundancy: replicas of the job voted on majority.
    /// 1 = plain supervised run. Use an odd count for a meaningful vote.
    unsigned nmr = 1;
    /// Optional per-replica seed override (size nmr). Empty = every replica
    /// runs params.seed, so agreement is bit-exact by construction.
    std::vector<std::uint16_t> replica_seeds;
    /// Optional per-replica substrate (size nmr). Empty = `backend` for all.
    std::vector<core::Substrate> replica_backends;

    /// Telemetry sink for the sup_* decision events (borrowed; may be null).
    trace::TraceSink* sink = nullptr;
    /// Per-cycle hook on RT-level attempts (fault injection in tests).
    CycleHook hook;
};

/// One replica's delivered answer, as an NMR vote compares it.
struct Answer {
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    friend bool operator==(const Answer&, const Answer&) = default;
};

/// Tally of an NMR vote.
struct Vote {
    Answer answer;          ///< the plurality answer (ties go to the lowest replica)
    unsigned winner = 0;    ///< lowest replica that delivered it
    unsigned agree = 0;     ///< replicas that delivered it (0: none delivered)
    bool majority = false;  ///< agree > replicas / 2
};

/// The one NMR vote of both supervisors (MissionSupervisor and
/// island::SupervisedIslandSystem): tally `answers` (one per replica in
/// replica order; nullopt = the replica delivered nothing) and emit
/// sup_vote (replicas, agree, majority, best_fit, best_ind) to `sink`
/// (may be null) stamped `cycle`.
Vote nmr_vote(std::span<const std::optional<Answer>> answers, trace::TraceSink* sink,
              std::uint64_t cycle);

class MissionSupervisor {
public:
    explicit MissionSupervisor(SupervisorConfig cfg);
    ~MissionSupervisor();

    const SupervisorConfig& config() const noexcept { return cfg_; }

    /// Primary-attempt cycle budget (before backoff).
    std::uint64_t primary_budget() const noexcept { return budget0_; }

    /// Exact behavioral result of the fallback preset (valid when the
    /// fallback rung is enabled) — what a degraded run must deliver.
    const fault::GoldenRun& preset_baseline() const noexcept { return preset_baseline_; }

    // --- resumable run: the shape of GaSystem and IslandSystem ---
    /// Clear the report and put replica 0 on the primary rung.
    void start();
    /// One generation of the attempt in flight, under its cycle budget. The
    /// current rung prepares the attempt's engine first when none is in
    /// flight; an attempt that finishes or trips is booked, and the ladder
    /// moves on (next rung, next replica, the vote, a replacement).
    void step();
    /// Every replica walked the ladder (and every replacement re-ran).
    bool done() const noexcept { return walk_ == nullptr; }
    /// Verdict: emits sup_abort / sup_result and returns the report.
    SupervisorReport finish();
    /// start(), step() until done(), finish(). Never throws on faults the
    /// ladder covers — those end as status kAborted with a reason.
    SupervisorReport run();

private:
    struct ReplicaResult {
        Status status = Status::kAborted;
        Rung rung = Rung::kAbort;
        Answer answer;
        std::uint32_t generations = 0;
    };
    struct Walk;     ///< one replica's position on the ladder
    struct Attempt;  ///< the attempt in flight and its engine

    void emit(trace::TraceEvent e) const;

    void begin_walk(unsigned replica);
    /// Prepare the next rung's attempt, or end the walk past the last rung.
    void open_attempt();
    void open_try();
    void open_fallback();
    Attempt& new_attempt(const AttemptInfo& info, core::Substrate backend, std::uint16_t seed,
                         std::uint64_t budget);
    /// Give an RT-level attempt its per-cycle callback: the checkpoint
    /// capture (when `capture`), then the hook; none when neither is due.
    void arm(Attempt& a, bool capture);
    /// Advance the attempt in flight one generation.
    void advance();
    /// Record the ended attempt, book it, and take the ladder's decision.
    void close_attempt();
    /// Book `rec`; true when it delivers as `status` (ends the walk).
    bool book(const AttemptRecord& rec, Status status, bool trips);
    void end_walk(const ReplicaResult& res);

    SupervisorConfig cfg_;
    std::uint64_t expected_cycles_ = 0;
    std::uint64_t budget0_ = 0;
    fault::GoldenRun preset_baseline_{};

    SupervisorReport rep_;
    std::vector<ReplicaResult> results_;
    std::vector<unsigned> attempt_no_;     ///< per-replica attempt counter
    std::vector<unsigned> queue_;          ///< replicas still to walk, in order
    std::optional<Vote> vote_;             ///< set once every replica walked
    std::unique_ptr<Walk> walk_;           ///< null once done()
    std::unique_ptr<Attempt> att_;         ///< null between attempts
};

}  // namespace gaip::supervisor
