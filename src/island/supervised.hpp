// Supervised island ensemble: the mission supervisor's fault-handling
// story (src/supervisor/) applied to the N-core island system. Each island
// is checkpointed with the supervisor's audited capture (scan chain + RNG
// registers + both GA memory banks) at the start of every barrier-to-
// barrier segment, a per-segment cycle-budget watchdog guards every
// stretch, and a watchdog trip rolls back ONLY the affected island: a
// fresh system is initialized, the island's last checkpoint is restored,
// and the segment re-runs — deterministically reconverging on the exact
// state the fault-free island would have reached, while the other islands
// sit parked at the barrier with their emigrants already captured. The
// ring keeps delivering; one upset core costs one island one segment
// re-run, never the ensemble. That machinery is a behaviour of
// IslandSystem's RT-level ensemble (IslandSupervision, island.hpp), so a
// fault-free supervised run IS the island run: same IslandResult, same
// island_* events.
//
// This layer adds N-modular redundancy: `nmr` replicas of the complete
// island job, majority-voted on the delivered (best fitness, best
// candidate) pair by the mission supervisor's vote (supervisor::nmr_vote)
// — meaningful because the island system is bit-exact per replica. As in
// MissionSupervisor, a vote without a strict majority aborts.
//
// Decisions are emitted as trace events: the supervisor's sup_checkpoint /
// watchdog_trip / sup_vote / sup_abort / sup_result kinds plus the
// island_rollback kind, interleaved with the island stream, so gaip-trace
// tooling records supervised ensemble runs like any other telemetry stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "island/island.hpp"
#include "supervisor/supervisor.hpp"
#include "trace/event.hpp"

namespace gaip::island {

/// The island job plus the rollback settings (IslandSupervision) and the
/// replica count.
struct SupervisedIslandConfig : IslandSupervision {
    /// The island job. backend must be kRtl — the checkpoint/rollback
    /// machinery is the RT-level scan-chain path (throws otherwise).
    IslandConfig islands{};
    /// Ensemble replicas majority-voted (1 = plain supervised run; use an
    /// odd count for a meaningful vote).
    unsigned nmr = 1;
    /// The whole stream: island_* events of every replica plus the
    /// supervision events (it replaces islands.sink).
    trace::TraceSink* sink = nullptr;
};

/// The vote's verdict plus the rollback tally summed over every replica.
struct SupervisedIslandReport : RollbackTally {
    supervisor::Status status = supervisor::Status::kAborted;
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    bool voted = false;
    unsigned vote_agree = 0;       ///< replicas agreeing with the majority
    /// The delivered (majority) replica's full island result.
    IslandResult result;
    std::string abort_reason;

    bool ok() const noexcept { return status != supervisor::Status::kAborted; }
};

class SupervisedIslandSystem {
public:
    /// Throws std::invalid_argument for a non-RTL backend or the structural
    /// errors IslandSystem rejects.
    explicit SupervisedIslandSystem(SupervisedIslandConfig cfg);

    // --- resumable run: the shape of IslandSystem ---
    /// One segment of the current replica (started first when it has not
    /// been); a replica ends when its islands finish or it aborts.
    void step();
    /// Every replica has ended.
    bool done() const noexcept { return results_.size() >= std::max(1u, cfg_.nmr); }
    /// Vote and report. Faults the rollback ladder covers never throw —
    /// they end as status kAborted, as does a vote without a majority.
    SupervisedIslandReport finish() const;
    /// Run all replicas, vote, and return the report.
    SupervisedIslandReport run();

private:
    void emit(trace::TraceEvent e) const;

    SupervisedIslandConfig cfg_;  ///< islands.sink replaced by sink
    std::optional<IslandSystem> replica_;  ///< the running replica
    /// Each ended replica's result; nullopt when it aborted.
    std::vector<std::optional<IslandResult>> results_;
    SupervisedIslandReport rep_;  ///< the rollback tally and first abort reason so far
};

}  // namespace gaip::island
