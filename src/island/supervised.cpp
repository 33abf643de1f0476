#include "island/supervised.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "util/worker_pool.hpp"

namespace gaip::island {

namespace {

using system::GaSystem;
using supervisor::AttemptInfo;
using supervisor::Checkpoint;
using supervisor::Rung;

/// One supervised island: the live system plus its rollback anchor and the
/// trajectory stitched across system replacements.
struct SupIsland {
    std::optional<RtlIsland> isl;
    Checkpoint cp;                      ///< last good barrier snapshot
    std::int64_t last_traj_gen = -1;    ///< highest generation appended
    std::vector<std::uint16_t> traj;
    std::uint64_t cycle_base = 0;       ///< cumulative run cycles (hook numbering)
    std::uint64_t run_cycles = 0;
    std::uint64_t stall_cycles = 0;
};

/// A fresh island system through its init handshake with the start pulse
/// drained, ready for the gen-0 anchor or a checkpoint restore. Returns
/// false on a handshake timeout.
bool start_island(SupIsland& m, const IslandConfig& cfg, const core::GaParameters& eff,
                  std::uint16_t seed) {
    m.isl.emplace(cfg, eff, seed);
    if (!m.isl->sys->start()) return false;
    m.isl->sys->drain_start_pulse();
    return true;
}

/// Append the monitor history entries the current system produced since the
/// last stitch. Survives system replacement on rollback: a restored run's
/// fresh monitor only ever sees generations past the checkpoint.
void stitch_trajectory(SupIsland& m) {
    for (const core::GenerationStats& gs : m.isl->sys->monitor().history()) {
        if (static_cast<std::int64_t>(gs.gen) > m.last_traj_gen) {
            m.traj.push_back(gs.best_fit);
            m.last_traj_gen = gs.gen;
        }
    }
}

}  // namespace

SupervisedIslandSystem::SupervisedIslandSystem(SupervisedIslandConfig cfg)
    : cfg_(std::move(cfg)) {
    if (cfg_.islands.backend != core::Substrate::kRtl)
        throw std::invalid_argument(
            "SupervisedIslandSystem: checkpoint rollback requires the RT-level substrate");
    // Reuse IslandSystem's structural validation and derived schedule.
    IslandSystem probe(cfg_.islands);
    eff_params_ = probe.params();
    eff_mig_ = probe.effective_migration();
    seeds_ = probe.seeds();
    boundaries_ = probe.boundaries();
}

void SupervisedIslandSystem::emit(trace::TraceEvent e) const {
    if (cfg_.sink != nullptr) cfg_.sink->on_event(e);
}

SupervisedIslandSystem::ReplicaOutcome SupervisedIslandSystem::run_replica(
    unsigned replica, SupervisedIslandReport& rep) {
    const unsigned n = cfg_.islands.islands;
    // A fault-injection hook must never run concurrently.
    const unsigned threads = cfg_.hook ? 1 : cfg_.islands.threads;
    // GA cycles one generation costs (evaluation handshakes + selection scan).
    const std::uint64_t per_gen =
        std::uint64_t{eff_params_.pop_size} * (64ull + 8ull * eff_params_.pop_size);

    ReplicaOutcome out;
    std::vector<SupIsland> isls(n);
    std::atomic<bool> init_ok{true};
    util::parallel_for_n(threads, n, [&](std::size_t i) {
        // Drain the start pulse before the gen-0 anchor: restores must not
        // re-trigger the RNG's seed-reload edge.
        if (!start_island(isls[i], cfg_.islands, eff_params_, seeds_[i])) init_ok = false;
    });
    if (!init_ok.load()) {
        out.abort_reason = "island init handshake timed out";
        return out;
    }
    for (unsigned i = 0; i < n; ++i) {
        isls[i].cp = supervisor::capture_checkpoint(*isls[i].isl->sys, 0);
        ++rep.checkpoints;
    }

    core::RngState mig_rng(eff_mig_.mig_seed);
    std::vector<MigrationRecord> migrations;
    std::vector<std::uint64_t> seg(n, 0);
    std::vector<std::string> fail(n);
    std::uint32_t prev_gen = 0;

    // One island's segment, with the rollback ladder: on a missed budget,
    // rebuild a fresh system, restore the island's last checkpoint, and
    // re-run with a doubled budget — only this island moves; the others
    // are already parked at the barrier.
    auto run_segment = [&](unsigned i, std::uint32_t target, std::uint32_t gens) {
        const std::uint64_t budget0 =
            cfg_.watchdog_factor * ((std::uint64_t{gens} + 1) * per_gen + 10'000);
        AttemptInfo info;
        info.replica = replica;
        info.attempt = i;  // island index (see SupervisedIslandConfig::hook)
        for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
            info.rung = attempt == 0 ? Rung::kPrimary : Rung::kRetry;
            info.resumed = attempt > 0;
            info.resumed_gen = attempt > 0 ? isls[i].cp.generation : 0;
            const std::uint64_t budget = budget0 << attempt;
            GaSystem& sys = *isls[i].isl->sys;
            GaSystem::CycleFn on_cycle;
            if (cfg_.hook)
                on_cycle = [&](std::uint64_t c) { cfg_.hook(sys, info, isls[i].cycle_base + c); };
            const GaSystem::Advance a = sys.run_to(target, budget, on_cycle);
            if (a.ok) {
                seg[i] = a.cycles;
                isls[i].cycle_base += a.cycles;
                return;
            }
            ++rep.watchdog_trips;
            emit(trace::TraceEvent(trace::kind::kWatchdogTrip, 0, isls[i].cycle_base + a.cycles)
                     .add("replica", std::uint64_t{replica})
                     .add("island", std::uint64_t{i})
                     .add("budget", budget)
                     .add("state", static_cast<std::uint64_t>(sys.state())));
            if (attempt == cfg_.max_retries) break;
            // Roll back ONLY this island: fresh system, restored snapshot.
            if (!start_island(isls[i], cfg_.islands, eff_params_, seeds_[i])) {
                fail[i] = "rollback init handshake timed out";
                return;
            }
            supervisor::restore_checkpoint(*isls[i].isl->sys, isls[i].cp);
            ++rep.rollbacks;
            emit(trace::TraceEvent(trace::kind::kIslandRollback, 0, isls[i].cycle_base)
                     .add("replica", std::uint64_t{replica})
                     .add("island", std::uint64_t{i})
                     .add("gen", std::uint64_t{isls[i].cp.generation})
                     .add("attempt", std::uint64_t{attempt + 1}));
        }
        fail[i] = "island exhausted its rollback budget";
    };

    auto run_all = [&](std::uint32_t target, std::uint32_t gens, bool barrier) -> bool {
        util::parallel_for_n(threads, n, [&](std::size_t i) {
            run_segment(static_cast<unsigned>(i), target, gens);
        });
        for (unsigned i = 0; i < n; ++i)
            if (!fail[i].empty()) {
                out.abort_reason = "island " + std::to_string(i) + ": " + fail[i];
                return false;
            }
        std::uint64_t seg_max = 0;
        for (unsigned i = 0; i < n; ++i) seg_max = std::max(seg_max, seg[i]);
        for (unsigned i = 0; i < n; ++i) {
            isls[i].run_cycles += seg[i];
            if (barrier) isls[i].stall_cycles += seg_max - seg[i];
            stitch_trajectory(isls[i]);
        }
        return true;
    };

    for (const std::uint32_t g : boundaries_) {
        if (!run_all(g, g - prev_gen, /*barrier=*/true)) return out;
        prev_gen = g;

        std::vector<std::vector<core::Member>> pops(n);
        for (unsigned i = 0; i < n; ++i) pops[i] = isls[i].isl->sys->population();
        const MigrationPlan plan = plan_migration(pops, cfg_.islands.topology, eff_mig_,
                                                  mig_rng, g);
        for (const MigrationRecord& rec : plan.records)
            isls[rec.to].isl->sys->poke_member(rec.dst_slot, rec.member);
        migrations.insert(migrations.end(), plan.records.begin(), plan.records.end());
        emit(trace::TraceEvent(trace::kind::kIslandBarrier, 0, g)
                 .add("replica", std::uint64_t{replica})
                 .add("gen", std::uint64_t{g})
                 .add("migrants", std::uint64_t{plan.records.size()}));

        // New rollback anchors: the post-migration park point, so a retry
        // re-runs the segment with its imports already in place.
        for (unsigned i = 0; i < n; ++i) {
            isls[i].cp = supervisor::capture_checkpoint(*isls[i].isl->sys, isls[i].cycle_base);
            ++rep.checkpoints;
            emit(trace::TraceEvent(trace::kind::kSupCheckpoint, 0, isls[i].cycle_base)
                     .add("replica", std::uint64_t{replica})
                     .add("island", std::uint64_t{i})
                     .add("gen", std::uint64_t{g}));
        }
    }
    if (!run_all(GaSystem::kEnd, eff_params_.n_gens - prev_gen, /*barrier=*/false)) return out;

    IslandResult& r = out.result;
    r.effective = eff_mig_;
    r.boundaries = boundaries_;
    r.migrations = std::move(migrations);
    r.islands.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        IslandStats& s = r.islands[i];
        s.seed = seeds_[i];
        const GaSystem& sys = *isls[i].isl->sys;
        s.best_fitness = sys.best_fitness();
        s.best_candidate = sys.best_candidate();
        s.generations = sys.generation();
        s.evaluations = sys.fitness_evaluations();
        s.run_cycles = isls[i].run_cycles;
        s.stall_cycles = isls[i].stall_cycles;
        s.best_trajectory = std::move(isls[i].traj);
        if (s.best_fitness > r.best_fitness) {
            r.best_fitness = s.best_fitness;
            r.best_candidate = s.best_candidate;
            r.best_island = i;
        }
        r.makespan_cycles = std::max(r.makespan_cycles, s.run_cycles + s.stall_cycles);
    }
    r.bus_interval_reg = isls[0].isl->bus->interval_reg();
    r.bus_count_reg = isls[0].isl->bus->count_policy_reg();
    out.ok = true;
    return out;
}

SupervisedIslandReport SupervisedIslandSystem::run() {
    SupervisedIslandReport rep;
    std::vector<ReplicaOutcome> outcomes;
    for (unsigned r = 0; r < std::max(1u, cfg_.nmr); ++r)
        outcomes.push_back(run_replica(r, rep));

    // Majority vote on the delivered (best fitness, best candidate) pair
    // among the replicas that finished; plurality with lowest-replica tie
    // break (replicas are bit-exact absent faults, so disagreement means
    // an undetected upset slipped through a ladder).
    unsigned winner = 0, winner_votes = 0;
    for (unsigned a = 0; a < outcomes.size(); ++a) {
        if (!outcomes[a].ok) continue;
        unsigned votes = 0;
        for (const ReplicaOutcome& b : outcomes)
            if (b.ok && b.result.best_fitness == outcomes[a].result.best_fitness &&
                b.result.best_candidate == outcomes[a].result.best_candidate)
                ++votes;
        if (votes > winner_votes) {
            winner = a;
            winner_votes = votes;
        }
    }
    if (winner_votes == 0) {
        rep.status = supervisor::Status::kAborted;
        for (const ReplicaOutcome& o : outcomes)
            if (!o.abort_reason.empty()) {
                rep.abort_reason = o.abort_reason;
                break;
            }
        emit(trace::TraceEvent(trace::kind::kSupAbort, 0, 0).add("reason", rep.abort_reason));
        return rep;
    }
    rep.status = supervisor::Status::kOk;
    rep.result = std::move(outcomes[winner].result);
    rep.best_fitness = rep.result.best_fitness;
    rep.best_candidate = rep.result.best_candidate;
    if (outcomes.size() > 1) {
        rep.voted = true;
        rep.vote_agree = winner_votes;
        emit(trace::TraceEvent(trace::kind::kSupVote, 0, 0)
                 .add("replicas", std::uint64_t{outcomes.size()})
                 .add("agree", std::uint64_t{winner_votes})
                 .add("best_fit", std::uint64_t{rep.best_fitness}));
    }
    emit(trace::TraceEvent(trace::kind::kSupResult, 0, 0)
             .add("status", std::string(supervisor::status_name(rep.status)))
             .add("best_fit", std::uint64_t{rep.best_fitness})
             .add("rollbacks", std::uint64_t{rep.rollbacks}));
    return rep;
}

}  // namespace gaip::island
