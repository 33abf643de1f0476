#include "supervisor/supervisor.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/ga_core.hpp"
#include "gates/batch_runner.hpp"
#include "mem/ga_memory.hpp"
#include "prng/rng_module.hpp"
#include "rtl/scan.hpp"
#include "system/ga_system.hpp"

namespace gaip::supervisor {

namespace {

using core::GaCore;

using core::Substrate;
using system::kInitBound;

system::GaSystemConfig system_config(const SupervisorConfig& cfg, std::uint16_t seed) {
    system::GaSystemConfig scfg;
    scfg.params = cfg.params;
    scfg.params.seed = seed;
    scfg.internal_fems = {cfg.fn};
    scfg.keep_populations = false;
    return scfg;
}

/// Deterministic retry seed: mixed, never 0 (the RNG remaps 0 to 1 anyway).
std::uint16_t reseed(std::uint16_t base, unsigned attempt) {
    const std::uint16_t s =
        static_cast<std::uint16_t>(base ^ static_cast<std::uint16_t>(0x9E37u * (attempt + 1)));
    return s == 0 ? 1 : s;
}

/// True while the core's effective parameter registers still describe the
/// requested job. kStart loads them once from the programmed registers and
/// nothing writes them afterwards, so any deviation is an upset — a run (or
/// snapshot) carrying it belongs to a different job and must not be
/// delivered. Seed is excluded: effective_parameters() reports it as 0.
bool effective_params_intact(system::GaSystem& sys, const core::GaParameters& requested) {
    core::GaParameters want = core::resolve_parameters(0, requested);
    want.seed = 0;
    return sys.core().effective_parameters() == want;
}

/// The supervisor hook as a GaSystem cycle callback numbering cycles from
/// `base` (empty when no hook is set).
system::GaSystem::CycleFn hook_fn(const CycleHook& hook, system::GaSystem& sys,
                                  const AttemptInfo& info, std::uint64_t base) {
    if (!hook) return {};
    return [&hook, &sys, info, base](std::uint64_t c) { hook(sys, info, base + c); };
}

/// A fresh record of the attempt `info` describes.
AttemptRecord attempt_record(const AttemptInfo& info, Substrate backend, std::uint16_t seed,
                             std::uint64_t budget) {
    AttemptRecord rec;
    rec.replica = info.replica;
    rec.attempt = info.attempt;
    rec.rung = info.rung;
    rec.backend = backend;
    rec.resumed = info.resumed;
    rec.resumed_gen = info.resumed_gen;
    rec.seed = seed;
    rec.budget = budget;
    return rec;
}

/// Fill `rec` from where a bounded RT-level run stopped: finished at
/// GA_done, or a watchdog trip that left the FSM in kIdle or wedged it.
void record_stop(AttemptRecord& rec, system::GaSystem& sys) {
    const GaCore::State st = sys.state();
    rec.final_state = static_cast<std::uint8_t>(st);
    if (st == GaCore::State::kDone) {
        rec.outcome = AttemptOutcome::kFinished;
        rec.best_fitness = sys.best_fitness();
        rec.best_candidate = sys.best_candidate();
        rec.generations = sys.generation();
    } else {
        rec.outcome = st == GaCore::State::kIdle ? AttemptOutcome::kWatchdogIdle
                                                 : AttemptOutcome::kWatchdogWedged;
    }
}

}  // namespace

Checkpoint capture_checkpoint(system::GaSystem& sys, std::uint64_t cycle) {
    Checkpoint cp;
    cp.generation = sys.core().generation();
    cp.cycle = cycle;
    cp.core_bits = sys.core().scan_chain().snapshot();
    for (const rtl::RegBase* r : sys.rng_module().registers()) cp.rng_bits.push_back(r->bits());
    cp.memory.resize(mem::kGaMemoryDepth);
    for (std::size_t a = 0; a < mem::kGaMemoryDepth; ++a)
        cp.memory[a] = sys.memory().peek(a);
    cp.memory_dout = sys.memory().registers().front()->bits();
    return cp;
}

void restore_checkpoint(system::GaSystem& sys, const Checkpoint& cp) {
    sys.core().scan_chain().load(cp.core_bits);
    sys.core().input_changed();
    const std::span<rtl::RegBase* const> rng_regs = sys.rng_module().registers();
    if (rng_regs.size() != cp.rng_bits.size())
        throw std::logic_error("MissionSupervisor: RNG register census changed under a checkpoint");
    for (std::size_t i = 0; i < rng_regs.size(); ++i) rng_regs[i]->set_bits(cp.rng_bits[i]);
    sys.rng_module().input_changed();
    for (std::size_t a = 0; a < mem::kGaMemoryDepth; ++a)
        sys.memory().poke(a, cp.memory[a]);
    sys.memory().registers().front()->set_bits(cp.memory_dout);
    sys.memory().input_changed();
}

MissionSupervisor::MissionSupervisor(SupervisorConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.watchdog_factor < 2)
        throw std::invalid_argument("MissionSupervisor: watchdog_factor must be >= 2");
    if ((cfg_.ladder.fallback_preset & ~std::uint8_t{0x3}) != 0)
        throw std::invalid_argument("MissionSupervisor: fallback_preset must be 0..3");
    if (cfg_.ladder.backoff_factor < 1.0)
        throw std::invalid_argument("MissionSupervisor: backoff_factor must be >= 1");
    if (cfg_.nmr == 0)
        throw std::invalid_argument("MissionSupervisor: nmr must be >= 1");
    if (!cfg_.replica_seeds.empty() && cfg_.replica_seeds.size() != cfg_.nmr)
        throw std::invalid_argument("MissionSupervisor: replica_seeds must have nmr entries");
    if (!cfg_.replica_backends.empty() && cfg_.replica_backends.size() != cfg_.nmr)
        throw std::invalid_argument("MissionSupervisor: replica_backends must have nmr entries");

    expected_cycles_ = cfg_.expected_cycles != 0 ? cfg_.expected_cycles
                                                 : core::cycle_bound(core::resolve_parameters(
                                                       0, cfg_.params));
    budget0_ = fault::watchdog_budget(expected_cycles_, cfg_.watchdog_factor);

    // Exact post-fallback result, known without a long simulation, so the
    // degraded result can be verified against it.
    if (cfg_.ladder.fallback_preset != 0)
        preset_baseline_ = fault::preset_baseline(cfg_.fn, cfg_.ladder.fallback_preset);
}

Substrate MissionSupervisor::replica_backend(unsigned r) const {
    return cfg_.replica_backends.empty() ? cfg_.backend : cfg_.replica_backends[r];
}

std::uint16_t MissionSupervisor::replica_seed(unsigned r) const {
    return cfg_.replica_seeds.empty() ? cfg_.params.seed : cfg_.replica_seeds[r];
}

void MissionSupervisor::emit(trace::TraceEvent e) const {
    if (cfg_.sink != nullptr) cfg_.sink->on_event(e);
}

AttemptRecord MissionSupervisor::run_attempt(Substrate backend, const AttemptInfo& info,
                                             std::uint16_t seed, std::uint64_t budget,
                                             const Checkpoint* resume,
                                             std::vector<Checkpoint>* checkpoints,
                                             SupervisorReport& rep,
                                             std::unique_ptr<system::GaSystem>* keep_idle_sys) {
    switch (backend) {
        case Substrate::kRtl:
            return run_rtl_attempt(info, seed, budget, resume, checkpoints, rep, keep_idle_sys);
        case Substrate::kBehavioral:
            return run_behavioral_attempt(info, seed);
        case Substrate::kGates:
            return run_gate_attempt(info, seed, budget, /*preset=*/0);
    }
    throw std::logic_error("MissionSupervisor: unknown backend");
}

AttemptRecord MissionSupervisor::run_rtl_attempt(const AttemptInfo& info, std::uint16_t seed,
                                                 std::uint64_t budget, const Checkpoint* resume,
                                                 std::vector<Checkpoint>* checkpoints,
                                                 SupervisorReport& rep,
                                                 std::unique_ptr<system::GaSystem>* keep_idle_sys) {
    AttemptRecord rec = attempt_record(info, Substrate::kRtl, seed, budget);

    auto sys = std::make_unique<system::GaSystem>(system_config(cfg_, seed));

    // Init handshake (hook sees it with in_init = true; a hook that freezes
    // the handshake produces the kInitTimeout outcome the retries cover).
    AttemptInfo init_info = info;
    init_info.in_init = true;
    if (!sys->start(hook_fn(cfg_.hook, *sys, init_info, 0))) {
        rec.outcome = AttemptOutcome::kInitTimeout;
        rec.cycles = kInitBound;
        rec.final_state = static_cast<std::uint8_t>(sys->core().state());
        return rec;
    }

    if (resume != nullptr) {
        // Let the start pulse fall before overwriting state: a still-high
        // start_GA would hit the RNG's seed-reload edge detector after the
        // restore and clobber the checkpointed CA state.
        sys->drain_start_pulse();
        restore_checkpoint(*sys, *resume);
    }

    std::uint64_t c = 0;
    GaCore::State prev = sys->core().state();
    // Snapshots are refused once the run stops provably belonging to the
    // requested job: past its generation count (an upset eff_ngens bit) or
    // with any effective parameter register deviating (an upset eff_pop /
    // eff_xt / eff_mt bit). A poisoned snapshot is worse than none — a
    // resumed retry would re-run the corrupted job and finish "cleanly".
    const std::uint32_t gen_limit = core::resolve_parameters(0, cfg_.params).n_gens;
    while (sys->core().state() != GaCore::State::kDone && c < budget) {
        sys->ga_cycle();
        ++c;
        const GaCore::State st = sys->core().state();
        // Checkpoint at the kGenCheck entry edge (generation boundary; no
        // memory access or handshake in flight) — BEFORE the hook runs, so
        // a fault injected this very cycle cannot contaminate the snapshot.
        if (checkpoints != nullptr && cfg_.ladder.checkpoint_every != 0 &&
            st == GaCore::State::kGenCheck && prev != GaCore::State::kGenCheck) {
            const std::uint32_t gen = sys->core().generation();
            if (gen > 0 && gen <= gen_limit && gen % cfg_.ladder.checkpoint_every == 0 &&
                (checkpoints->empty() || gen > checkpoints->back().generation) &&
                effective_params_intact(*sys, cfg_.params)) {
                checkpoints->push_back(capture_checkpoint(*sys, c));
                ++rep.checkpoints;
                emit(trace::TraceEvent(trace::kind::kSupCheckpoint, 0, c)
                         .add("replica", std::uint64_t{info.replica})
                         .add("attempt", std::uint64_t{info.attempt})
                         .add("gen", std::uint64_t{gen}));
            }
        }
        prev = st;
        if (cfg_.hook) cfg_.hook(*sys, info, c);
    }

    rec.cycles = c;
    record_stop(rec, *sys);
    if (rec.outcome == AttemptOutcome::kFinished && !effective_params_intact(*sys, cfg_.params)) {
        // Finished, but not the requested job: an upset effective
        // parameter register (possibly restored from a snapshot taken
        // before the capture-time guard existed in the ladder walk) ran
        // a different GA to completion. Discard instead of delivering.
        rec.outcome = AttemptOutcome::kCorrupted;
        rec.best_fitness = rec.best_candidate = 0;
        rec.generations = 0;
    } else if (rec.outcome == AttemptOutcome::kWatchdogIdle && keep_idle_sys != nullptr) {
        // Keep the tripped system alive: the restart and fallback rungs can
        // recover it in place (start_GA is sampled in kIdle — no reset).
        *keep_idle_sys = std::move(sys);
    }
    return rec;
}

AttemptRecord MissionSupervisor::run_behavioral_attempt(const AttemptInfo& info,
                                                        std::uint16_t seed) {
    AttemptRecord rec = attempt_record(info, Substrate::kBehavioral, seed, 0);
    core::GaParameters p = cfg_.params;
    p.seed = seed;
    const core::RunResult r = core::run_behavioral_ga(
        p, core::rom_fitness(cfg_.fn), prng::RngKind::kCellularAutomaton,
        /*keep_populations=*/false);
    rec.outcome = AttemptOutcome::kFinished;
    rec.best_fitness = r.best_fitness;
    rec.best_candidate = r.best_candidate;
    rec.generations = core::resolve_parameters(0, p).n_gens;
    return rec;
}

AttemptRecord MissionSupervisor::run_gate_attempt(const AttemptInfo& info, std::uint16_t seed,
                                                  std::uint64_t budget, std::uint8_t preset) {
    AttemptRecord rec = attempt_record(info, Substrate::kGates, seed, budget);
    core::GaParameters p = cfg_.params;
    p.seed = seed;
    gates::BatchGateRunner runner(cfg_.fn, {p});
    if (preset != 0) runner.set_lane_preset(0, preset);
    // run_bounded counts from reset, so the init handshake rides on the
    // budget; give it the same slack the RT-level path gets.
    const std::vector<gates::BatchLaneResult> res = runner.run_bounded(budget + kInitBound);
    if (res.front().finished) {
        rec.outcome = AttemptOutcome::kFinished;
        rec.best_fitness = res.front().best_fitness;
        rec.best_candidate = res.front().best_candidate;
        rec.generations = res.front().generations;
        rec.cycles = res.front().ga_cycles;
    } else {
        rec.cycles = runner.cycles();
        rec.final_state = runner.lane_state(0);
        rec.outcome = rec.final_state == static_cast<std::uint8_t>(GaCore::State::kIdle)
                          ? AttemptOutcome::kWatchdogIdle
                          : AttemptOutcome::kWatchdogWedged;
    }
    return rec;
}

MissionSupervisor::ReplicaResult MissionSupervisor::run_ladder(unsigned replica,
                                                               Substrate backend,
                                                               std::uint16_t seed,
                                                               unsigned& attempt_no,
                                                               SupervisorReport& rep) {
    ReplicaResult out;
    std::vector<Checkpoint> checkpoints;
    std::unique_ptr<system::GaSystem> idle_sys;
    std::uint16_t idle_seed = seed;

    // --- primary + backoff retries ---------------------------------------
    double scale = 1.0;
    const unsigned attempts_max = 1 + cfg_.ladder.max_retries;
    for (unsigned k = 0; k < attempts_max; ++k, scale *= cfg_.ladder.backoff_factor) {
        const double scaled = static_cast<double>(budget0_) * scale;
        const std::uint64_t budget =
            scaled >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())
                ? std::numeric_limits<std::uint64_t>::max()
                : static_cast<std::uint64_t>(scaled);
        AttemptInfo info;
        info.replica = replica;
        info.attempt = attempt_no;
        info.rung = k == 0 ? Rung::kPrimary : Rung::kRetry;
        const Checkpoint* resume =
            (k > 0 && !checkpoints.empty()) ? &checkpoints.back() : nullptr;
        info.resumed = resume != nullptr;
        info.resumed_gen = resume != nullptr ? resume->generation : 0;
        std::uint16_t att_seed = seed;
        if (k > 0 && cfg_.ladder.reseed_on_retry && resume == nullptr)
            att_seed = reseed(seed, attempt_no);
        if (k > 0) {
            ++rep.retries;
            emit(trace::TraceEvent(trace::kind::kSupRetry, 0, rep.total_cycles)
                     .add("replica", std::uint64_t{replica})
                     .add("attempt", std::uint64_t{attempt_no})
                     .add("budget", budget)
                     .add("seed", std::uint64_t{att_seed})
                     .add("resumed_gen", std::uint64_t{info.resumed_gen}));
            if (resume != nullptr) {
                ++rep.rollbacks;
                emit(trace::TraceEvent(trace::kind::kSupRollback, 0, rep.total_cycles)
                         .add("replica", std::uint64_t{replica})
                         .add("gen", std::uint64_t{resume->generation})
                         .add("checkpoint_cycle", resume->cycle));
            }
        }

        std::unique_ptr<system::GaSystem> tripped;
        const AttemptRecord rec =
            run_attempt(backend, info, att_seed, budget, resume, &checkpoints, rep, &tripped);
        if (tripped) {
            idle_sys = std::move(tripped);
            idle_seed = att_seed;
        }
        rep.attempts.push_back(rec);
        ++attempt_no;
        rep.total_cycles += rec.cycles;
        if (rec.outcome == AttemptOutcome::kFinished) {
            out.status = Status::kOk;
            out.rung = info.rung;
            out.best_fitness = rec.best_fitness;
            out.best_candidate = rec.best_candidate;
            out.generations = rec.generations;
            return out;
        }
        if (rec.outcome == AttemptOutcome::kWatchdogIdle ||
            rec.outcome == AttemptOutcome::kWatchdogWedged) {
            ++rep.watchdog_trips;
            emit(trace::TraceEvent(trace::kind::kWatchdogTrip, 0, rep.total_cycles)
                     .add("replica", std::uint64_t{replica})
                     .add("attempt", std::uint64_t{rec.attempt})
                     .add("budget", rec.budget)
                     .add("final_state", std::uint64_t{rec.final_state})
                     .add("outcome", std::string(attempt_outcome_name(rec.outcome))));
        }
        // A retry that resumed from a checkpoint and still failed (or came
        // back corrupted) walks the checkpoint stack back one generation —
        // the snapshot itself may have captured corrupted state.
        if (resume != nullptr) checkpoints.pop_back();
    }

    // --- in-place restart (hung-run recovery, no reset) -------------------
    if (cfg_.ladder.restart_recovery && backend == Substrate::kRtl && idle_sys != nullptr) {
        // Only provably useful when the programmed parameter registers and
        // the RNG seed register survived: kStart re-resolves the effective
        // parameters from them, so intact registers make the restarted run
        // reproduce the requested job exactly. Corrupted registers would
        // deliver a silently wrong job — skip straight to the fallback.
        core::GaParameters got = idle_sys->core().programmed_parameters();
        got.seed = idle_sys->rng_module().seed_register();
        core::GaParameters want = cfg_.params;
        want.seed = idle_seed;
        if (core::resolve_parameters(0, got) == core::resolve_parameters(0, want)) {
            ++rep.restarts;
            emit(trace::TraceEvent(trace::kind::kSupRestart, 0, rep.total_cycles)
                     .add("replica", std::uint64_t{replica})
                     .add("attempt", std::uint64_t{attempt_no}));
            const AttemptInfo info{.replica = replica, .attempt = attempt_no, .rung = Rung::kRestart};
            AttemptRecord rec = attempt_record(info, Substrate::kRtl, idle_seed, budget0_);
            idle_sys->app_module().request_restart();
            for (unsigned k = 0; k < 8; ++k) idle_sys->ga_cycle();  // start pulse crosses domains
            rec.cycles = 8 + idle_sys->run_to(system::GaSystem::kEnd, budget0_ - 8,
                                              hook_fn(cfg_.hook, *idle_sys, info, 8))
                                 .cycles;
            record_stop(rec, *idle_sys);
            rep.attempts.push_back(rec);
            ++attempt_no;
            rep.total_cycles += rec.cycles;
            if (rec.outcome == AttemptOutcome::kFinished) {
                out.status = Status::kOk;
                out.rung = Rung::kRestart;
                out.best_fitness = rec.best_fitness;
                out.best_candidate = rec.best_candidate;
                out.generations = rec.generations;
                return out;
            }
            ++rep.watchdog_trips;
            emit(trace::TraceEvent(trace::kind::kWatchdogTrip, 0, rep.total_cycles)
                     .add("replica", std::uint64_t{replica})
                     .add("attempt", std::uint64_t{rec.attempt})
                     .add("budget", rec.budget)
                     .add("final_state", std::uint64_t{rec.final_state})
                     .add("outcome", std::string(attempt_outcome_name(rec.outcome))));
            if (rec.outcome != AttemptOutcome::kWatchdogIdle) idle_sys.reset();
        }
    }

    // --- PRESET fallback (Table IV pins, no reset) ------------------------
    if (cfg_.ladder.fallback_preset != 0) {
        const std::uint8_t pm = cfg_.ladder.fallback_preset;
        const core::GaParameters pp = core::preset_parameters(pm);
        const std::uint64_t fb_bound = core::cycle_bound(pp);
        const bool in_place = backend == Substrate::kRtl && idle_sys != nullptr;
        ++rep.fallbacks;
        emit(trace::TraceEvent(trace::kind::kSupFallback, 0, rep.total_cycles)
                 .add("replica", std::uint64_t{replica})
                 .add("attempt", std::uint64_t{attempt_no})
                 .add("preset", std::uint64_t{pm})
                 .add("in_place", std::uint64_t{in_place ? 1u : 0u}));

        const AttemptInfo info{
            .replica = replica, .attempt = attempt_no, .rung = Rung::kPresetFallback};
        AttemptRecord rec = attempt_record(info, backend, 0, fb_bound);

        if (backend == Substrate::kBehavioral) {
            rec.outcome = AttemptOutcome::kFinished;
            rec.best_fitness = preset_baseline_.best_fitness;
            rec.best_candidate = preset_baseline_.best_candidate;
            rec.generations = preset_baseline_.generations;
        } else if (backend == Substrate::kGates) {
            rec = run_gate_attempt(info, cfg_.params.seed, fb_bound, pm);
            rec.rung = Rung::kPresetFallback;
        } else {
            system::GaSystem* sys = idle_sys.get();
            std::unique_ptr<system::GaSystem> fresh;
            std::uint64_t c = 0;
            if (in_place) {
                // The paper's recovery move: preset pins + start_GA, no
                // reset — the preset path depends on no programmed state.
                sys->wires().preset.drive(pm);
                idle_sys->app_module().request_restart();
                for (; c < 8; ++c) sys->ga_cycle();
            } else {
                // No live kIdle system (e.g. every trip wedged the FSM):
                // fresh system in preset mode with the init handshake
                // skipped — the init-failure scenario of Table IV.
                system::GaSystemConfig scfg = system_config(cfg_, cfg_.params.seed);
                scfg.preset = pm;
                scfg.skip_initialization = true;
                fresh = std::make_unique<system::GaSystem>(scfg);
                sys = fresh.get();
                sys->kernel().reset();
                sys->wires().preset.drive(pm);
                sys->wires().fitfunc_select.drive(0);
            }
            rec.cycles = c + sys->run_to(system::GaSystem::kEnd, fb_bound + kInitBound - c,
                                         hook_fn(cfg_.hook, *sys, info, c))
                                 .cycles;
            record_stop(rec, *sys);
        }
        rep.attempts.push_back(rec);
        ++attempt_no;
        rep.total_cycles += rec.cycles;

        if (rec.outcome == AttemptOutcome::kFinished) {
            // Verify against the exact behavioral preset baseline: a
            // degraded run that cannot even reproduce the Table IV job is
            // silent corruption — abort instead of delivering it.
            if (rec.best_fitness == preset_baseline_.best_fitness &&
                rec.best_candidate == preset_baseline_.best_candidate) {
                out.status = Status::kOkDegraded;
                out.rung = Rung::kPresetFallback;
                out.best_fitness = rec.best_fitness;
                out.best_candidate = rec.best_candidate;
                out.generations = rec.generations;
                return out;
            }
            rep.abort_reason = "preset fallback finished but mismatched the behavioral baseline "
                               "(silent corruption)";
        } else {
            rep.abort_reason = "preset fallback missed its cycle bound";
        }
    } else {
        rep.abort_reason = "recovery ladder exhausted (no fallback configured)";
    }

    out.status = Status::kAborted;
    out.rung = Rung::kAbort;
    return out;
}

SupervisorReport MissionSupervisor::run() {
    SupervisorReport rep;

    std::vector<ReplicaResult> results(cfg_.nmr);
    std::vector<unsigned> attempt_no(cfg_.nmr, 0);
    for (unsigned r = 0; r < cfg_.nmr; ++r)
        results[r] = run_ladder(r, replica_backend(r), replica_seed(r), attempt_no[r], rep);

    if (cfg_.nmr == 1) {
        const ReplicaResult& r = results[0];
        rep.status = r.status;
        rep.final_rung = r.status == Status::kAborted ? Rung::kAbort : r.rung;
        rep.best_fitness = r.best_fitness;
        rep.best_candidate = r.best_candidate;
        rep.generations = r.generations;
    } else {
        // --- NMR majority vote on the delivered (fitness, candidate) pair --
        rep.voted = true;
        auto key_of = [](const ReplicaResult& r) {
            return (static_cast<std::uint32_t>(r.best_fitness) << 16) | r.best_candidate;
        };
        std::uint32_t best_key = 0;
        unsigned best_count = 0;
        for (unsigned r = 0; r < cfg_.nmr; ++r) {
            if (results[r].status == Status::kAborted) continue;
            const std::uint32_t k = key_of(results[r]);
            unsigned count = 0;
            for (unsigned q = 0; q < cfg_.nmr; ++q)
                if (results[q].status != Status::kAborted && key_of(results[q]) == k) ++count;
            if (count > best_count) {
                best_count = count;
                best_key = k;
            }
        }
        const bool majority = best_count > cfg_.nmr / 2;
        emit(trace::TraceEvent(trace::kind::kSupVote, 0, rep.total_cycles)
                 .add("replicas", std::uint64_t{cfg_.nmr})
                 .add("agree", std::uint64_t{best_count})
                 .add("majority", std::uint64_t{majority ? 1u : 0u})
                 .add("best_fit", std::uint64_t{best_key >> 16})
                 .add("best_ind", std::uint64_t{best_key & 0xFFFFu}));

        for (unsigned r = 0; r < cfg_.nmr; ++r) {
            ReplicaVerdict v;
            v.replica = r;
            v.backend = replica_backend(r);
            v.status = results[r].status;
            v.best_fitness = results[r].best_fitness;
            v.best_candidate = results[r].best_candidate;
            v.in_majority = majority && results[r].status != Status::kAborted &&
                            key_of(results[r]) == best_key;
            rep.verdicts.push_back(v);
        }

        if (!majority) {
            rep.status = Status::kAborted;
            rep.final_rung = Rung::kAbort;
            rep.abort_reason = "no NMR majority (" + std::to_string(best_count) + "/" +
                               std::to_string(cfg_.nmr) + " replicas agree)";
        } else {
            // Replace every dissenting or aborted replica: re-run its ladder
            // (attempt numbering continues, so hooks keyed to the replica's
            // early attempts do not re-fire) and record whether the
            // replacement rejoined the majority.
            for (unsigned r = 0; r < cfg_.nmr; ++r) {
                if (rep.verdicts[r].in_majority) continue;
                ++rep.replicas_replaced;
                rep.verdicts[r].replaced = true;
                results[r] = run_ladder(r, replica_backend(r), replica_seed(r), attempt_no[r], rep);
                rep.verdicts[r].status = results[r].status;
                rep.verdicts[r].best_fitness = results[r].best_fitness;
                rep.verdicts[r].best_candidate = results[r].best_candidate;
                rep.verdicts[r].in_majority = results[r].status != Status::kAborted &&
                                              key_of(results[r]) == best_key;
            }
            rep.vote_agree = 0;
            Status status = Status::kOk;
            Rung rung = Rung::kPrimary;
            std::uint32_t gens = 0;
            for (unsigned r = 0; r < cfg_.nmr; ++r) {
                if (!rep.verdicts[r].in_majority) continue;
                ++rep.vote_agree;
                if (results[r].status == Status::kOkDegraded) status = Status::kOkDegraded;
                rung = std::max(rung, results[r].rung);
                gens = results[r].generations;
            }
            rep.status = status;
            rep.final_rung = rung;
            rep.best_fitness = static_cast<std::uint16_t>(best_key >> 16);
            rep.best_candidate = static_cast<std::uint16_t>(best_key & 0xFFFFu);
            rep.generations = gens;
        }
    }

    if (rep.status != Status::kAborted) {
        rep.abort_reason.clear();
    } else {
        emit(trace::TraceEvent(trace::kind::kSupAbort, 0, rep.total_cycles)
                 .add("reason", rep.abort_reason));
    }
    emit(trace::TraceEvent(trace::kind::kSupResult, 0, rep.total_cycles)
             .add("status", std::string(status_name(rep.status)))
             .add("rung", std::string(rung_name(rep.final_rung)))
             .add("best_fit", std::uint64_t{rep.best_fitness})
             .add("best_ind", std::uint64_t{rep.best_candidate})
             .add("watchdog_trips", std::uint64_t{rep.watchdog_trips})
             .add("retries", std::uint64_t{rep.retries})
             .add("restarts", std::uint64_t{rep.restarts})
             .add("rollbacks", std::uint64_t{rep.rollbacks})
             .add("fallbacks", std::uint64_t{rep.fallbacks})
             .add("replaced", std::uint64_t{rep.replicas_replaced}));
    if (cfg_.sink != nullptr) cfg_.sink->flush();
    return rep;
}

}  // namespace gaip::supervisor
