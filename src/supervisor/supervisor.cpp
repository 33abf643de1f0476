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

Substrate replica_backend(const SupervisorConfig& cfg, unsigned r) {
    return cfg.replica_backends.empty() ? cfg.backend : cfg.replica_backends[r];
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

CycleHook flip_hook(fault::FaultSite site, bool& fired, unsigned replica, unsigned attempt) {
    return [site = std::move(site), &fired, replica, attempt](
               system::GaSystem& sys, const AttemptInfo& info, std::uint64_t cycle) {
        if (fired || info.in_init || info.replica != replica || info.attempt != attempt) return;
        if (cycle >= site.cycle && fault::scan_safe_state(sys.state())) {
            sys.flip_register_bit(site.reg, site.bit);
            fired = true;
        }
    };
}

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

MissionSupervisor::~MissionSupervisor() = default;

/// Where one replica's walk down the ladder stands.
struct MissionSupervisor::Walk {
    unsigned replica = 0;
    Substrate backend = Substrate::kRtl;
    std::uint16_t seed = 0;
    Rung next = Rung::kPrimary;  ///< rung the next attempt opens
    unsigned tries = 0;          ///< primary + retries opened so far
    double scale = 1.0;          ///< budget factor of the next try
    std::vector<Checkpoint> checkpoints;
    /// The last system a watchdog trip parked in kIdle, kept for the
    /// in-place restart and fallback rungs, and the seed it ran.
    std::unique_ptr<system::GaSystem> idle_sys;
    std::uint16_t idle_seed = 0;
};

/// The attempt in flight: the engine its rung prepared, the cycles it has
/// clocked and its cap. `over` once it finished or tripped.
struct MissionSupervisor::Attempt {
    AttemptInfo info;
    AttemptRecord rec;
    std::unique_ptr<system::GaSystem> own;  ///< a fresh RT-level system
    system::GaSystem* sys = nullptr;        ///< the RT-level engine (own or the walk's idle one)
    std::optional<core::BehavioralEngine> beh;
    std::unique_ptr<gates::BatchGateRunner> gate;
    system::GaSystem::CycleFn on_cycle;     ///< checkpoint capture, then the hook
    GaCore::State prev = GaCore::State::kIdle;  ///< state before the last cycle
    std::uint64_t c = 0;                    ///< cycles clocked
    std::uint64_t bound = 0;
    bool over = false;
};

Vote nmr_vote(std::span<const std::optional<Answer>> answers, trace::TraceSink* sink,
              std::uint64_t cycle) {
    Vote v;
    for (std::size_t r = 0; r < answers.size(); ++r) {
        if (!answers[r]) continue;
        const auto count =
            static_cast<unsigned>(std::count(answers.begin(), answers.end(), answers[r]));
        if (count > v.agree) {
            v.agree = count;
            v.winner = static_cast<unsigned>(r);
            v.answer = *answers[r];
        }
    }
    v.majority = v.agree > answers.size() / 2;
    if (sink != nullptr)
        sink->on_event(trace::TraceEvent(trace::kind::kSupVote, 0, cycle)
                           .add("replicas", std::uint64_t{answers.size()})
                           .add("agree", std::uint64_t{v.agree})
                           .add("majority", std::uint64_t{v.majority ? 1u : 0u})
                           .add("best_fit", std::uint64_t{v.answer.best_fitness})
                           .add("best_ind", std::uint64_t{v.answer.best_candidate}));
    return v;
}

MissionSupervisor::Attempt& MissionSupervisor::new_attempt(const AttemptInfo& info,
                                                           Substrate backend, std::uint16_t seed,
                                                           std::uint64_t budget) {
    att_ = std::make_unique<Attempt>();
    att_->info = info;
    att_->rec = {.replica = info.replica, .attempt = info.attempt, .rung = info.rung,
                 .backend = backend, .resumed = info.resumed, .resumed_gen = info.resumed_gen,
                 .seed = seed, .budget = budget};
    att_->bound = budget;
    return *att_;
}

void MissionSupervisor::emit(trace::TraceEvent e) const {
    if (cfg_.sink != nullptr) cfg_.sink->on_event(e);
}

void MissionSupervisor::start() {
    rep_ = {};
    results_.assign(cfg_.nmr, {});
    attempt_no_.assign(cfg_.nmr, 0);
    queue_.clear();
    for (unsigned r = 1; r < cfg_.nmr; ++r) queue_.push_back(r);
    vote_.reset();
    att_.reset();
    begin_walk(0);
}

void MissionSupervisor::begin_walk(unsigned replica) {
    if (vote_) {
        // A replacement: the dissenting or aborted replica re-walks the
        // ladder (attempt numbering continues, so hooks keyed to its early
        // attempts do not re-fire).
        ++rep_.replicas_replaced;
        rep_.verdicts[replica].replaced = true;
    }
    walk_ = std::make_unique<Walk>();
    walk_->replica = replica;
    walk_->backend = replica_backend(cfg_, replica);
    walk_->seed = cfg_.replica_seeds.empty() ? cfg_.params.seed : cfg_.replica_seeds[replica];
    walk_->idle_seed = walk_->seed;
}

void MissionSupervisor::step() {
    if (att_ == nullptr) {
        open_attempt();
        if (att_ == nullptr) return;
    }
    if (!att_->over) advance();
    if (att_->over) close_attempt();
}

SupervisorReport MissionSupervisor::run() {
    start();
    while (!done()) step();
    return finish();
}

void MissionSupervisor::open_attempt() {
    Walk& w = *walk_;
    switch (w.next) {
        case Rung::kPrimary:
        case Rung::kRetry:
            if (w.tries < 1 + cfg_.ladder.max_retries) {
                open_try();
                return;
            }
            w.next = Rung::kRestart;
            [[fallthrough]];
        case Rung::kRestart:
            w.next = Rung::kPresetFallback;
            if (cfg_.ladder.restart_recovery && w.backend == Substrate::kRtl && w.idle_sys) {
                // Only provably useful when the programmed parameter
                // registers and the RNG seed register survived: kStart
                // re-resolves the effective parameters from them, so intact
                // registers make the restarted run reproduce the requested
                // job exactly. Corrupted registers would deliver a silently
                // wrong job — skip straight to the fallback.
                core::GaParameters got = w.idle_sys->core().programmed_parameters();
                got.seed = w.idle_sys->rng_module().seed_register();
                core::GaParameters want = cfg_.params;
                want.seed = w.idle_seed;
                if (core::resolve_parameters(0, got) == core::resolve_parameters(0, want)) {
                    ++rep_.restarts;
                    emit(trace::TraceEvent(trace::kind::kSupRestart, 0, rep_.total_cycles)
                             .add("replica", std::uint64_t{w.replica})
                             .add("attempt", std::uint64_t{attempt_no_[w.replica]}));
                    Attempt& a = new_attempt({.replica = w.replica,
                                              .attempt = attempt_no_[w.replica],
                                              .rung = Rung::kRestart},
                                             Substrate::kRtl, w.idle_seed, budget0_);
                    a.sys = w.idle_sys.get();
                    a.sys->app_module().request_restart();
                    for (; a.c < 8; ++a.c) a.sys->ga_cycle();  // start pulse crosses domains
                    arm(a, /*capture=*/false);
                    return;
                }
            }
            [[fallthrough]];
        case Rung::kPresetFallback:
            w.next = Rung::kAbort;
            if (cfg_.ladder.fallback_preset != 0) {
                open_fallback();
                return;
            }
            rep_.abort_reason = "recovery ladder exhausted (no fallback configured)";
            [[fallthrough]];
        case Rung::kAbort:
            end_walk({});
    }
}

void MissionSupervisor::open_try() {
    Walk& w = *walk_;
    const unsigned k = w.tries++;
    const double scaled = static_cast<double>(budget0_) * w.scale;
    w.scale *= cfg_.ladder.backoff_factor;
    const std::uint64_t budget =
        scaled >= static_cast<double>(std::numeric_limits<std::uint64_t>::max())
            ? std::numeric_limits<std::uint64_t>::max()
            : static_cast<std::uint64_t>(scaled);
    AttemptInfo info;
    info.replica = w.replica;
    info.attempt = attempt_no_[w.replica];
    info.rung = k == 0 ? Rung::kPrimary : Rung::kRetry;
    const Checkpoint* resume = (k > 0 && !w.checkpoints.empty()) ? &w.checkpoints.back() : nullptr;
    info.resumed = resume != nullptr;
    info.resumed_gen = resume != nullptr ? resume->generation : 0;
    std::uint16_t seed = w.seed;
    if (k > 0 && cfg_.ladder.reseed_on_retry && resume == nullptr)
        seed = reseed(w.seed, info.attempt);
    if (k > 0) {
        ++rep_.retries;
        emit(trace::TraceEvent(trace::kind::kSupRetry, 0, rep_.total_cycles)
                 .add("replica", std::uint64_t{w.replica})
                 .add("attempt", std::uint64_t{info.attempt})
                 .add("budget", budget)
                 .add("seed", std::uint64_t{seed})
                 .add("resumed_gen", std::uint64_t{info.resumed_gen}));
        if (resume != nullptr) {
            ++rep_.rollbacks;
            emit(trace::TraceEvent(trace::kind::kSupRollback, 0, rep_.total_cycles)
                     .add("replica", std::uint64_t{w.replica})
                     .add("gen", std::uint64_t{resume->generation})
                     .add("checkpoint_cycle", resume->cycle));
        }
    }

    Attempt& a = new_attempt(info, w.backend, seed, budget);
    core::GaParameters p = cfg_.params;
    p.seed = seed;
    switch (w.backend) {
        case Substrate::kBehavioral:
            a.rec.budget = 0;
            a.beh.emplace(p, core::rom_fitness(cfg_.fn), prng::RngKind::kCellularAutomaton,
                          /*keep_populations=*/false);
            a.over = a.beh->done();
            return;
        case Substrate::kGates:
            a.gate = std::make_unique<gates::BatchGateRunner>(cfg_.fn,
                                                              std::vector<core::GaParameters>{p});
            a.gate->begin_run();
            // The runner counts from reset, so the init handshake rides on
            // the budget; give it the same slack the RT-level path gets.
            a.bound = budget + kInitBound;
            return;
        case Substrate::kRtl:
            break;
    }
    a.own = std::make_unique<system::GaSystem>(system_config(cfg_, seed));
    // Init handshake (hook sees it with in_init = true; a hook that freezes
    // the handshake produces the kInitTimeout outcome the retries cover).
    AttemptInfo init_info = info;
    init_info.in_init = true;
    system::GaSystem::CycleFn init_hook;
    if (cfg_.hook) init_hook = [&](std::uint64_t c) { cfg_.hook(*a.own, init_info, c); };
    if (!a.own->start(init_hook)) {
        a.rec.outcome = AttemptOutcome::kInitTimeout;
        a.rec.cycles = kInitBound;
        a.rec.final_state = static_cast<std::uint8_t>(a.own->core().state());
        a.over = true;
        return;
    }
    if (resume != nullptr) {
        // Let the start pulse fall before overwriting state: a still-high
        // start_GA would hit the RNG's seed-reload edge detector after the
        // restore and clobber the checkpointed CA state.
        a.own->drain_start_pulse();
        restore_checkpoint(*a.own, *resume);
    }
    a.sys = a.own.get();
    arm(a, cfg_.ladder.checkpoint_every != 0);
}

void MissionSupervisor::open_fallback() {
    Walk& w = *walk_;
    const unsigned attempt = attempt_no_[w.replica];
    const std::uint8_t pm = cfg_.ladder.fallback_preset;
    const std::uint64_t fb_bound = core::cycle_bound(core::preset_parameters(pm));
    const bool in_place = w.backend == Substrate::kRtl && w.idle_sys != nullptr;
    ++rep_.fallbacks;
    emit(trace::TraceEvent(trace::kind::kSupFallback, 0, rep_.total_cycles)
             .add("replica", std::uint64_t{w.replica})
             .add("attempt", std::uint64_t{attempt})
             .add("preset", std::uint64_t{pm})
             .add("in_place", std::uint64_t{in_place ? 1u : 0u}));

    const AttemptInfo info{.replica = w.replica, .attempt = attempt, .rung = Rung::kPresetFallback};
    Attempt& a = new_attempt(info, w.backend, 0, fb_bound);
    a.bound = fb_bound + kInitBound;
    switch (w.backend) {
        case Substrate::kBehavioral:
            // The baseline IS the behavioral preset run.
            a.rec.outcome = AttemptOutcome::kFinished;
            a.rec.best_fitness = preset_baseline_.best_fitness;
            a.rec.best_candidate = preset_baseline_.best_candidate;
            a.rec.generations = preset_baseline_.generations;
            a.over = true;
            return;
        case Substrate::kGates:
            a.rec.seed = cfg_.params.seed;
            a.gate = std::make_unique<gates::BatchGateRunner>(
                cfg_.fn, std::vector<core::GaParameters>{cfg_.params});
            a.gate->set_lane_preset(0, pm);
            a.gate->begin_run();
            return;
        case Substrate::kRtl:
            break;
    }
    if (in_place) {
        // The paper's recovery move: preset pins + start_GA, no reset — the
        // preset path depends on no programmed state.
        a.sys = w.idle_sys.get();
        a.sys->wires().preset.drive(pm);
        a.sys->app_module().request_restart();
        for (; a.c < 8; ++a.c) a.sys->ga_cycle();
    } else {
        // No live kIdle system (e.g. every trip wedged the FSM): fresh
        // system in preset mode with the init handshake skipped — the
        // init-failure scenario of Table IV.
        system::GaSystemConfig scfg = system_config(cfg_, cfg_.params.seed);
        scfg.preset = pm;
        scfg.skip_initialization = true;
        a.own = std::make_unique<system::GaSystem>(scfg);
        a.sys = a.own.get();
        a.sys->kernel().reset();
        a.sys->wires().preset.drive(pm);
        a.sys->wires().fitfunc_select.drive(0);
    }
    arm(a, /*capture=*/false);
}

void MissionSupervisor::arm(Attempt& a, bool capture) {
    a.over = a.sys->done() || a.c >= a.bound;
    if (!capture && !cfg_.hook) return;  // nothing to do per cycle: run_to runs bare
    a.prev = a.sys->core().state();
    a.on_cycle = [this, &a, capture](std::uint64_t k) {
        const std::uint64_t c = a.c + k;
        system::GaSystem& sys = *a.sys;
        const GaCore::State st = sys.core().state();
        // Checkpoint at the kGenCheck entry edge (generation boundary; no
        // memory access or handshake in flight) — BEFORE the hook runs, so
        // a fault injected this very cycle cannot contaminate the snapshot.
        // Snapshots are refused once the run stops provably belonging to
        // the requested job: past its generation count (an upset eff_ngens
        // bit) or with any effective parameter register deviating (an
        // upset eff_pop / eff_xt / eff_mt bit). A poisoned snapshot is
        // worse than none — a resumed retry would re-run the corrupted job
        // and finish "cleanly".
        std::vector<Checkpoint>& cps = walk_->checkpoints;
        const std::uint32_t gen = sys.core().generation();
        if (capture && st == GaCore::State::kGenCheck && a.prev != GaCore::State::kGenCheck &&
            gen > 0 && gen <= core::resolve_parameters(0, cfg_.params).n_gens &&
            gen % cfg_.ladder.checkpoint_every == 0 &&
            (cps.empty() || gen > cps.back().generation) &&
            effective_params_intact(sys, cfg_.params)) {
            cps.push_back(capture_checkpoint(sys, c));
            ++rep_.checkpoints;
            emit(trace::TraceEvent(trace::kind::kSupCheckpoint, 0, c)
                     .add("replica", std::uint64_t{a.info.replica})
                     .add("attempt", std::uint64_t{a.info.attempt})
                     .add("gen", std::uint64_t{gen}));
        }
        a.prev = st;
        if (cfg_.hook) cfg_.hook(sys, a.info, c);
    };
}

void MissionSupervisor::advance() {
    Attempt& a = *att_;
    if (a.sys != nullptr) {
        a.c += a.sys->run_to(a.sys->generation() + 1, a.bound - a.c, a.on_cycle).cycles;
        a.over = a.sys->done() || a.c >= a.bound;
    } else if (a.beh) {
        a.beh->step_generation();
        a.over = a.beh->done();
    } else {
        a.c += a.gate->run_to(a.gate->lane_generation(0) + 1, a.bound - a.c).cycles;
        a.over = a.gate->lane_result(0).finished || a.c >= a.bound;
    }
}

void MissionSupervisor::close_attempt() {
    const std::unique_ptr<Attempt> a = std::move(att_);
    Walk& w = *walk_;
    AttemptRecord& rec = a->rec;
    const bool tried = rec.rung == Rung::kPrimary || rec.rung == Rung::kRetry;
    if (a->sys != nullptr) {
        rec.cycles = a->c;
        record_stop(rec, *a->sys);
        if (tried && rec.outcome == AttemptOutcome::kFinished &&
            !effective_params_intact(*a->sys, cfg_.params)) {
            // Finished, but not the requested job: an upset effective
            // parameter register (possibly restored from a snapshot taken
            // before the capture-time guard existed in the ladder walk) ran
            // a different GA to completion. Discard instead of delivering.
            rec.outcome = AttemptOutcome::kCorrupted;
            rec.best_fitness = rec.best_candidate = 0;
            rec.generations = 0;
        } else if (tried && rec.outcome == AttemptOutcome::kWatchdogIdle) {
            // Keep the tripped system alive: the restart and fallback rungs
            // can recover it in place (start_GA is sampled in kIdle — no
            // reset).
            w.idle_sys = std::move(a->own);
            w.idle_seed = rec.seed;
        }
    } else if (a->beh) {
        rec.outcome = AttemptOutcome::kFinished;
        rec.best_fitness = a->beh->best_fitness();
        rec.best_candidate = a->beh->best_candidate();
        rec.generations = a->beh->params().n_gens;
    } else if (a->gate) {
        const gates::BatchLaneResult& res = a->gate->lane_result(0);
        if (res.finished) {
            rec.outcome = AttemptOutcome::kFinished;
            rec.best_fitness = res.best_fitness;
            rec.best_candidate = res.best_candidate;
            rec.generations = res.generations;
            rec.cycles = res.ga_cycles;
        } else {
            rec.cycles = a->gate->cycles();
            rec.final_state = a->gate->lane_state(0);
            rec.outcome = rec.final_state == static_cast<std::uint8_t>(GaCore::State::kIdle)
                              ? AttemptOutcome::kWatchdogIdle
                              : AttemptOutcome::kWatchdogWedged;
        }
    }

    if (rec.rung != Rung::kPresetFallback) {
        if (book(rec, Status::kOk, /*trips=*/true)) return;
        // A retry that resumed from a checkpoint and still failed (or came
        // back corrupted) walks the checkpoint stack back one generation —
        // the snapshot itself may have captured corrupted state.
        if (rec.resumed) w.checkpoints.pop_back();
        if (rec.rung == Rung::kRestart && rec.outcome != AttemptOutcome::kWatchdogIdle)
            w.idle_sys.reset();
        return;
    }
    // Verify against the exact behavioral preset baseline: a degraded run
    // that cannot even reproduce the Table IV job is silent corruption —
    // abort instead of delivering it.
    const bool baseline = rec.best_fitness == preset_baseline_.best_fitness &&
                          rec.best_candidate == preset_baseline_.best_candidate;
    if (book(rec, baseline ? Status::kOkDegraded : Status::kAborted, /*trips=*/false)) return;
    rep_.abort_reason = rec.outcome == AttemptOutcome::kFinished
                            ? "preset fallback finished but mismatched the behavioral "
                              "baseline (silent corruption)"
                            : "preset fallback missed its cycle bound";
}

bool MissionSupervisor::book(const AttemptRecord& rec, Status status, bool trips) {
    rep_.attempts.push_back(rec);
    ++attempt_no_[rec.replica];
    rep_.total_cycles += rec.cycles;
    if (rec.outcome == AttemptOutcome::kFinished && status != Status::kAborted) {
        end_walk({.status = status,
                  .rung = rec.rung,
                  .answer = {rec.best_fitness, rec.best_candidate},
                  .generations = rec.generations});
        return true;
    }
    if (trips && (rec.outcome == AttemptOutcome::kWatchdogIdle ||
                  rec.outcome == AttemptOutcome::kWatchdogWedged)) {
        ++rep_.watchdog_trips;
        emit(trace::TraceEvent(trace::kind::kWatchdogTrip, 0, rep_.total_cycles)
                 .add("replica", std::uint64_t{rec.replica})
                 .add("attempt", std::uint64_t{rec.attempt})
                 .add("budget", rec.budget)
                 .add("final_state", std::uint64_t{rec.final_state})
                 .add("outcome", std::string(attempt_outcome_name(rec.outcome))));
    }
    return false;
}

void MissionSupervisor::end_walk(const ReplicaResult& res) {
    const unsigned r = walk_->replica;
    walk_.reset();
    results_[r] = res;
    if (vote_) {
        // A replacement: record whether it rejoined the majority.
        ReplicaVerdict& v = rep_.verdicts[r];
        v.status = res.status;
        v.best_fitness = res.answer.best_fitness;
        v.best_candidate = res.answer.best_candidate;
        v.in_majority = res.status != Status::kAborted && res.answer == vote_->answer;
    } else if (queue_.empty() && cfg_.nmr > 1) {
        // --- NMR vote on the delivered (fitness, candidate) pair ---------
        std::vector<std::optional<Answer>> answers(cfg_.nmr);
        for (unsigned q = 0; q < cfg_.nmr; ++q)
            if (results_[q].status != Status::kAborted) answers[q] = results_[q].answer;
        rep_.voted = true;
        vote_ = nmr_vote(answers, cfg_.sink, rep_.total_cycles);
        for (unsigned q = 0; q < cfg_.nmr; ++q) {
            ReplicaVerdict v;
            v.replica = q;
            v.backend = replica_backend(cfg_, q);
            v.status = results_[q].status;
            v.best_fitness = results_[q].answer.best_fitness;
            v.best_candidate = results_[q].answer.best_candidate;
            v.in_majority = vote_->majority && answers[q] == vote_->answer;
            rep_.verdicts.push_back(v);
            // Every dissenting or aborted replica is replaced.
            if (vote_->majority && !v.in_majority) queue_.push_back(q);
        }
    }
    if (queue_.empty()) return;
    const unsigned next = queue_.front();
    queue_.erase(queue_.begin());
    begin_walk(next);
}

SupervisorReport MissionSupervisor::finish() {
    SupervisorReport& rep = rep_;
    if (cfg_.nmr == 1) {
        const ReplicaResult& r = results_[0];
        rep.status = r.status;
        rep.final_rung = r.status == Status::kAborted ? Rung::kAbort : r.rung;
        rep.best_fitness = r.answer.best_fitness;
        rep.best_candidate = r.answer.best_candidate;
        rep.generations = r.generations;
    } else if (!vote_->majority) {
        rep.status = Status::kAborted;
        rep.final_rung = Rung::kAbort;
        rep.abort_reason = "no NMR majority (" + std::to_string(vote_->agree) + "/" +
                           std::to_string(cfg_.nmr) + " replicas agree)";
    } else {
        rep.vote_agree = 0;
        rep.status = Status::kOk;
        rep.final_rung = Rung::kPrimary;
        for (unsigned r = 0; r < cfg_.nmr; ++r) {
            if (!rep.verdicts[r].in_majority) continue;
            ++rep.vote_agree;
            if (results_[r].status == Status::kOkDegraded) rep.status = Status::kOkDegraded;
            rep.final_rung = std::max(rep.final_rung, results_[r].rung);
            rep.generations = results_[r].generations;
        }
        rep.best_fitness = vote_->answer.best_fitness;
        rep.best_candidate = vote_->answer.best_candidate;
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
