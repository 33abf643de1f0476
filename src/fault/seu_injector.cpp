#include "fault/seu_injector.hpp"

#include <stdexcept>

#include "system/ga_system.hpp"

namespace gaip::fault {

namespace {

using core::GaCore;

system::GaSystemConfig system_config(const InjectorConfig& cfg) {
    system::GaSystemConfig scfg;
    scfg.params = cfg.params;
    scfg.internal_fems = {cfg.fn};
    scfg.keep_populations = false;
    return scfg;
}

/// Golden-trajectory entry: the per-cycle observation the divergence
/// detector compares (controller state + best fitness so far).
std::uint32_t traj_entry(const GaCore& core) {
    return static_cast<std::uint32_t>(core.state()) |
           (static_cast<std::uint32_t>(core.best_fitness()) << 8);
}

}  // namespace

SeuInjector::SeuInjector(InjectorConfig cfg) : cfg_(cfg) {
    if (cfg_.watchdog_factor < 2)
        throw std::invalid_argument("SeuInjector: watchdog_factor must be >= 2");
    if ((cfg_.fallback_preset & 0x3) == 0)
        throw std::invalid_argument("SeuInjector: fallback_preset must be a preset mode (1..3)");

    // Golden run: the manual cycle loop (not GaSystem::run) so the cycle
    // numbering is identical to every faulted run.
    system::GaSystem sys(system_config(cfg_));
    if (!sys.start()) throw std::runtime_error("SeuInjector: optimizer never started");
    for (const rtl::RegBase* r : sys.core().scan_chain().registers())
        layout_.emplace_back(r->name(), r->width());
    chain_length_ = sys.core().scan_chain().length();

    const std::uint64_t bound = sys.cycle_bound();
    std::uint64_t c = 0;
    while (sys.core().state() != GaCore::State::kDone) {
        if (++c > bound) throw std::runtime_error("SeuInjector: golden run exceeded bound");
        sys.ga_cycle();
        golden_traj_.push_back(traj_entry(sys.core()));
    }
    golden_.best_fitness = sys.best_fitness();
    golden_.best_candidate = sys.best_candidate();
    golden_.generations = sys.core().generation();
    golden_.ga_cycles = c;

    preset_baseline_ = fault::preset_baseline(cfg_.fn, cfg_.fallback_preset);
}

FaultRecord SeuInjector::run_rtl(const FaultSite& site, InjectBackend backend) const {
    if (backend == InjectBackend::kLaneMask)
        throw std::invalid_argument("SeuInjector::run_rtl: kLaneMask runs via FaultCampaign");

    system::GaSystemConfig scfg = system_config(cfg_);
    scfg.trace_sink = sink_;  // faulted runs stream full telemetry when set
    system::GaSystem sys(scfg);
    if (!sys.start()) throw std::runtime_error("SeuInjector: optimizer never started");
    GaCore& core = sys.core();
    rtl::ScanChain& chain = core.scan_chain();
    const unsigned pos = chain.position_of(site.reg, site.bit);

    FaultRecord rec;
    rec.site = site;

    // Advance to the first scan-safe cycle >= site.cycle (cycle 0 = kStart).
    std::uint64_t c = 0;
    while (c < site.cycle || !scan_safe_state(core.state())) {
        if (c >= golden_.ga_cycles)
            throw std::runtime_error("SeuInjector: no scan-safe cycle at/after site.cycle");
        sys.ga_cycle();
        ++c;
    }
    rec.inject_cycle = c;

    if (backend == InjectBackend::kPoke) {
        chain.flip(pos);
        core.input_changed();  // re-evaluate the Moore outputs pre-edge
    } else {
        // Scan-chain read-modify-write through the pins: rotate the whole
        // chain once, feeding every tail bit back into scanin — inverted at
        // the iteration that returns it to snapshot position `pos`. The
        // optimizer is frozen (test mode) for these length() cycles; they
        // are not counted against the cycle budget.
        const unsigned len = chain.length();
        sys.wires().test.drive(true);
        for (unsigned i = 0; i < len; ++i) {
            const bool out = chain.tail();
            sys.wires().scanin.drive(out != (i == len - 1 - pos));
            sys.ga_cycle();
        }
        sys.wires().test.drive(false);
        sys.wires().scanin.drive(false);
    }

    if (sink_ != nullptr) {
        trace::TraceEvent e(trace::kind::kFaultInject, sys.kernel().now(), c);
        e.add("reg", site.reg)
            .add("bit", static_cast<std::uint64_t>(site.bit))
            .add("site_cycle", static_cast<std::uint64_t>(site.cycle))
            .add("inject_cycle", static_cast<std::uint64_t>(rec.inject_cycle))
            .add("chain_pos", static_cast<std::uint64_t>(pos))
            .add("backend", std::string(backend_name(backend)));
        sink_->on_event(e);
    }

    // Run to GA_done under the watchdog; when tracing, compare each cycle
    // against the golden trajectory and flag the first departure.
    const std::uint64_t watchdog = watchdog_cycles();
    bool diverged = false;
    while (core.state() != GaCore::State::kDone && c < watchdog) {
        sys.ga_cycle();
        ++c;
        if (sink_ != nullptr && !diverged) {
            const std::uint32_t got = traj_entry(core);
            const bool in_golden = c - 1 < golden_traj_.size();
            const std::uint32_t want = in_golden ? golden_traj_[c - 1] : ~std::uint32_t{0};
            if (got != want) {
                diverged = true;
                trace::TraceEvent e(trace::kind::kDivergence, sys.kernel().now(), c);
                e.add("state", static_cast<std::uint64_t>(got & 0xFF))
                    .add("best_fit", static_cast<std::uint64_t>(got >> 8));
                if (in_golden) {
                    e.add("golden_state", static_cast<std::uint64_t>(want & 0xFF))
                        .add("golden_best_fit", static_cast<std::uint64_t>(want >> 8));
                } else {
                    e.add("past_golden_end", std::uint64_t{1});
                }
                sink_->on_event(e);
            }
        }
    }
    rec.finished = core.state() == GaCore::State::kDone;
    rec.final_state = static_cast<std::uint8_t>(core.state());
    if (rec.finished) {
        rec.best_fitness = sys.best_fitness();
        rec.best_candidate = sys.best_candidate();
        rec.ga_cycles = c;
    }
    rec.outcome = classify(rec.finished, rec.best_fitness, rec.best_candidate, rec.final_state,
                           golden_);
    return rec;
}

bool SeuInjector::validate_preset_fallback(const FaultSite& site, FaultRecord* observed) const {
    system::GaSystemConfig scfg = system_config(cfg_);
    scfg.trace_sink = sink_;  // the tap's `preset` event marks the fallback
    system::GaSystem sys(scfg);
    if (!sys.start()) throw std::runtime_error("SeuInjector: optimizer never started");
    GaCore& core = sys.core();

    std::uint64_t c = 0;
    while (c < site.cycle || !scan_safe_state(core.state())) {
        if (c >= golden_.ga_cycles) return false;
        sys.ga_cycle();
        ++c;
    }
    core.scan_chain().flip(core.scan_chain().position_of(site.reg, site.bit));
    core.input_changed();

    sys.run_to(system::GaSystem::kEnd, watchdog_cycles() - c);
    // The fallback only applies to watchdog trips that parked the FSM in
    // kIdle (anywhere else start_GA is not sampled and only reset helps).
    if (core.state() != GaCore::State::kIdle) return false;

    // Supervisor action: select the preset mode and re-pulse start_GA
    // through the application module's hung-run recovery path (start_ga is
    // a module-driven net — an external poke would be overwritten at the
    // next settle). No reset: the preset path must not depend on any
    // (possibly corrupted) programmed state.
    sys.wires().preset.drive(cfg_.fallback_preset & 0x3);
    sys.app_module().request_restart();
    sys.ga_cycle();
    sys.ga_cycle();
    sys.ga_cycle();
    sys.ga_cycle();

    const std::uint64_t fc =
        sys.run_to(system::GaSystem::kEnd,
                   core::cycle_bound(core::preset_parameters(cfg_.fallback_preset)))
            .cycles;

    FaultRecord rec;
    rec.site = site;
    rec.finished = core.state() == GaCore::State::kDone;
    rec.final_state = static_cast<std::uint8_t>(core.state());
    if (rec.finished) {
        rec.best_fitness = sys.best_fitness();
        rec.best_candidate = sys.best_candidate();
        rec.ga_cycles = fc;
    }
    rec.outcome = FaultOutcome::kRecovered;
    if (observed != nullptr) *observed = rec;

    return rec.finished && rec.best_fitness == preset_baseline_.best_fitness &&
           rec.best_candidate == preset_baseline_.best_candidate;
}

}  // namespace gaip::fault
