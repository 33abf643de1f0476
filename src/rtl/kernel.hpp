// The cycle-level simulation kernel.
//
// Execution model per processed time point t:
//   1. settle(): re-evaluate modules until no Wire changes (bounded; throws
//      on a combinational loop).
//   2. tick() every module bound to a clock whose rising edge falls at t
//      (multiple domains can coincide, e.g. 50 MHz and 200 MHz every 20 ns).
//   3. commit the registers of exactly the ticked modules; modules whose
//      registers actually changed are marked for re-evaluation. Each module
//      keeps a pending-commit list that Reg::load() fills (each register at
//      most once per edge), so a commit visits only the registers loaded
//      since the module last ticked, not every attached flip-flop. A load
//      into a module that does not tick at t stays pending until its own
//      clock's next edge.
//   4. settle() again so Moore outputs reflect the new state before the
//      next domain's edge.
//
// This is the standard two-phase synchronous-RTL semantics: all flip-flops
// of a domain sample their D inputs simultaneously.
//
// Scheduling: settle() is event-driven. Modules that declared their eval()
// sensitivity (Module::sense) are only re-evaluated when a sensed wire or
// one of their own registers changed since their last eval(); modules that
// did not are swept in full fixed-point passes exactly like the original
// kernel. Setting the environment variable GAIP_KERNEL_FULL_SETTLE=1 (or
// calling set_full_settle(true)) forces the original sweep for every module
// — the escape hatch differential tests compare against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rtl/clock.hpp"
#include "rtl/module.hpp"

namespace gaip::rtl {

/// Attach point for tracing/instrumentation: observers are invoked once per
/// processed time point, after the post-tick settle, when every wire and
/// register holds its final value for that instant. The VCD tracer
/// (trace::VcdWriter) attaches through this.
class KernelObserver {
public:
    virtual ~KernelObserver() = default;
    virtual void on_time_point(SimTime t) = 0;
};

/// Scheduler cost counters, cleared by Kernel::reset(). The model's own
/// simulation cost metric (host work), not modeled hardware time.
struct KernelStats {
    std::uint64_t time_points = 0;     ///< processed clock-edge instants
    std::uint64_t settle_calls = 0;    ///< settle() invocations (2 per time point + resets)
    std::uint64_t settle_passes = 0;   ///< fixed-point sweep iterations executed
    std::uint64_t module_evals = 0;    ///< individual Module::eval() calls
    std::uint64_t modules_skipped = 0; ///< evals avoided vs. one full sweep per settle pass
    std::uint64_t module_ticks = 0;    ///< Module::tick() calls
    std::uint64_t register_commits = 0;  ///< RegBase::commit() calls (loaded registers only)

    double evals_per_time_point() const noexcept {
        return time_points == 0 ? 0.0
                                : static_cast<double>(module_evals) /
                                      static_cast<double>(time_points);
    }
};

class Kernel {
public:
    Kernel();

    /// Define a clock domain. The returned reference stays valid for the
    /// kernel's lifetime.
    Clock& add_clock(std::string name, std::uint64_t freq_hz, SimTime phase_ps = 0);

    /// Bind a module to a clock domain (tick on its rising edges). A module
    /// is registered with one kernel, once: binding or adding a module that
    /// is already registered (here or with another kernel) throws
    /// std::invalid_argument, as does a clock of another kernel.
    void bind(Module& m, Clock& c);

    /// Register a purely combinational module (eval only, never ticked).
    /// Same one-registration rule as bind().
    void add_combinational(Module& m);

    /// Hard-reset: resets every module's registers and state, rewinds all
    /// clocks, time, and stats to zero, then settles combinational logic.
    void reset();

    /// Advance simulation until `n` further rising edges of `c` have been
    /// processed. Throws std::invalid_argument if `c` is not this kernel's.
    void run_cycles(Clock& c, std::uint64_t n);

    /// Advance until `pred()` becomes true (checked after each time point)
    /// or `max_edges` edges of `c` elapse. Returns true if pred fired.
    /// Throws std::invalid_argument if `c` is not this kernel's.
    bool run_until(Clock& c, const std::function<bool()>& pred, std::uint64_t max_edges);

    /// Process exactly one time point (the earliest pending clock edge).
    void step();

    SimTime now() const noexcept { return now_; }

    /// Attach a per-time-point observer (optional, e.g. a VCD tracer). The
    /// kernel does not own it; observers run in attachment order.
    void add_observer(KernelObserver* o) {
        if (o != nullptr) observers_.push_back(o);
    }
    /// Detach a previously attached observer (no-op if absent).
    void remove_observer(const KernelObserver* o) noexcept {
        std::erase(observers_, o);
    }

    std::span<Module* const> modules() const noexcept { return all_modules_; }

    /// Number of delta-settling sweep passes executed (legacy alias of
    /// stats().settle_passes).
    std::uint64_t eval_passes() const noexcept { return stats_.settle_passes; }

    const KernelStats& stats() const noexcept { return stats_; }

    /// Force the original evaluate-everything fixed-point sweep (the
    /// GAIP_KERNEL_FULL_SETTLE escape hatch, programmatically).
    void set_full_settle(bool on) noexcept { full_settle_ = on; }
    bool full_settle() const noexcept { return full_settle_; }

    /// True when the GAIP_KERNEL_FULL_SETTLE environment variable requests
    /// the sweep scheduler (any value but "0" / empty counts as set).
    static bool full_settle_from_env();

private:
    void settle();
    void drain_worklist(std::uint64_t& evals, std::uint64_t max_evals);
    void discard_worklist();
    void register_module(Module& m);

    struct Domain {
        std::unique_ptr<Clock> clock;
        std::vector<Module*> modules;
    };

    /// The domain of `c`; throws std::invalid_argument naming `caller` if
    /// `c` belongs to another kernel.
    Domain& domain_of(const Clock& c, const char* caller);

    std::vector<Domain> domains_;
    std::vector<Module*> combinational_;
    std::vector<Module*> all_modules_;
    std::vector<Module*> legacy_;    ///< modules without a sensitivity list
    std::vector<Module*> worklist_;  ///< event-driven modules pending eval
    std::vector<Module*> ticked_;    ///< step()'s modules ticked at now_; keeps its capacity
    SimTime now_ = 0;
    KernelStats stats_;
    bool full_settle_ = false;
    std::vector<KernelObserver*> observers_;
};

}  // namespace gaip::rtl
