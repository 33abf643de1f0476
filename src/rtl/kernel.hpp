// The cycle-level simulation kernel.
//
// Execution model per processed time point t:
//   1. settle(): re-evaluate modules until no Wire changes (bounded; throws
//      on a combinational loop).
//   2. tick() every module bound to a clock whose rising edge falls at t
//      (multiple domains can coincide, e.g. 50 MHz and 200 MHz every 20 ns),
//      domain by domain in add_clock() order and, within a domain, in bind()
//      order; each domain's clock advances right after its modules ticked.
//      A module that declared pure_tick() (Module) is skipped at an edge
//      unless something woke it since its last tick — a skipped tick would
//      have changed nothing.
//   3. commit the registers of exactly the ticked modules; modules whose
//      registers actually changed are marked for re-evaluation (and woken).
//      Each module keeps a pending-commit list that Reg::load() fills (each
//      register at most once per edge), so a commit visits only the
//      registers loaded since the module last ticked, not every attached
//      flip-flop. A load into a module that does not tick at t stays
//      pending until its own clock's next edge.
//   4. settle() again so Moore outputs reflect the new state before the
//      next domain's edge.
//
// This is the standard two-phase synchronous-RTL semantics: all flip-flops
// of a domain sample their D inputs simultaneously.
//
// Time points come from a static tick schedule: add_clock() and bind()
// build the cyclic edge table of the clocks — one slot per distinct edge
// time in the lcm of the periods, each holding the clocks that rise there
// and the modules they tick, in the order above. For the DCM pair that is
// 4 slots per 20 ns: slot 0 ticks the GA (50 MHz) and app (200 MHz)
// domains, slots 1-3 the app domain only. step() walks the table; a clock
// set whose table would exceed kMaxScheduleSlots is rejected. A time point
// whose modules all declared pure_tick(), with no module woken and no eval
// pending, is quiescent: steps 1-4 would do nothing, so only its clocks
// advance and the observers run (no settle() is counted for it).
//
// Scheduling: settle() is event-driven. Modules that declared their eval()
// sensitivity (Module::sense) are only re-evaluated when a sensed wire or
// one of their own registers changed since their last eval(); modules that
// did not are swept in full fixed-point passes exactly like the original
// kernel. Setting the environment variable GAIP_KERNEL_FULL_SETTLE=1 (or
// calling set_full_settle(true)) forces the original sweep for every module
// and ticks every module at every edge of its clock — the reference path
// differential tests compare against.
#pragma once

#include <cstdint>
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
    std::uint64_t settle_calls = 0;    ///< settle() invocations (2 per busy time point + resets)
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

    /// Most clock edges one cycle of the tick schedule (the lcm of the
    /// periods) may hold: the DCM pair has 5 edges in 4 slots, 1 MHz beside
    /// 200 MHz 201 edges in 200 slots.
    static constexpr std::size_t kMaxScheduleSlots = 4096;

    /// Define a clock domain. The returned reference stays valid for the
    /// kernel's lifetime. Throws std::invalid_argument if the phase is not
    /// below the period or the clock set's tick schedule would exceed
    /// kMaxScheduleSlots, and std::logic_error once the kernel has stepped
    /// (clocks are defined before the first step, or reset() follows).
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
    void run_cycles(const Clock& c, std::uint64_t n) {
        check_owned(c, "run_cycles");
        const std::uint64_t target = c.edges() + n;
        while (c.edges() < target) step();
    }

    /// Advance until `pred()` becomes true (checked after each time point)
    /// or `max_edges` edges of `c` elapse. Returns true if pred fired.
    /// Throws std::invalid_argument if `c` is not this kernel's.
    template <typename Pred>
    bool run_until(const Clock& c, Pred&& pred, std::uint64_t max_edges) {
        check_owned(c, "run_until");
        const std::uint64_t limit = c.edges() + max_edges;
        while (c.edges() < limit) {
            if (pred()) return true;
            step();
        }
        return pred();
    }

    /// Process exactly one time point (the next slot of the tick schedule).
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
    void drain_worklist(std::uint64_t& evals, std::uint64_t budget);
    void discard_worklist();
    void register_module(Module& m, std::size_t* wakes);
    void settle_sweep();
    void build_schedule();

    /// Throws std::invalid_argument naming `caller` unless `c` is this
    /// kernel's clock.
    void check_owned(const Clock& c, const char* caller) const {
        if (c.kernel_ != this) throw_foreign_clock(caller);
    }
    [[noreturn]] static void throw_foreign_clock(const char* caller);

    struct Domain {
        std::unique_ptr<Clock> clock;
        std::vector<Module*> modules;
    };

    /// One clock rising in a schedule slot, with the modules it ticks:
    /// slot_modules_[modules_begin, modules_end). `pure_only`: every one of
    /// them declared pure_tick().
    struct SlotEdge {
        Clock* clock;
        std::uint32_t modules_begin;
        std::uint32_t modules_end;
        bool pure_only;
    };
    /// One time point of the schedule cycle: its offset from the cycle
    /// start and its rising clocks, slot_edges_[edges_begin, edges_end).
    /// `pure_only`: so are all of its edges.
    struct Slot {
        SimTime offset;
        std::uint32_t edges_begin;
        std::uint32_t edges_end;
        bool pure_only;
    };

    std::vector<Domain> domains_;
    std::vector<Module*> combinational_;
    std::vector<Module*> all_modules_;
    std::vector<Module*> legacy_;    ///< modules without a sensitivity list
    std::vector<Module*> worklist_;  ///< event-driven modules pending eval
    std::vector<Module*> ticked_;    ///< step()'s modules ticked at now_; keeps its capacity

    // The tick schedule (build_schedule()) and the position in it.
    std::vector<Slot> slots_;
    std::vector<SlotEdge> slot_edges_;
    std::vector<Module*> slot_modules_;
    SimTime cycle_ps_ = 0;   ///< schedule period: lcm of the clock periods
    std::size_t cursor_ = 0; ///< the next slot step() processes
    SimTime cycle_base_ = 0; ///< start time of the current schedule cycle
    /// Clocked pure-tick modules woken since their last tick: while zero,
    /// an edge whose modules are all pure ticks none of them.
    std::size_t woken_pure_ = 0;

    SimTime now_ = 0;
    KernelStats stats_;
    bool full_settle_ = false;
    std::vector<KernelObserver*> observers_;
};

}  // namespace gaip::rtl
