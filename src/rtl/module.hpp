// Module base class of the cycle-level RTL model.
//
// A Module is a hardware block with
//   * eval()  — combinational logic: read registers + input wires, drive
//               output wires. Must be idempotent; the kernel calls it
//               repeatedly until all wires settle.
//   * tick()  — sequential logic: executed once per rising edge of the clock
//               the module is bound to. Reads wires/registers, loads
//               registers. Register commits are performed by the kernel
//               after every module at the edge has ticked; only registers
//               loaded since the module's last commit are visited.
//   * reset_state() — re-initialize registers / local state.
//
// Modules register their Reg<> members with attach() so the kernel can
// commit/reset them and so the scan chain, VCD tracer, and resource model
// can enumerate every flip-flop in the design. attach() also makes the
// module the register's owner: Reg::load() queues the register on the
// owner's pending-commit list, which commit_registers() drains.
//
// Event-driven scheduling: a module that declares the complete set of wires
// its eval() reads via sense(...) opts into the kernel's event-driven
// scheduler — its eval() is skipped whenever neither a sensed wire nor one
// of its own registers changed since the last evaluation. The contract is
// that such an eval() is a pure function of the sensed wires and the
// attached registers (no other mutable inputs). Call sense() with no
// arguments for a module whose eval() reads registers only. Modules that
// never call sense() keep the legacy semantics: they are re-evaluated in
// every settling pass.
//
// Tick elision: an event-driven module whose tick() is likewise a pure
// function of its sensed wires and attached registers declares so with
// pure_tick(). Its sensitivity list then also covers every wire tick()
// reads, and tick() touches nothing but its own registers and plain
// members that it derives from those inputs — so a tick that sees the same
// inputs as the previous one changes nothing. The kernel skips such a
// tick (and its commit) until the module has been woken since its last
// tick: by a sensed wire changing, by its own commit changing a register,
// by input_changed() (the rule for out-of-band edits: scan chain,
// checkpoint restore, pokes, software requests), or by Kernel::reset().
// Registers of such a module are loaded from tick() only. Modules that do
// not declare pure_tick() tick on every edge of their clock.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/signal.hpp"

namespace gaip::rtl {

class Module : public EvalTarget {
public:
    explicit Module(std::string name) : name_(std::move(name)) {}
    virtual ~Module() = default;
    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    /// Combinational function; default: none.
    virtual void eval() {}

    /// Sequential function, called at each rising edge of the bound clock.
    virtual void tick() {}

    /// Module-specific reset (beyond the automatic hard_reset of attached
    /// registers, which the kernel performs itself).
    virtual void reset_state() {}

    const std::string& name() const noexcept { return name_; }

    std::span<RegBase* const> registers() const noexcept { return regs_; }

    /// Total flip-flop bits in this module (resource model input).
    unsigned flipflop_bits() const noexcept {
        unsigned n = 0;
        for (const RegBase* r : regs_) n += r->width();
        return n;
    }

    /// Commit every register loaded since the last commit and empty the
    /// pending list; returns true iff any register value actually changed
    /// (i.e. the module's Moore outputs may move). A register whose load
    /// was dropped by set_bits()/hard_reset() stays listed and commits
    /// nothing.
    bool commit_registers() {
        bool changed = false;
        for (RegBase* r : pending_) {
            r->queued_ = false;
            changed |= r->commit();
        }
        pending_.clear();
        return changed;
    }

    /// Registers on the pending-commit list: the commit() calls the next
    /// commit_registers() makes.
    std::size_t pending_commits() const noexcept { return pending_.size(); }

    void reset_registers() {
        for (RegBase* r : regs_) r->hard_reset();
        for (RegBase* r : pending_) r->queued_ = false;
        pending_.clear();
    }

    /// True once the module declared its complete eval() sensitivity list
    /// (possibly empty) — the opt-in for event-driven scheduling.
    bool event_driven() const noexcept { return sensitivity_declared_; }

    /// True once the module declared pure_tick(): the opt-in for tick
    /// elision.
    bool pure_tick_declared() const noexcept { return pure_tick_; }

    // --- scheduler interface (used by Kernel) ---

    /// Wire-change callback: marks the module for re-evaluation and appends
    /// it to the kernel's worklist (once until re-evaluated), and wakes its
    /// tick.
    void input_changed() noexcept final {
        if (!woken_) {
            woken_ = true;
            if (wakes_ != nullptr) ++*wakes_;
        }
        if (!dirty_) {
            dirty_ = true;
            if (worklist_ != nullptr) worklist_->push_back(this);
        }
    }

    /// Register the module with a kernel, once: a module belongs to exactly
    /// one kernel and is ticked at most once per edge, so a second call
    /// throws std::invalid_argument. An event-driven module also gets the
    /// kernel's worklist to enqueue itself on. One whose inputs moved
    /// before it was bound (wires driven during system construction) is
    /// enqueued right away — its dirty flag is already set, so later
    /// input_changed() calls would short-circuit and never queue it. A
    /// clocked pure-tick module also gets the kernel's count of woken pure
    /// ticks (`wakes`; null for a combinational module) and joins it while
    /// woken.
    void attach_kernel(std::vector<Module*>* worklist, std::size_t* wakes) {
        if (in_kernel_)
            throw std::invalid_argument("module '" + name_ +
                                        "' is already registered with a kernel");
        if (pure_tick_ && !event_driven())
            throw std::invalid_argument("module '" + name_ +
                                        "' declares pure_tick() without a sensitivity list");
        in_kernel_ = true;
        if (!event_driven()) return;
        worklist_ = worklist;
        if (dirty_) worklist_->push_back(this);
        if (pure_tick_ && wakes != nullptr) {
            wakes_ = wakes;
            if (woken_) ++*wakes_;
        }
    }

    bool dirty() const noexcept { return dirty_; }
    void clear_dirty() noexcept { dirty_ = false; }

    /// Whether tick() has to run at this edge: always, unless the module
    /// declared pure_tick() and has not been woken since its last tick.
    bool tick_due() const noexcept { return woken_ || !pure_tick_; }
    /// Called right before tick(): the wakes seen so far are consumed.
    void clear_wake() noexcept {
        if (woken_) {
            woken_ = false;
            if (wakes_ != nullptr) --*wakes_;
        }
    }

protected:
    void attach(RegBase& r) {
        regs_.push_back(&r);
        pending_.reserve(regs_.size());
        r.pending_ = &pending_;
    }

    template <typename... Rs>
    void attach_all(Rs&... rs) {
        (attach(rs), ...);
    }

    /// Declare the complete set of wires eval() reads. Callable multiple
    /// times (e.g. as inputs are wired up incrementally); with no arguments
    /// it declares an empty sensitivity list (eval() reads registers only).
    template <typename... Ws>
    void sense(Ws&... ws) {
        sensitivity_declared_ = true;
        (static_cast<WireBase&>(ws).add_listener(this), ...);
    }

    /// Declare tick() a pure function of the sensed wires and the attached
    /// registers (see "Tick elision" above): the kernel may then skip it on
    /// edges where nothing woke the module. Requires sense().
    void pure_tick() noexcept { pure_tick_ = true; }

private:
    std::string name_;
    std::vector<RegBase*> regs_;
    std::vector<RegBase*> pending_;  ///< loaded since the last commit, each once
    std::vector<Module*>* worklist_ = nullptr;
    std::size_t* wakes_ = nullptr;  ///< the kernel's woken pure-tick count
    bool dirty_ = false;
    bool woken_ = true;  ///< a fresh module ticks at its first edge
    bool sensitivity_declared_ = false;
    bool pure_tick_ = false;
    bool in_kernel_ = false;
};

}  // namespace gaip::rtl
