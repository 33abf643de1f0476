// Signal primitives of the cycle-level RTL model.
//
//  * Wire<T>  — a combinational net. Driven during Module::eval(); the kernel
//    re-evaluates modules until no wire changes (delta settling), so
//    combinational chains across modules resolve within a clock edge. A wire
//    additionally carries a listener list: modules that declared the wire as
//    an eval() input (Module::sense) are notified on every value change,
//    which is what powers the kernel's event-driven scheduler.
//  * Reg<T>   — a clocked register with two-phase semantics: Module::tick()
//    calls load(); the kernel commits the loaded registers of the ticked
//    modules after every module has sampled its inputs, which models
//    simultaneous edge-triggered flip-flops without ordering races. The
//    first load() of an edge puts the register on its owning module's
//    pending-commit list, so a commit touches only registers that were
//    loaded. commit() reports whether the stored value actually changed so
//    the scheduler can skip re-evaluating modules whose state is unchanged.
//
// Registers expose their raw bits (bits()/set_bits()), which powers the scan
// chain model and exact flip-flop counting for the resource report.
//
// Thread-safety contract: a Wire/Reg belongs to exactly one Kernel and must
// only be driven/committed from the thread currently running that kernel.
// The delta change counter is thread-local, so independent kernels on
// different worker threads (the parallel GA array) neither contend nor
// perturb each other's settling convergence checks.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bits.hpp"

namespace gaip::rtl {

namespace detail {
/// Per-thread delta-settling change counter. The kernel snapshots it before
/// an eval pass; any Wire::drive() that changes a value bumps it. Thread-
/// local (not a shared atomic) so kernels running concurrently on worker
/// threads cannot make each other's fixed-point check spuriously fail.
inline thread_local std::uint64_t g_wire_change_count = 0;

template <typename T>
constexpr std::uint64_t to_bits(const T& v) noexcept {
    if constexpr (std::is_same_v<T, bool>) {
        return v ? 1u : 0u;
    } else if constexpr (std::is_enum_v<T>) {
        return static_cast<std::uint64_t>(static_cast<std::underlying_type_t<T>>(v));
    } else {
        return static_cast<std::uint64_t>(v);
    }
}

template <typename T>
constexpr T from_bits(std::uint64_t b) noexcept {
    if constexpr (std::is_same_v<T, bool>) {
        return (b & 1u) != 0;
    } else if constexpr (std::is_enum_v<T>) {
        return static_cast<T>(static_cast<std::underlying_type_t<T>>(b));
    } else {
        return static_cast<T>(b);
    }
}
}  // namespace detail

inline std::uint64_t wire_change_count() noexcept {
    return detail::g_wire_change_count;
}

/// Implemented by Module: the callback a wire fires when its value changes,
/// so the kernel can re-evaluate exactly the modules that read it.
class EvalTarget {
public:
    virtual void input_changed() noexcept = 0;

protected:
    ~EvalTarget() = default;
};

namespace detail {
/// The module whose eval() is currently running on this thread (set by the
/// kernel). Wires use it to learn their driver, and to distinguish module
/// drives from external testbench pokes.
inline thread_local EvalTarget* g_current_driver = nullptr;
}  // namespace detail

/// Type-erased base of Wire<T>: the listener list lives here so modules can
/// register sensitivity without knowing the wire's payload type.
class WireBase {
public:
    /// Register `t` to be notified whenever the wire's value changes.
    /// Listeners are never deregistered; wires and the modules observing
    /// them belong to the same system object and die together.
    void add_listener(EvalTarget* t) { listeners_.push_back(t); }

protected:
    void notify_changed() noexcept {
        ++detail::g_wire_change_count;
        if (detail::g_current_driver != nullptr) {
            driver_ = detail::g_current_driver;
        } else if (driver_ != nullptr) {
            // External (testbench) poke of a module-driven net. Under the
            // evaluate-everything sweep, the driving module would overwrite
            // the poked value at the next settle; schedule that module so
            // the event-driven schedule behaves identically.
            driver_->input_changed();
        }
        for (EvalTarget* t : listeners_) t->input_changed();
    }

private:
    std::vector<EvalTarget*> listeners_;
    EvalTarget* driver_ = nullptr;
};

/// Combinational net. Default-constructed to T{} (all zeros / false).
template <typename T>
class Wire : public WireBase {
    static_assert(std::is_trivially_copyable_v<T>);

public:
    Wire() = default;
    explicit Wire(T initial) : value_(initial) {}

    const T& read() const noexcept { return value_; }

    /// Drive a new value; registers a delta change (and wakes listening
    /// modules) if the value differs.
    void drive(const T& v) {
        if (!(v == value_)) {
            value_ = v;
            notify_changed();
        }
    }

private:
    T value_{};
};

/// Type-erased register interface: commit/reset plus raw bit access used by
/// the scan chain, VCD tracing, and the resource model.
class RegBase {
public:
    RegBase(std::string name, unsigned width) : name_(std::move(name)), width_(width) {}
    virtual ~RegBase() = default;
    RegBase(const RegBase&) = delete;
    RegBase& operator=(const RegBase&) = delete;

    /// Apply the pending load, if any. Returns true iff the stored value
    /// changed (the scheduler uses this to skip settled modules).
    virtual bool commit() = 0;
    virtual void hard_reset() = 0;
    virtual std::uint64_t bits() const = 0;
    virtual void set_bits(std::uint64_t b) = 0;

    const std::string& name() const noexcept { return name_; }
    unsigned width() const noexcept { return width_; }

protected:
    /// Called by every load(): on the first load since the owner last
    /// committed, put the register on the owner's pending-commit list. The
    /// owner reserved room for every attached register and `queued_` keeps
    /// each one on the list at most once, so the push never reallocates.
    void enqueue() noexcept {
        if (!queued_ && pending_ != nullptr) {
            queued_ = true;
            pending_->push_back(this);
        }
    }

private:
    friend class Module;

    std::string name_;
    unsigned width_;
    std::vector<RegBase*>* pending_ = nullptr;  ///< owner's list (Module::attach)
    bool queued_ = false;                       ///< on *pending_ until the owner commits
};

/// Edge-triggered register of `width` bits (defaults to the full width of T).
template <typename T>
class Reg final : public RegBase {
    static_assert(std::is_trivially_copyable_v<T>);

public:
    Reg(std::string name, T reset_value = T{}, unsigned width = 8 * sizeof(T))
        : RegBase(std::move(name), width), reset_value_(reset_value), cur_(reset_value),
          nxt_(reset_value) {
        if (width > 64) throw std::invalid_argument("Reg width > 64");
    }

    const T& read() const noexcept { return cur_; }

    /// Schedule `v` to become the register value at commit (clock edge end).
    void load(const T& v) noexcept {
        nxt_ = v;
        loaded_ = true;
        enqueue();
    }

    bool commit() override {
        if (!loaded_) return false;
        loaded_ = false;
        const T next = mask(nxt_);
        if (next == cur_) return false;
        cur_ = next;
        return true;
    }

    void hard_reset() override {
        cur_ = reset_value_;
        nxt_ = reset_value_;
        loaded_ = false;
    }

    std::uint64_t bits() const override {
        return detail::to_bits(cur_) & util::low_mask(width());
    }

    void set_bits(std::uint64_t b) override {
        cur_ = detail::from_bits<T>(b & util::low_mask(width()));
        nxt_ = cur_;
        loaded_ = false;
    }

private:
    T mask(const T& v) const noexcept {
        if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
            return v;
        } else {
            return static_cast<T>(detail::to_bits(v) & util::low_mask(width()));
        }
    }

    T reset_value_;
    T cur_;
    T nxt_;
    bool loaded_ = false;
};

}  // namespace gaip::rtl
