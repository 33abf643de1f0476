#include "rtl/kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace gaip::rtl {

namespace {
/// Marks `t` as the module currently driving wires (thread-local), so wires
/// can record their driver. Cleared on scope exit even if eval() throws —
/// a stale pointer would outlive the module on this thread otherwise.
struct DriverScope {
    explicit DriverScope(EvalTarget* t) noexcept { detail::g_current_driver = t; }
    ~DriverScope() { detail::g_current_driver = nullptr; }
    DriverScope(const DriverScope&) = delete;
    DriverScope& operator=(const DriverScope&) = delete;
};
}  // namespace

bool Kernel::full_settle_from_env() {
    const char* v = std::getenv("GAIP_KERNEL_FULL_SETTLE");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

Kernel::Kernel() : full_settle_(full_settle_from_env()) {}

Clock& Kernel::add_clock(std::string name, std::uint64_t freq_hz, SimTime phase_ps) {
    Domain d;
    d.clock = std::make_unique<Clock>(std::move(name), freq_hz, phase_ps);
    domains_.push_back(std::move(d));
    return *domains_.back().clock;
}

void Kernel::register_module(Module& m) {
    m.attach_kernel(&worklist_);  // throws if m is registered anywhere already
    all_modules_.push_back(&m);
    if (!m.event_driven()) legacy_.push_back(&m);
}

Kernel::Domain& Kernel::domain_of(const Clock& c, const char* caller) {
    for (Domain& d : domains_) {
        if (d.clock.get() == &c) return d;
    }
    throw std::invalid_argument(std::string(caller) + ": clock does not belong to this kernel");
}

void Kernel::bind(Module& m, Clock& c) {
    Domain& d = domain_of(c, "bind");
    register_module(m);
    d.modules.push_back(&m);
}

void Kernel::add_combinational(Module& m) {
    combinational_.push_back(&m);
    register_module(m);
}

void Kernel::reset() {
    for (Module* m : all_modules_) {
        m->reset_registers();
        m->reset_state();
    }
    for (Domain& d : domains_) d.clock->restart();
    now_ = 0;
    stats_ = KernelStats{};
    // Every module's state just moved: schedule a full first evaluation.
    discard_worklist();
    for (Module* m : all_modules_) {
        if (m->event_driven()) m->input_changed();
    }
    settle();
}

/// Evaluate queued event-driven modules until the queue runs dry. Modules
/// enqueue themselves (via Wire listeners) while the drain is in progress,
/// so this reaches the same fixed point a full sweep would — visiting only
/// modules whose inputs actually changed.
void Kernel::drain_worklist(std::uint64_t& evals, std::uint64_t max_evals) {
    for (std::size_t i = 0; i < worklist_.size(); ++i) {
        Module* m = worklist_[i];
        m->clear_dirty();
        {
            DriverScope scope(m);
            m->eval();
        }
        ++stats_.module_evals;
        if (++evals > max_evals)
            throw std::runtime_error("Kernel::settle: combinational loop did not converge");
    }
    worklist_.clear();
}

void Kernel::discard_worklist() {
    for (Module* m : worklist_) m->clear_dirty();
    worklist_.clear();
}

void Kernel::settle() {
    ++stats_.settle_calls;
    const std::size_t n = all_modules_.size();
    // Upper bound: each pass must change at least one wire to continue, and
    // a loop-free network of N modules settles within N passes.
    const std::size_t max_passes = n * 4 + 8;
    const std::uint64_t max_evals =
        static_cast<std::uint64_t>(max_passes) * static_cast<std::uint64_t>(std::max<std::size_t>(n, 1));
    std::uint64_t evals = 0;

    if (full_settle_) {
        // Escape hatch: the original evaluate-everything fixed-point sweep.
        // Wire listeners still fire during the sweep; their queue is
        // redundant here and is dropped after each pass.
        for (std::size_t pass = 0; pass < max_passes; ++pass) {
            const std::uint64_t before = wire_change_count();
            for (Module* m : all_modules_) {
                DriverScope scope(m);
                m->eval();
            }
            stats_.module_evals += n;
            ++stats_.settle_passes;
            discard_worklist();
            if (wire_change_count() == before) return;
        }
        throw std::runtime_error("Kernel::settle: combinational loop did not converge");
    }

    if (legacy_.empty()) {
        // Pure event-driven settle: one logical pass, visiting only pending
        // modules (usually a small fraction of the design).
        ++stats_.settle_passes;
        drain_worklist(evals, max_evals);
        stats_.modules_skipped += n > evals ? n - evals : 0;
        return;
    }

    // Mixed mode: modules without sensitivity info keep the sweep semantics;
    // event-driven modules ride along on the queue. Converges when a full
    // iteration (sweep + drain) changes no wire.
    for (std::size_t pass = 0; pass < max_passes; ++pass) {
        const std::uint64_t before = wire_change_count();
        const std::uint64_t evals_at_pass_start = evals;
        for (Module* m : legacy_) {
            DriverScope scope(m);
            m->eval();
        }
        stats_.module_evals += legacy_.size();
        evals += legacy_.size();
        ++stats_.settle_passes;
        drain_worklist(evals, max_evals);
        stats_.modules_skipped += n - std::min<std::uint64_t>(n, evals - evals_at_pass_start);
        if (wire_change_count() == before) return;
    }
    throw std::runtime_error("Kernel::settle: combinational loop did not converge");
}

void Kernel::step() {
    if (domains_.empty()) throw std::logic_error("Kernel::step: no clocks defined");

    SimTime t = std::numeric_limits<SimTime>::max();
    for (const Domain& d : domains_) t = std::min(t, d.clock->next_edge());
    now_ = t;
    ++stats_.time_points;

    settle();

    // Tick every module whose clock rises at t, then commit exactly those
    // modules' loaded registers (simultaneous flip-flop semantics). A module
    // whose registers changed is re-scheduled so its Moore outputs get
    // refreshed.
    ticked_.clear();
    for (Domain& d : domains_) {
        if (d.clock->next_edge() == t) {
            for (Module* m : d.modules) {
                m->tick();
                ticked_.push_back(m);
            }
            d.clock->advance();
        }
    }
    stats_.module_ticks += ticked_.size();
    for (Module* m : ticked_) {
        stats_.register_commits += m->pending_commits();
        if (m->commit_registers() && m->event_driven()) m->input_changed();
    }

    settle();

    for (KernelObserver* o : observers_) o->on_time_point(now_);
}

void Kernel::run_cycles(Clock& c, std::uint64_t n) {
    domain_of(c, "run_cycles");  // a foreign clock never advances here
    const std::uint64_t target = c.edges() + n;
    while (c.edges() < target) step();
}

bool Kernel::run_until(Clock& c, const std::function<bool()>& pred, std::uint64_t max_edges) {
    domain_of(c, "run_until");
    const std::uint64_t limit = c.edges() + max_edges;
    while (c.edges() < limit) {
        if (pred()) return true;
        step();
    }
    return pred();
}

}  // namespace gaip::rtl
