#include "rtl/kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Settle bounds: each pass must change at least one wire to continue, and
/// a loop-free network of n modules settles within n passes.
std::size_t max_passes(std::size_t n) { return n * 4 + 8; }
std::uint64_t max_evals(std::size_t n) {
    return static_cast<std::uint64_t>(max_passes(n)) *
           static_cast<std::uint64_t>(std::max<std::size_t>(n, 1));
}
}  // namespace

bool Kernel::full_settle_from_env() {
    const char* v = std::getenv("GAIP_KERNEL_FULL_SETTLE");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

Kernel::Kernel() : full_settle_(full_settle_from_env()) {}

Clock& Kernel::add_clock(std::string name, std::uint64_t freq_hz, SimTime phase_ps) {
    if (cursor_ != 0 || cycle_base_ != 0)
        throw std::logic_error("Kernel::add_clock: clocks are defined before the first step");
    Domain d;
    d.clock = std::make_unique<Clock>(std::move(name), freq_hz, phase_ps);
    if (phase_ps >= d.clock->period_ps())
        throw std::invalid_argument("Kernel::add_clock: phase must be below the period");
    d.clock->kernel_ = this;
    domains_.push_back(std::move(d));
    try {
        build_schedule();
    } catch (...) {
        domains_.pop_back();
        build_schedule();
        throw;
    }
    return *domains_.back().clock;
}

void Kernel::build_schedule() {
    // The schedule cycle: lcm of the periods. Every phase is below its
    // period, so the edges in [0, cycle) repeat with the cycle from t = 0.
    SimTime cycle = 1;
    for (const Domain& d : domains_) {
        const SimTime p = d.clock->period_ps();
        const SimTime g = std::gcd(cycle, p);
        if (cycle / g > std::numeric_limits<SimTime>::max() / p)
            throw std::invalid_argument("Kernel: clock periods have no representable lcm");
        cycle = cycle / g * p;
    }
    std::uint64_t edges = 0;
    for (const Domain& d : domains_) {
        edges += cycle / d.clock->period_ps();
        if (edges > kMaxScheduleSlots)
            throw std::invalid_argument("Kernel: the clocks' tick schedule exceeds " +
                                        std::to_string(kMaxScheduleSlots) + " edges");
    }

    // Every edge of the cycle as (time, domain index), in time then domain
    // order — the order the old earliest-edge search processed them in.
    std::vector<std::pair<SimTime, std::size_t>> order;
    order.reserve(edges);
    for (std::size_t i = 0; i < domains_.size(); ++i) {
        const Clock& c = *domains_[i].clock;
        for (SimTime t = c.phase_ps(); t < cycle; t += c.period_ps()) order.emplace_back(t, i);
    }
    std::sort(order.begin(), order.end());

    slots_.clear();
    slot_edges_.clear();
    slot_modules_.clear();
    for (const auto& [t, i] : order) {
        if (slots_.empty() || slots_.back().offset != t) {
            const auto e = static_cast<std::uint32_t>(slot_edges_.size());
            slots_.push_back(Slot{t, e, e, true});
        }
        const Domain& d = domains_[i];
        const auto m = static_cast<std::uint32_t>(slot_modules_.size());
        slot_modules_.insert(slot_modules_.end(), d.modules.begin(), d.modules.end());
        const bool pure_only = std::all_of(d.modules.begin(), d.modules.end(),
                                           [](const Module* mod) { return mod->pure_tick_declared(); });
        slot_edges_.push_back(SlotEdge{d.clock.get(), m,
                                       static_cast<std::uint32_t>(slot_modules_.size()), pure_only});
        ++slots_.back().edges_end;
        slots_.back().pure_only &= pure_only;
    }
    cycle_ps_ = cycle;
}

void Kernel::register_module(Module& m, std::size_t* wakes) {
    m.attach_kernel(&worklist_, wakes);  // throws if m is registered anywhere already
    all_modules_.push_back(&m);
    if (!m.event_driven()) legacy_.push_back(&m);
}

void Kernel::throw_foreign_clock(const char* caller) {
    throw std::invalid_argument(std::string(caller) + ": clock does not belong to this kernel");
}

void Kernel::bind(Module& m, Clock& c) {
    check_owned(c, "bind");
    register_module(m, &woken_pure_);
    for (Domain& d : domains_) {
        if (d.clock.get() == &c) d.modules.push_back(&m);
    }
    build_schedule();
}

void Kernel::add_combinational(Module& m) {
    combinational_.push_back(&m);
    register_module(m, nullptr);
}

void Kernel::reset() {
    for (Module* m : all_modules_) {
        m->reset_registers();
        m->reset_state();
    }
    for (Domain& d : domains_) d.clock->restart();
    cursor_ = 0;
    cycle_base_ = 0;
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
void Kernel::drain_worklist(std::uint64_t& evals, std::uint64_t budget) {
    for (std::size_t i = 0; i < worklist_.size(); ++i) {
        Module* m = worklist_[i];
        m->clear_dirty();
        {
            DriverScope scope(m);
            m->eval();
        }
        ++stats_.module_evals;
        if (++evals > budget)
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
    if (full_settle_ || !legacy_.empty()) {
        settle_sweep();
        return;
    }
    // Pure event-driven settle: one logical pass, visiting only pending
    // modules (usually none, or a small fraction of the design).
    const std::size_t n = all_modules_.size();
    std::uint64_t evals = 0;
    if (!worklist_.empty()) drain_worklist(evals, max_evals(n));
    ++stats_.settle_passes;
    stats_.modules_skipped += n > evals ? n - evals : 0;
}

void Kernel::settle_sweep() {
    const std::size_t n = all_modules_.size();
    const std::size_t passes = max_passes(n);
    std::uint64_t evals = 0;

    if (full_settle_) {
        // Escape hatch: the original evaluate-everything fixed-point sweep.
        // Wire listeners still fire during the sweep; their queue is
        // redundant here and is dropped after each pass.
        for (std::size_t pass = 0; pass < passes; ++pass) {
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

    // Mixed mode: modules without sensitivity info keep the sweep semantics;
    // event-driven modules ride along on the queue. Converges when a full
    // iteration (sweep + drain) changes no wire.
    for (std::size_t pass = 0; pass < passes; ++pass) {
        const std::uint64_t before = wire_change_count();
        const std::uint64_t evals_at_pass_start = evals;
        for (Module* m : legacy_) {
            DriverScope scope(m);
            m->eval();
        }
        stats_.module_evals += legacy_.size();
        evals += legacy_.size();
        ++stats_.settle_passes;
        drain_worklist(evals, max_evals(n));
        stats_.modules_skipped += n - std::min<std::uint64_t>(n, evals - evals_at_pass_start);
        if (wire_change_count() == before) return;
    }
    throw std::runtime_error("Kernel::settle: combinational loop did not converge");
}

void Kernel::step() {
    if (slots_.empty()) throw std::logic_error("Kernel::step: no clocks defined");

    const Slot& slot = slots_[cursor_];
    now_ = cycle_base_ + slot.offset;
    if (++cursor_ == slots_.size()) {
        cursor_ = 0;
        cycle_base_ += cycle_ps_;
    }
    ++stats_.time_points;

    if (slot.pure_only && woken_pure_ == 0 && worklist_.empty() && legacy_.empty() &&
        !full_settle_) {
        // Quiescent time point: nothing to settle and every tick here is a
        // pure one nothing woke, so only the clocks and observers move.
        for (std::uint32_t e = slot.edges_begin; e < slot.edges_end; ++e)
            slot_edges_[e].clock->advance();
        for (KernelObserver* o : observers_) o->on_time_point(now_);
        return;
    }

    settle();

    // Tick every module whose clock rises at t (minus the pure ticks nothing
    // woke), then commit exactly the ticked modules' loaded registers
    // (simultaneous flip-flop semantics). A module whose registers changed
    // is re-scheduled so its Moore outputs get refreshed.
    ticked_.clear();
    for (std::uint32_t e = slot.edges_begin; e < slot.edges_end; ++e) {
        const SlotEdge& edge = slot_edges_[e];
        if (full_settle_ || !edge.pure_only || woken_pure_ != 0) {
            for (std::uint32_t i = edge.modules_begin; i < edge.modules_end; ++i) {
                Module* m = slot_modules_[i];
                if (!full_settle_ && !m->tick_due()) continue;
                m->clear_wake();
                m->tick();
                ticked_.push_back(m);
            }
        }
        edge.clock->advance();
    }
    stats_.module_ticks += ticked_.size();
    for (Module* m : ticked_) {
        stats_.register_commits += m->pending_commits();
        if (m->commit_registers() && m->event_driven()) m->input_changed();
    }

    settle();

    for (KernelObserver* o : observers_) o->on_time_point(now_);
}

}  // namespace gaip::rtl
