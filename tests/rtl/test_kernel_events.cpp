// Event-driven scheduler tests: sensitivity declarations, dirty tracking,
// the stats counters, tick elision (Module::pure_tick), the static tick
// schedule, and equivalence with the evaluate-everything sweep
// (GAIP_KERNEL_FULL_SETTLE / Kernel::set_full_settle).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "rtl/kernel.hpp"

namespace gaip::rtl {
namespace {

/// Free-running counter, event-driven (eval reads its register only).
class ECounter final : public Module {
public:
    ECounter(std::string name, Wire<std::uint32_t>& out) : Module(std::move(name)), out_(out) {
        attach(count_);
        sense();
    }
    void eval() override { out_.drive(count_.read()); }
    void tick() override { count_.load(count_.read() + 1); }

private:
    Wire<std::uint32_t>& out_;
    Reg<std::uint32_t> count_{"count", 0};
};

/// Event-driven combinational doubler with a declared sensitivity list.
class EDoubler final : public Module {
public:
    EDoubler(std::string name, Wire<std::uint32_t>& in, Wire<std::uint32_t>& out)
        : Module(std::move(name)), in_(in), out_(out) {
        sense(in_);
    }
    void eval() override {
        ++calls;
        out_.drive(in_.read() * 2);
    }
    std::uint64_t calls = 0;

private:
    Wire<std::uint32_t>& in_;
    Wire<std::uint32_t>& out_;
};

/// Register driven by an external wire: a Moore stage whose output only
/// moves when the sampled input changed the register value.
class ELatch final : public Module {
public:
    ELatch(std::string name, Wire<std::uint32_t>& in, Wire<std::uint32_t>& out)
        : Module(std::move(name)), in_(in), out_(out) {
        attach(q_);
        sense();
    }
    void eval() override {
        ++calls;
        out_.drive(q_.read());
    }
    void tick() override { q_.load(in_.read()); }
    std::uint64_t calls = 0;

private:
    Wire<std::uint32_t>& in_;
    Wire<std::uint32_t>& out_;
    Reg<std::uint32_t> q_{"q", 0};
};

TEST(KernelEvents, CombinationalChainSettlesEventDriven) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> a, b, c;
    ECounter cnt("c", a);
    EDoubler d1("d1", a, b), d2("d2", b, c);
    k.bind(cnt, clk);
    k.add_combinational(d1);
    k.add_combinational(d2);
    k.reset();
    k.run_cycles(clk, 3);
    EXPECT_EQ(a.read(), 3u);
    EXPECT_EQ(c.read(), 12u) << "two combinational stages must settle";
}

TEST(KernelEvents, QuiescentModulesAreSkipped) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> a, b, quiet, quiet2;
    ECounter cnt("c", a);
    EDoubler active("active", a, b);    // input changes every cycle
    EDoubler idle("idle", quiet, quiet2);  // input never changes after reset
    k.bind(cnt, clk);
    k.add_combinational(active);
    k.add_combinational(idle);
    k.reset();
    const std::uint64_t idle_after_reset = idle.calls;
    EXPECT_GE(idle_after_reset, 1u) << "reset evaluates everything once";
    k.run_cycles(clk, 50);
    EXPECT_EQ(idle.calls, idle_after_reset) << "no input changed, no re-evaluation";
    EXPECT_GE(active.calls, 50u);
    EXPECT_GT(k.stats().modules_skipped, 0u);
}

TEST(KernelEvents, UnchangedRegisterCommitDoesNotReschedule) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> in, out;
    ELatch latch("latch", in, out);
    k.bind(latch, clk);
    k.reset();
    in.drive(7);
    k.run_cycles(clk, 2);  // edge 1 latches 7; edge 2 commits 7 again (no change)
    EXPECT_EQ(out.read(), 7u);
    const std::uint64_t calls_settled = latch.calls;
    k.run_cycles(clk, 50);  // q stays 7: the latch must not re-evaluate
    EXPECT_EQ(latch.calls, calls_settled);
}

TEST(KernelEvents, StatsCountTimePointsAndEvals) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> a, b;
    ECounter cnt("c", a);
    EDoubler d("d", a, b);
    k.bind(cnt, clk);
    k.add_combinational(d);
    k.reset();
    EXPECT_EQ(k.stats().time_points, 0u);
    k.run_cycles(clk, 10);
    const KernelStats s = k.stats();
    EXPECT_EQ(s.time_points, 10u);
    EXPECT_GE(s.settle_calls, 20u) << "two settles per step";
    EXPECT_GT(s.module_evals, 0u);
    EXPECT_GT(s.evals_per_time_point(), 0.0);
    k.reset();
    EXPECT_EQ(k.stats().time_points, 0u) << "reset clears the counters";
}

TEST(KernelEvents, EventModeNeverEvaluatesMoreThanFullSettle) {
    auto build_and_run = [](bool full) {
        Kernel k;
        Clock& clk = k.add_clock("clk", 100'000'000);
        k.set_full_settle(full);
        Wire<std::uint32_t> a, b, c, quiet, quiet2;
        ECounter cnt("c", a);
        EDoubler d1("d1", a, b), d2("d2", b, c), idle("idle", quiet, quiet2);
        k.bind(cnt, clk);
        k.add_combinational(d1);
        k.add_combinational(d2);
        k.add_combinational(idle);
        k.reset();
        k.run_cycles(clk, 100);
        return std::pair<std::uint64_t, std::uint32_t>{k.stats().module_evals, c.read()};
    };
    const auto [evals_event, out_event] = build_and_run(false);
    const auto [evals_full, out_full] = build_and_run(true);
    EXPECT_EQ(out_event, out_full) << "schedulers must agree on the settled state";
    EXPECT_LT(evals_event, evals_full)
        << "the event-driven schedule must save evaluations on this workload";
}

TEST(KernelEvents, ExternalPokeOfModuleDrivenWireIsOverwrittenBySettle) {
    // Testbench pokes of a module-driven net: under the sweep, the driving
    // module re-asserts its value at the next settle. The event-driven
    // scheduler must reproduce that (it re-schedules the recorded driver).
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> in, out;
    ELatch latch("latch", in, out);
    k.bind(latch, clk);
    k.reset();
    in.drive(5);
    k.run_cycles(clk, 2);
    ASSERT_EQ(out.read(), 5u);
    out.drive(99);  // glitch the module's output from outside
    EXPECT_EQ(out.read(), 99u) << "visible until the next settle, like the sweep";
    k.run_cycles(clk, 1);
    EXPECT_EQ(out.read(), 5u) << "the driving module must re-assert its value";
}

/// out = !in with in tied to out: unstable, must be flagged in event mode too.
class EInverter final : public Module {
public:
    EInverter(std::string name, Wire<bool>& in, Wire<bool>& out)
        : Module(std::move(name)), in_(in), out_(out) {
        sense(in_);
    }
    void eval() override { out_.drive(!in_.read()); }

private:
    Wire<bool>& in_;
    Wire<bool>& out_;
};

TEST(KernelEvents, DetectsCombinationalLoopEventDriven) {
    Kernel k;
    k.add_clock("clk", 100'000'000);
    Wire<bool> a;
    EInverter osc("osc", a, a);
    k.add_combinational(osc);
    EXPECT_THROW(k.reset(), std::runtime_error);
}

TEST(KernelEvents, TwoInverterRingIsAStableLatchEventDriven) {
    Kernel k;
    k.add_clock("clk", 100'000'000);
    Wire<bool> a, b;
    EInverter i1("i1", a, b), i2("i2", b, a);
    k.add_combinational(i1);
    k.add_combinational(i2);
    EXPECT_NO_THROW(k.reset());
    EXPECT_NE(a.read(), b.read());
}

TEST(KernelEvents, WiresDrivenBeforeBindStillScheduleTheListener) {
    // System constructors drive configuration pins before the modules are
    // bound to a kernel; the pre-bind dirty mark must survive into the
    // kernel's worklist (regression: the module was dirty but never queued).
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> sel, out;
    EDoubler d("d", sel, out);
    sel.drive(21);  // before add_combinational
    k.add_combinational(d);
    k.reset();
    EXPECT_EQ(out.read(), 42u);
    k.run_cycles(clk, 1);
    EXPECT_EQ(out.read(), 42u);
}

TEST(KernelEvents, MixedLegacyAndEventModulesAgreeWithFullSettle) {
    // Legacy module (no sense()) feeding an event-driven one: the mixed
    // scheduler must reach the same fixed point as the sweep.
    class LegacyAdder final : public Module {
    public:
        LegacyAdder(Wire<std::uint32_t>& in, Wire<std::uint32_t>& out)
            : Module("legacy_adder"), in_(in), out_(out) {}
        void eval() override { out_.drive(in_.read() + 100); }

    private:
        Wire<std::uint32_t>& in_;
        Wire<std::uint32_t>& out_;
    };

    auto run = [](bool full) {
        Kernel k;
        Clock& clk = k.add_clock("clk", 100'000'000);
        k.set_full_settle(full);
        Wire<std::uint32_t> a, b, c;
        ECounter cnt("c", a);
        LegacyAdder add(a, b);
        EDoubler dbl("dbl", b, c);
        k.bind(cnt, clk);
        k.add_combinational(add);
        k.add_combinational(dbl);
        k.reset();
        k.run_cycles(clk, 25);
        return c.read();
    };
    EXPECT_EQ(run(false), run(true));
    EXPECT_EQ(run(false), (25u + 100u) * 2u);
}

/// Clocked module with a register the test loads from outside, as another
/// module's tick() or a testbench would; its own tick() loads nothing.
class Holder final : public Module {
public:
    explicit Holder(std::string name) : Module(std::move(name)) {
        attach(r);
        sense();
    }
    void tick() override { ++ticks; }
    Reg<std::uint32_t> r{"r", 0};
    std::uint64_t ticks = 0;
};

TEST(KernelEvents, DoubleRegistrationIsRejected) {
    Kernel k, other;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Clock& other_clk = other.add_clock("clk", 100'000'000);
    Holder h("h");
    k.bind(h, clk);
    EXPECT_THROW(k.bind(h, clk), std::invalid_argument);
    EXPECT_THROW(k.add_combinational(h), std::invalid_argument);
    EXPECT_THROW(other.bind(h, other_clk), std::invalid_argument);
    EXPECT_THROW(other.add_combinational(h), std::invalid_argument);
    k.reset();
    k.run_cycles(clk, 3);
    EXPECT_EQ(h.ticks, 3u) << "a rejected registration must not tick the module again";
    EXPECT_EQ(k.stats().module_ticks, 3u);
    EXPECT_EQ(k.modules().size(), 1u);
}

TEST(KernelEvents, ForeignClockIsRejected) {
    Kernel k, other;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Clock& foreign = other.add_clock("clk", 100'000'000);
    Holder h("h");
    k.bind(h, clk);
    k.reset();
    // Stepping k never advances `foreign`, so both loops would spin forever.
    EXPECT_THROW(k.run_cycles(foreign, 1), std::invalid_argument);
    EXPECT_THROW(k.run_until(foreign, [] { return false; }, 1), std::invalid_argument);
    EXPECT_EQ(k.stats().time_points, 0u);
    EXPECT_THROW(k.bind(h, foreign), std::invalid_argument);
}

TEST(KernelEvents, CommitCountersCountLoadedRegistersOnly) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<std::uint32_t> a, in, out;
    ECounter cnt("c", a);      // loads its register every edge
    ELatch latch("latch", in, out);  // loads every edge too
    Holder h("h");             // loads nothing by itself
    k.bind(cnt, clk);
    k.bind(latch, clk);
    k.bind(h, clk);
    k.reset();
    k.run_cycles(clk, 10);
    EXPECT_EQ(k.stats().module_ticks, 30u);
    EXPECT_EQ(k.stats().register_commits, 20u) << "h's idle register is never committed";

    h.r.load(1);
    h.r.load(2);  // two loads in one edge: one commit, the last value
    k.run_cycles(clk, 1);
    EXPECT_EQ(h.r.read(), 2u);
    EXPECT_EQ(k.stats().register_commits, 23u);

    h.r.load(5);
    h.r.set_bits(6);  // drops the load; the stale list entry commits nothing
    h.r.load(7);      // and is not listed twice
    h.r.set_bits(8);
    k.run_cycles(clk, 1);
    EXPECT_EQ(h.r.read(), 8u);
    EXPECT_EQ(k.stats().register_commits, 26u);
}

TEST(KernelEvents, ResetDropsPendingLoads) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Holder h("h");
    k.bind(h, clk);
    k.reset();
    h.r.load(42);
    k.reset();
    EXPECT_EQ(h.pending_commits(), 0u);
    k.run_cycles(clk, 2);
    EXPECT_EQ(h.r.read(), 0u) << "a load from before reset() must never commit";
    EXPECT_EQ(k.stats().register_commits, 0u);
}

TEST(KernelEvents, LoadStaysPendingUntilItsOwnClockTicks) {
    // 200 MHz A and 50 MHz B, both rising at t = 0: B rises on every fourth
    // A edge. A load into a B-domain register commits at the next B edge,
    // never at an A-only edge.
    Kernel k;
    Clock& a = k.add_clock("a", 200'000'000);
    Clock& b = k.add_clock("b", 50'000'000);
    Holder fast("fast"), slow("slow");
    k.bind(fast, a);
    k.bind(slow, b);
    k.reset();
    k.run_cycles(b, 1);  // t = 0: both domains
    slow.r.load(9);
    for (int i = 0; i < 3; ++i) {
        k.step();  // t = 5, 10, 15 ns: A only
        EXPECT_EQ(slow.r.read(), 0u);
        EXPECT_EQ(slow.pending_commits(), 1u);
    }
    EXPECT_EQ(b.edges(), 1u);
    k.step();  // t = 20 ns: B rises again
    EXPECT_EQ(b.edges(), 2u);
    EXPECT_EQ(slow.r.read(), 9u);
    EXPECT_EQ(slow.pending_commits(), 0u);
    EXPECT_EQ(k.stats().register_commits, 1u);
    EXPECT_EQ(k.stats().module_ticks, 5u + 2u);
}

/// Pure-tick countdown: tick() loads `n - 1` while the sensed `enable` wire
/// is high and n > 0; it reads nothing else, so it idles once n hits 0 or
/// enable drops.
class Countdown final : public Module {
public:
    Countdown(std::string name, Wire<bool>& enable) : Module(std::move(name)), enable_(enable) {
        attach(n);
        sense(enable_);
        pure_tick();
    }
    void tick() override {
        ++ticks;
        if (enable_.read() && n.read() > 0) n.load(n.read() - 1);
    }
    Reg<std::uint32_t> n{"n", 0};
    std::uint64_t ticks = 0;

private:
    Wire<bool>& enable_;
};

TEST(TickElision, IdlePureTickIsSkipped) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<bool> enable{true};
    Countdown cd("cd", enable);
    k.bind(cd, clk);
    k.reset();
    k.run_cycles(clk, 20);
    EXPECT_EQ(cd.ticks, 1u) << "reset wakes it once; with n = 0 that tick changes nothing";
    EXPECT_EQ(k.stats().module_ticks, 1u);
    EXPECT_EQ(k.stats().time_points, 20u);
    EXPECT_EQ(clk.edges(), 20u);
}

TEST(TickElision, EachWakeTicksTheModule) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<bool> enable{false};
    Countdown cd("cd", enable);
    k.bind(cd, clk);
    k.reset();
    k.run_cycles(clk, 5);
    ASSERT_EQ(cd.ticks, 1u);

    // set_bits() alone is an out-of-band edit nobody announced: no wake.
    cd.n.set_bits(3);
    k.run_cycles(clk, 5);
    EXPECT_EQ(cd.ticks, 1u);
    // input_changed() after it wakes the module (enable is low: one no-op tick).
    cd.input_changed();
    k.run_cycles(clk, 5);
    EXPECT_EQ(cd.ticks, 2u);
    EXPECT_EQ(cd.n.read(), 3u);

    // A sensed wire changing wakes it; each commit that changes n wakes it
    // again, until the tick that finds n = 0 changes nothing.
    enable.drive(true);
    k.run_cycles(clk, 10);
    EXPECT_EQ(cd.n.read(), 0u);
    EXPECT_EQ(cd.ticks, 2u + 3u + 1u);

    // reset() wakes every module.
    k.reset();
    k.run_cycles(clk, 5);
    EXPECT_EQ(cd.ticks, 7u);
}

TEST(TickElision, ModulesWithoutPureTickTickEveryEdge) {
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<bool> enable{true};
    Countdown cd("cd", enable);
    Holder h("h");  // event-driven, but its tick() is not declared pure
    k.bind(cd, clk);
    k.bind(h, clk);
    k.reset();
    k.run_cycles(clk, 10);
    EXPECT_EQ(h.ticks, 10u);
    EXPECT_EQ(cd.ticks, 1u);
}

TEST(TickElision, FullSettleTicksEveryModule) {
    Kernel k;
    k.set_full_settle(true);
    Clock& clk = k.add_clock("clk", 100'000'000);
    Wire<bool> enable{true};
    Countdown cd("cd", enable);
    k.bind(cd, clk);
    k.reset();
    k.run_cycles(clk, 10);
    EXPECT_EQ(cd.ticks, 10u);
    EXPECT_EQ(k.stats().module_ticks, 10u);
}

TEST(TickElision, PureTickNeedsASensitivityList) {
    class NoSense final : public Module {
    public:
        NoSense() : Module("no_sense") { pure_tick(); }
    };
    Kernel k;
    Clock& clk = k.add_clock("clk", 100'000'000);
    NoSense m;
    EXPECT_THROW(k.bind(m, clk), std::invalid_argument);
}

/// Logs (module, time, edges of both clocks) at every tick.
class EdgeLogger final : public Module {
public:
    using Entry = std::tuple<int, SimTime, std::uint64_t, std::uint64_t>;
    EdgeLogger(int id, const Kernel& k, const Clock& a, const Clock& b, std::vector<Entry>& log)
        : Module("logger" + std::to_string(id)), id_(id), k_(k), a_(a), b_(b), log_(log) {}
    void tick() override { log_.emplace_back(id_, k_.now(), a_.edges(), b_.edges()); }

private:
    int id_;
    const Kernel& k_;
    const Clock& a_;
    const Clock& b_;
    std::vector<Entry>& log_;
};

TEST(TickSchedule, DcmPairReproducesTheEarliestEdgeOrder) {
    // The 50/200 MHz pair of the system's DCM, bound in that order, against
    // the earliest-next-edge search over free-standing clocks: the same time
    // points, tick order and edges() over 1 000 time points.
    Kernel k;
    Clock& ga = k.add_clock("ga", 50'000'000);
    Clock& app = k.add_clock("app", 200'000'000);
    std::vector<EdgeLogger::Entry> log;
    EdgeLogger g0(0, k, ga, app, log), g1(1, k, ga, app, log), a0(2, k, ga, app, log);
    k.bind(g0, ga);
    k.bind(a0, app);
    k.bind(g1, ga);
    k.reset();

    Clock ref_ga("ga", 50'000'000), ref_app("app", 200'000'000);
    std::vector<EdgeLogger::Entry> expected;
    for (int i = 0; i < 1000; ++i) {
        const SimTime t = std::min(ref_ga.next_edge(), ref_app.next_edge());
        if (ref_ga.next_edge() == t) {
            for (int id : {0, 1}) expected.emplace_back(id, t, ref_ga.edges(), ref_app.edges());
            ref_ga.advance();
        }
        if (ref_app.next_edge() == t) {
            expected.emplace_back(2, t, ref_ga.edges(), ref_app.edges());
            ref_app.advance();
        }
        k.step();
        ASSERT_EQ(k.now(), t) << "time point " << i;
        ASSERT_EQ(ga.edges(), ref_ga.edges()) << "time point " << i;
        ASSERT_EQ(app.edges(), ref_app.edges()) << "time point " << i;
    }
    EXPECT_EQ(log, expected);
    EXPECT_EQ(ga.edges(), 250u);
    EXPECT_EQ(app.edges(), 1000u);
    EXPECT_EQ(k.now(), 999u * 5'000u);
}

TEST(TickSchedule, OversizedClockSetThrows) {
    Kernel k;
    Clock& clk = k.add_clock("a", 1'000'000);
    // 1 MHz beside 3 MHz (333 333 ps): the periods' lcm spans a million
    // edges, far past the schedule cap. The kernel keeps its first clock.
    EXPECT_THROW(k.add_clock("b", 3'000'000), std::invalid_argument);
    EXPECT_THROW(k.add_clock("c", 100'000'000, 10'000), std::invalid_argument)
        << "a phase at or past the period";
    Holder h("h");
    k.bind(h, clk);
    k.reset();
    k.run_cycles(clk, 3);
    EXPECT_EQ(h.ticks, 3u);
    EXPECT_EQ(k.now(), 2'000'000u);
    EXPECT_THROW(k.add_clock("d", 1'000'000), std::logic_error) << "clocks come before stepping";
}

}  // namespace
}  // namespace gaip::rtl
