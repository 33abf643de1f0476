// Run-telemetry tests: event model, JSONL round-trip, stream ordering on a
// real system run, diff semantics, and cross-substrate equivalence of the
// RT-level tap and the gate-lane emitter.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/seu_injector.hpp"
#include "gates/batch_runner.hpp"
#include "system/ga_system.hpp"
#include "trace/diff.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"

namespace gaip::trace {
namespace {

core::GaParameters small_params() {
    return {.pop_size = 8, .n_gens = 3, .xover_threshold = 10, .mut_threshold = 1,
            .seed = 0x2961};
}

std::vector<TraceEvent> record_rtl(bool gate_level = false) {
    MemorySink sink;
    system::GaSystemConfig cfg;
    cfg.params = small_params();
    cfg.internal_fems = {fitness::FitnessId::kOneMax};
    cfg.keep_populations = false;
    cfg.trace_sink = &sink;
    cfg.use_gate_level_core = gate_level;
    system::GaSystem sys(cfg);
    sys.run();
    return sink.take();
}

TEST(TraceEvent, FieldAccessors) {
    TraceEvent e(kind::kGeneration, 100, 5);
    e.add("gen", std::uint64_t{7}).add("label", std::string("x")).add("ratio", 0.5);
    EXPECT_EQ(e.u64("gen"), 7u);
    EXPECT_EQ(e.u64("missing", 42), 42u);
    EXPECT_EQ(e.u64("label", 9), 9u);  // non-integer -> default
    ASSERT_NE(e.find("ratio"), nullptr);
    EXPECT_EQ(std::get<double>(*e.find("ratio")), 0.5);
}

TEST(Jsonl, RoundTripsAllValueTypes) {
    TraceEvent e(kind::kFaultInject, 123456789, 42);
    e.add("reg", std::string("best_fit"))
        .add("bit", std::uint64_t{3})
        .add("score", 1.25)
        .add("note", std::string("a\"b\\c\n\t"));
    const std::string line = to_json_line(e);
    const TraceEvent back = from_json_line(line);
    EXPECT_EQ(back, e);
}

TEST(Jsonl, AppendJsonLineIsToJsonLineBytes) {
    // u64 extremes, doubles that need all 17 digits, escaped strings and
    // escaped keys, pinned to the bytes the encoder has always written.
    TraceEvent e(kind::kFaultInject, 18446744073709551615ull, 42);
    e.add("bit", std::uint64_t{0})
        .add("max", std::uint64_t{18446744073709551615ull})
        .add("score", 1.25)
        .add("third", 1.0 / 3.0)
        .add("neg", -2.5e-7)
        .add("reg", std::string("best_fit"))
        .add("note", std::string("a\"b\\c\n\r\t\x01/"))
        .add("k\"e\\y\n\x1f", std::uint64_t{7});
    const TraceEvent bare("we\"ird\tkind", 0, 0);
    const std::string golden =
        "{\"kind\":\"fault_inject\",\"t\":18446744073709551615,\"cycle\":42,\"bit\":0,"
        "\"max\":18446744073709551615,\"score\":1.25,\"third\":0.33333333333333331,"
        "\"neg\":-2.4999999999999999e-07,\"reg\":\"best_fit\","
        "\"note\":\"a\\\"b\\\\c\\n\\r\\t\\u0001/\",\"k\\\"e\\\\y\\n\\u001f\":7}";
    EXPECT_EQ(to_json_line(e), golden);
    EXPECT_EQ(to_json_line(bare), "{\"kind\":\"we\\\"ird\\tkind\",\"t\":0,\"cycle\":0}");

    // Appending extends a buffer in place, line after line.
    std::string batch = "prefix\n";
    append_json_line(batch, e);
    batch += '\n';
    append_json_line(batch, bare);
    EXPECT_EQ(batch, "prefix\n" + to_json_line(e) + "\n" + to_json_line(bare));
}

TEST(Jsonl, RejectsMalformedLines) {
    EXPECT_THROW(from_json_line("not json"), std::runtime_error);
    EXPECT_THROW(from_json_line("{\"kind\":"), std::runtime_error);
    EXPECT_THROW(from_json_line(""), std::runtime_error);
}

TEST(Jsonl, FileRoundTrip) {
    const std::string path = ::testing::TempDir() + "/trace_roundtrip.jsonl";
    std::vector<TraceEvent> events;
    {
        JsonlSink sink(path);
        for (int i = 0; i < 5; ++i) {
            TraceEvent e(kind::kGeneration, static_cast<std::uint64_t>(i) * 20'000,
                         static_cast<std::uint64_t>(i));
            e.add("gen", static_cast<std::uint64_t>(i));
            sink.on_event(e);
            events.push_back(e);
        }
        sink.flush();
        EXPECT_EQ(sink.events_written(), 5u);
    }
    EXPECT_EQ(load_jsonl(path), events);
    std::filesystem::remove(path);
}

TEST(SystemTap, StreamFollowsProtocolOrder) {
    const std::vector<TraceEvent> events = record_rtl();
    ASSERT_FALSE(events.empty());

    // Six init writes first (one per handshake parameter, in index order),
    // then init_done, then the start pulse.
    ASSERT_GE(events.size(), 8u);
    for (std::uint64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(events[i].kind, kind::kInitWrite) << i;
        EXPECT_EQ(events[i].u64("index"), i);
    }
    EXPECT_EQ(events[6].kind, kind::kInitDone);
    EXPECT_EQ(events[7].kind, kind::kStart);

    // One fem_value per fem_request, value after its request.
    std::uint64_t requests = 0, values = 0;
    for (const TraceEvent& e : events) {
        if (e.kind == kind::kFemRequest) ++requests;
        if (e.kind == kind::kFemValue) {
            ++values;
            EXPECT_EQ(values, requests);  // never a value without its request
        }
    }
    EXPECT_EQ(requests, values);
    EXPECT_GT(requests, 0u);

    // Generation events: gen ids count 0..n_gens-? monotonically; the RT
    // tap adds the op-counter deltas.
    std::uint64_t expected_gen = 0;
    for (const TraceEvent& e : events) {
        if (e.kind != kind::kGeneration) continue;
        EXPECT_EQ(e.u64("gen"), expected_gen++);
        EXPECT_EQ(e.u64("pop"), 8u);
        EXPECT_NE(e.find("rng_draws"), nullptr);
        EXPECT_NE(e.find("crossovers"), nullptr);
        EXPECT_NE(e.find("mutations"), nullptr);
    }
    EXPECT_GE(expected_gen, 3u);

    // The stream ends with done, and events never go back in time.
    EXPECT_EQ(events.back().kind, kind::kDone);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].t, events[i].t) << i;
}

TEST(SystemTap, GenerationCountersSumToRunTotals) {
    MemorySink sink;
    system::GaSystemConfig cfg;
    cfg.params = small_params();
    cfg.internal_fems = {fitness::FitnessId::kOneMax};
    cfg.keep_populations = false;
    cfg.trace_sink = &sink;
    system::GaSystem sys(cfg);
    sys.run();

    std::uint64_t draws = 0, xos = 0, muts = 0, fem_values = 0;
    for (const TraceEvent& e : sink.events()) {
        if (e.kind == kind::kFemValue) ++fem_values;
        if (e.kind != kind::kGeneration) continue;
        draws += e.u64("rng_draws");
        xos += e.u64("crossovers");
        muts += e.u64("mutations");
    }
    EXPECT_EQ(fem_values, sys.fitness_evaluations());
    // The deltas cover everything up to the last monitor pulse; the run
    // totals can only add post-pulse draws (final-generation wrap-up).
    EXPECT_LE(draws, sys.core().rng_draws());
    EXPECT_LE(xos, sys.core().crossovers());
    EXPECT_LE(muts, sys.core().mutations());
    EXPECT_GT(draws, 0u);
    EXPECT_GT(sys.core().rng_draws(), 0u);
}

/// A memory sink that wants events only while `on` is set.
class GatedSink final : public TraceSink {
public:
    void on_event(const TraceEvent& e) override { mem.on_event(e); }
    bool wants_events() const override { return on; }
    bool on = false;
    MemorySink mem;
};

TEST(SystemTap, InactiveSinkGetsNoEventsAndLeavesTheRunAlone) {
    system::GaSystemConfig cfg;
    cfg.params = small_params();
    cfg.internal_fems = {fitness::FitnessId::kOneMax};
    cfg.keep_populations = false;
    const core::RunResult plain = system::GaSystem(cfg).run();

    GatedSink sink;
    cfg.trace_sink = &sink;
    system::GaSystem sys(cfg);
    const core::RunResult gated = sys.run();
    ASSERT_NE(sys.tap(), nullptr);
    EXPECT_EQ(sys.tap()->events_emitted(), 0u);
    EXPECT_TRUE(sink.mem.events().empty());
    EXPECT_EQ(gated.best_candidate, plain.best_candidate);
    EXPECT_EQ(gated.best_fitness, plain.best_fitness);
    EXPECT_EQ(gated.evaluations, plain.evaluations);
    ASSERT_EQ(gated.history.size(), plain.history.size());
    for (std::size_t g = 0; g < plain.history.size(); ++g) {
        EXPECT_EQ(gated.history[g].gen, plain.history[g].gen);
        EXPECT_EQ(gated.history[g].best_fit, plain.history[g].best_fit);
        EXPECT_EQ(gated.history[g].best_ind, plain.history[g].best_ind);
        EXPECT_EQ(gated.history[g].fit_sum, plain.history[g].fit_sum);
    }
}

// A sink that starts wanting events mid-run gets the full stream from that
// point on, per-generation counter deltas included.
TEST(SystemTap, SinkActivatedMidRunGetsTheStreamSuffix) {
    const std::vector<TraceEvent> full = record_rtl();
    GatedSink sink;
    system::GaSystemConfig cfg;
    cfg.params = small_params();
    cfg.internal_fems = {fitness::FitnessId::kOneMax};
    cfg.keep_populations = false;
    cfg.trace_sink = &sink;
    system::GaSystem sys(cfg);
    ASSERT_TRUE(sys.start());
    ASSERT_TRUE(sys.run_to(1, sys.cycle_bound()).ok);
    const std::uint64_t t_on = sys.kernel().now();
    sink.on = true;
    ASSERT_TRUE(sys.run_to(core::kEnd, sys.cycle_bound()).ok);
    sys.finish();

    std::vector<TraceEvent> suffix;
    for (const TraceEvent& e : full)
        if (e.t > t_on) suffix.push_back(e);
    ASSERT_FALSE(suffix.empty());
    EXPECT_EQ(sink.mem.events(), suffix);
}

TEST(SystemTap, GateLevelCoreEmitsSameStreamMinusCounters) {
    const std::vector<TraceEvent> rt = record_rtl(false);
    const std::vector<TraceEvent> gate = record_rtl(true);
    DiffOptions opt;
    opt.ignore_keys = {"rng_draws", "crossovers", "mutations"};
    const auto d = first_divergence(rt, gate, opt);
    EXPECT_FALSE(d.has_value())
        << "diverged at " << d->index << ": " << to_json_line(d->a) << " vs "
        << to_json_line(d->b);
}

TEST(GateLanes, LaneStreamMatchesRtlTap) {
    const std::vector<TraceEvent> rt = record_rtl();

    gates::BatchGateRunner runner(fitness::FitnessId::kOneMax,
                                  {small_params(), small_params()});
    MemorySink lane0, lane1;
    runner.set_lane_sink(0, &lane0);
    runner.set_lane_sink(1, &lane1);
    runner.run();

    DiffOptions opt;
    opt.ignore_keys = {"rng_draws", "crossovers", "mutations"};
    const auto d = first_divergence(rt, lane0.events(), opt);
    EXPECT_FALSE(d.has_value())
        << "diverged at " << d->index << ": " << to_json_line(d->a) << " vs "
        << to_json_line(d->b);
    // Identically configured lanes emit identical streams (same cycles too).
    DiffOptions strict;
    strict.compare_time = true;
    strict.compare_cycle = true;
    EXPECT_FALSE(first_divergence(lane0.events(), lane1.events(), strict).has_value());
}

TEST(Diff, FindsFirstMismatchAndLengthGaps) {
    TraceEvent a1(kind::kGeneration, 0, 0), a2(kind::kGeneration, 20, 1);
    a1.add("best_fit", std::uint64_t{10});
    a2.add("best_fit", std::uint64_t{20});
    TraceEvent b2 = a2;
    b2.fields[0].value = Value{std::uint64_t{21}};

    const std::vector<TraceEvent> a = {a1, a2}, b = {a1, b2};
    const auto d = first_divergence(a, b, {});
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->index, 1u);
    EXPECT_EQ(d->a.u64("best_fit"), 20u);
    EXPECT_EQ(d->b.u64("best_fit"), 21u);

    const std::vector<TraceEvent> shorter = {a1};
    const auto d2 = first_divergence(a, shorter, {});
    ASSERT_TRUE(d2.has_value());
    EXPECT_EQ(d2->index, 1u);
    EXPECT_TRUE(d2->missing_b);

    // Time differences only matter under compare_time.
    TraceEvent shifted = a2;
    shifted.t += 5;
    const std::vector<TraceEvent> c = {a1, shifted};
    EXPECT_FALSE(first_divergence(a, c, {}).has_value());
    DiffOptions strict;
    strict.compare_time = true;
    EXPECT_TRUE(first_divergence(a, c, strict).has_value());
}

TEST(Diff, KindFilterRestrictsComparison) {
    TraceEvent gen(kind::kGeneration, 0, 0);
    gen.add("gen", std::uint64_t{0});
    TraceEvent noise(kind::kInitWrite, 0, 0);
    const std::vector<TraceEvent> a = {noise, gen}, b = {gen};
    DiffOptions opt;
    opt.kinds = {kind::kGeneration};
    EXPECT_FALSE(first_divergence(a, b, opt).has_value());
    EXPECT_TRUE(first_divergence(a, b, {}).has_value());
}

TEST(FaultTrace, InjectionAndDivergenceEventsAppear) {
    fault::InjectorConfig icfg;
    icfg.fn = fitness::FitnessId::kOneMax;
    icfg.params = small_params();
    fault::SeuInjector injector(icfg);

    MemorySink sink;
    injector.set_sink(&sink);
    const fault::FaultSite site{"best_fit", 3, 40};
    const fault::FaultRecord rec = injector.run_rtl(site, fault::InjectBackend::kPoke);

    const TraceEvent* inject = nullptr;
    const TraceEvent* diverge = nullptr;
    for (const TraceEvent& e : sink.events()) {
        if (e.kind == kind::kFaultInject && inject == nullptr) inject = &e;
        if (e.kind == kind::kDivergence && diverge == nullptr) diverge = &e;
    }
    ASSERT_NE(inject, nullptr);
    EXPECT_EQ(std::get<std::string>(*inject->find("reg")), "best_fit");
    EXPECT_EQ(inject->u64("bit"), 3u);
    EXPECT_EQ(inject->u64("inject_cycle"), rec.inject_cycle);
    EXPECT_EQ(std::get<std::string>(*inject->find("backend")), "poke");

    // A best_fit flip departs from the golden trajectory immediately after
    // injection, and the divergence event captures both sides.
    ASSERT_NE(diverge, nullptr);
    EXPECT_GT(diverge->cycle, inject->cycle);
    EXPECT_NE(diverge->u64("best_fit"), diverge->u64("golden_best_fit"));

    // The golden trajectory itself is exposed for tooling.
    EXPECT_EQ(injector.golden_trajectory().size(), injector.golden().ga_cycles);
}

TEST(FaultTrace, FaultFreeReplayMatchesGoldenTrajectory) {
    fault::InjectorConfig icfg;
    icfg.fn = fitness::FitnessId::kOneMax;
    icfg.params = small_params();
    fault::SeuInjector injector(icfg);

    MemorySink sink;
    injector.set_sink(&sink);
    // Flip a bit that the next kStart-path write immediately overwrites?
    // No: flip bit 0 of scan_idx late in a scan-safe state; outcome varies,
    // but the *stream* must contain the injection marker either way.
    const fault::FaultRecord rec =
        injector.run_rtl({"best_fit", 0, 10}, fault::InjectBackend::kScan);
    bool saw_inject = false;
    for (const TraceEvent& e : sink.events()) saw_inject |= e.kind == kind::kFaultInject;
    EXPECT_TRUE(saw_inject);
    EXPECT_EQ(rec.site.bit, 0u);
}

}  // namespace
}  // namespace gaip::trace
