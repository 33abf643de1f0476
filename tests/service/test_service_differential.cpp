// THE scheduler guarantee (ISSUE 9 acceptance): results coming back from
// the daemon are bit-identical to running the same spec directly on the
// underlying engine — the service plane multiplexes jobs (packing gates
// jobs as shared-netlist lanes, interleaving workers) but never alters a
// job's parameter/seed path. 64 concurrent jobs with mixed backends,
// fitness functions, populations and seeds go through a live daemon; every
// outcome is compared against a direct single-job engine run. Gates jobs
// that refill a running lane block must match their one-lane direct run
// down to the streamed trace events, and a non-gates job queued behind a
// stream of gates jobs must not starve.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/behavioral.hpp"
#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "gates/batch_runner.hpp"
#include "prng/rng_module.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"

namespace {

using namespace gaip;
using service::Frame;
using service::JobSpec;

struct Expected {
    std::uint16_t best_fitness;
    std::uint16_t best_candidate;
};

/// Direct engine run with EXACTLY the configuration the scheduler uses
/// (see Scheduler::run_behavioral_job / run_rtl_job / run_gate_batch).
Expected direct_run(const JobSpec& spec) {
    switch (spec.backend) {
        case service::JobBackend::kBehavioral: {
            const fitness::FitnessId fn = spec.fn;
            core::BehavioralEngine eng(
                spec.params,
                [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
                prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
            while (!eng.done()) eng.step_generation();
            return {eng.best_fitness(), eng.best_candidate()};
        }
        case service::JobBackend::kRtl: {
            system::GaSystemConfig cfg;
            cfg.params = spec.params;
            cfg.internal_fems = {spec.fn};
            cfg.fitfunc_select = 0;
            cfg.keep_populations = false;
            const core::RunResult r = system::run_ga_system(cfg);
            return {r.best_fitness, r.best_candidate};
        }
        case service::JobBackend::kGates: {
            // A one-lane runner: lane packing must not change any lane's
            // result, so the single-lane run is the reference.
            gates::BatchGateRunner runner(spec.fn, {spec.params});
            const auto out = runner.run();
            return {out[0].best_fitness, out[0].best_candidate};
        }
    }
    throw std::logic_error("unreachable");
}

TEST(Differential, SixtyFourConcurrentJobsMatchDirectRuns) {
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff.sock";
    cfg.scheduler.workers = 4;
    cfg.scheduler.max_queue = 256;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    // 64 jobs cycling through three backends, four fitness functions and
    // the paper's seed set — enough collisions that the scheduler packs
    // same-fn gates jobs into shared lane blocks, and enough variety that
    // a lane/seed mixup cannot cancel out.
    constexpr std::uint16_t kSeeds[] = {0x2961, 0x061F, 0xB342, 0xAAAA, 0xA0A0, 0xFFFF};
    constexpr fitness::FitnessId kFns[] = {
        fitness::FitnessId::kOneMax, fitness::FitnessId::kMBf6_2,
        fitness::FitnessId::kBf6, fitness::FitnessId::kRoyalRoad};
    constexpr service::JobBackend kBackends[] = {
        service::JobBackend::kGates, service::JobBackend::kBehavioral,
        service::JobBackend::kGates, service::JobBackend::kRtl};

    std::vector<JobSpec> specs;
    for (int i = 0; i < 64; ++i) {
        JobSpec s;
        s.fn = kFns[i % std::size(kFns)];
        s.backend = kBackends[i % std::size(kBackends)];
        s.params = core::resolve_parameters(
            0, {.pop_size = static_cast<std::uint8_t>(8 + 8 * (i % 3)),
                .n_gens = static_cast<std::uint32_t>(6 + i % 5),
                .xover_threshold = 12,
                .mut_threshold = static_cast<std::uint8_t>(1 + i % 2),
                .seed = kSeeds[i % std::size(kSeeds)]});
        specs.push_back(s);
    }

    // Whole burst submitted before any result is read: all 64 are in
    // flight together, so the gates jobs actually get packed.
    std::vector<std::uint64_t> ids;
    ids.reserve(specs.size());
    for (const JobSpec& s : specs) ids.push_back(c.submit(s));

    std::size_t packed_lanes = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Frame end = c.stream(ids[i]);
        ASSERT_EQ(end.str("state"), "done")
            << "job " << ids[i] << ": " << service::to_line(end);
        const Expected want = direct_run(specs[i]);
        EXPECT_EQ(end.u64("best_fitness"), want.best_fitness)
            << "job " << ids[i] << " (" << service::job_backend_name(specs[i].backend)
            << ", seed 0x" << std::hex << specs[i].params.seed << ")";
        EXPECT_EQ(end.u64("best_candidate"), want.best_candidate) << "job " << ids[i];
    }

    const Frame st = c.stats();
    EXPECT_EQ(st.u64("done"), 64u);
    EXPECT_EQ(st.u64("failed"), 0u);
    // Every gates job went through the lane path; whether they packed is
    // timing-dependent here (GatePackingPreservesLaneResults pins it down).
    packed_lanes = st.u64("gate_lanes");
    EXPECT_EQ(packed_lanes, st.u64("done_gates"));
    EXPECT_LE(st.u64("gate_batches"), st.u64("done_gates"));
}

TEST(Differential, GatePackingPreservesLaneResults) {
    // Deterministic packing: one worker pinned on a blocker while 16
    // same-fitness gates jobs pile up behind it. When the blocker dies the
    // worker MUST drain them as lanes of a single batch — and every lane's
    // result must still match its own single-lane direct run.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_pack.sock";
    cfg.scheduler.workers = 1;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    JobSpec blocker;
    blocker.fn = fitness::FitnessId::kOneMax;
    blocker.backend = service::JobBackend::kBehavioral;
    blocker.params = core::resolve_parameters(
        0, {.pop_size = 128, .n_gens = 50'000'000, .xover_threshold = 12,
            .mut_threshold = 1, .seed = 1});
    const std::uint64_t block_id = c.submit(blocker);
    while (c.status(block_id).str("state") == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<JobSpec> specs;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 16; ++i) {
        JobSpec s;
        s.fn = fitness::FitnessId::kOneMax;
        s.backend = service::JobBackend::kGates;
        s.params = core::resolve_parameters(
            0, {.pop_size = 16, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
                .seed = static_cast<std::uint16_t>(0x1000 + i)});
        specs.push_back(s);
        ids.push_back(c.submit(s));
    }
    c.cancel(block_id);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Frame end = c.stream(ids[i]);
        ASSERT_EQ(end.str("state"), "done");
        const Expected want = direct_run(specs[i]);
        EXPECT_EQ(end.u64("best_fitness"), want.best_fitness) << "lane " << i;
        EXPECT_EQ(end.u64("best_candidate"), want.best_candidate) << "lane " << i;
    }

    const Frame st = c.stats();
    EXPECT_EQ(st.u64("done_gates"), 16u);
    EXPECT_EQ(st.u64("gate_lanes"), 16u);
    EXPECT_EQ(st.u64("gate_batches"), 1u);  // the whole pile in ONE batch
}

TEST(Differential, IslandJobMatchesDirectEnsemble) {
    // Island jobs don't pack, but the daemon must still reproduce the
    // direct IslandSystem result bit-for-bit.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_isl.sock";
    cfg.scheduler.workers = 2;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    JobSpec s;
    s.fn = fitness::FitnessId::kOneMax;
    s.backend = service::JobBackend::kRtl;
    s.params = core::resolve_parameters(
        0, {.pop_size = 16, .n_gens = 12, .xover_threshold = 12, .mut_threshold = 1,
            .seed = 0x2961});
    s.islands = 4;
    s.migration.interval = 4;
    s.migration.count = 2;

    const Frame a = c.run_job(s);
    const Frame b = c.run_job(s);  // same spec twice: daemon is deterministic
    ASSERT_EQ(a.str("state"), "done");
    EXPECT_EQ(a.u64("best_fitness"), b.u64("best_fitness"));
    EXPECT_EQ(a.u64("best_candidate"), b.u64("best_candidate"));
}

/// A stream subscription attached synchronously (the ack is read before
/// the constructor returns, so no event of a job that is still queued can
/// be missed) and drained by its own reader thread.
class Subscription {
public:
    Subscription(const std::string& socket, std::uint64_t id) : client_(socket) {
        Frame req(service::verb::kStream);
        req.add("id", id);
        client_.send(req);
        const auto collect = [this](const trace::TraceEvent& e) { events_.push_back(e); };
        if (!client_.read_frame(collect).ok()) throw std::runtime_error("stream refused");
        reader_ = std::thread([this, collect] {
            try {
                for (;;) {
                    Frame f = client_.read_frame(collect);
                    if (f.verb == "stream_end") {
                        end_ = std::move(f);
                        return;
                    }
                }
            } catch (const std::exception& ex) {
                end_ = Frame("stream_error");  // wait() callers see no "done" state
                end_.add("error", std::string(ex.what()));
            }
        });
    }
    ~Subscription() {
        if (reader_.joinable()) reader_.join();
    }
    Subscription(const Subscription&) = delete;  // the reader thread holds `this`
    Subscription& operator=(const Subscription&) = delete;

    /// Block until stream_end (or a stream error frame); returns it.
    const Frame& wait() {
        reader_.join();
        return end_;
    }
    const std::vector<trace::TraceEvent>& events() const { return events_; }

private:
    service::Client client_;
    std::vector<trace::TraceEvent> events_;
    Frame end_;
    std::thread reader_;
};

/// Events as JSONL lines: exact to compare, readable when they differ.
std::vector<std::string> json_lines(const std::vector<trace::TraceEvent>& events) {
    std::vector<std::string> out;
    for (const trace::TraceEvent& e : events) out.push_back(trace::to_json_line(e));
    return out;
}

/// A one-lane direct run: its result and the events it streams.
struct DirectLane {
    gates::BatchLaneResult result;
    std::vector<std::string> events;
};

DirectLane direct_lane(const JobSpec& spec) {
    gates::BatchGateRunner runner(spec.fn, {spec.params});
    trace::MemorySink sink;
    runner.set_lane_sink(0, &sink);
    const gates::BatchLaneResult result = runner.run()[0];
    return {result, json_lines(sink.events())};
}

JobSpec gates_spec(fitness::FitnessId fn, std::uint8_t pop, std::uint32_t gens,
                   std::uint16_t seed) {
    JobSpec s;
    s.fn = fn;
    s.backend = service::JobBackend::kGates;
    s.params = core::resolve_parameters(
        0, {.pop_size = pop, .n_gens = gens, .xover_threshold = 12, .mut_threshold = 1,
            .seed = seed});
    return s;
}

TEST(Differential, RefilledGateBlockMatchesOneLaneRuns) {
    // A two-lane block on one worker: jobs A and B open it together, then
    // C, D and E arrive at staggered times while it is full and are loaded
    // into the lanes A and B free — three fitness functions in one block.
    // Every stream is attached while its job is still queued, so each
    // job's full event stream can be compared with a one-lane direct run.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_refill.sock";
    cfg.scheduler.workers = 1;
    cfg.scheduler.max_batch_lanes = 2;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    JobSpec blocker;
    blocker.fn = fitness::FitnessId::kOneMax;
    blocker.backend = service::JobBackend::kBehavioral;
    blocker.params = core::resolve_parameters(
        0, {.pop_size = 128, .n_gens = 50'000'000, .xover_threshold = 12,
            .mut_threshold = 1, .seed = 1});
    const std::uint64_t block_id = c.submit(blocker);
    while (c.status(block_id).str("state") == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    using fitness::FitnessId;
    const std::vector<JobSpec> specs = {
        gates_spec(FitnessId::kOneMax, 24, 20, 0x2961),     // A: ~18k cycles
        gates_spec(FitnessId::kMBf6_2, 24, 16, 0x061F),     // B
        gates_spec(FitnessId::kRoyalRoad, 16, 6, 0xB342),   // C
        gates_spec(FitnessId::kOneMax, 24, 8, 0xAAAA),      // D
        gates_spec(FitnessId::kMBf6_2, 16, 10, 0xA0A0),     // E
    };
    std::vector<std::uint64_t> ids;
    std::vector<std::unique_ptr<Subscription>> subs;
    for (std::size_t i = 0; i < 2; ++i) {
        ids.push_back(c.submit(specs[i]));
        subs.push_back(std::make_unique<Subscription>(d.socket_path(), ids.back()));
    }
    c.cancel(block_id);
    for (std::size_t i = 0; i < 2; ++i)
        while (c.status(ids[i]).str("state") == "queued")
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (std::size_t i = 2; i < specs.size(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ids.push_back(c.submit(specs[i]));
        subs.push_back(std::make_unique<Subscription>(d.socket_path(), ids.back()));
        EXPECT_EQ(c.status(ids[0]).str("state"), "running") << "A must outlive the arrivals";
        EXPECT_EQ(c.status(ids[1]).str("state"), "running") << "B must outlive the arrivals";
    }

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("job " + std::string(1, static_cast<char>('A' + i)));
        const Frame& end = subs[i]->wait();
        ASSERT_EQ(end.str("state"), "done") << service::to_line(end);
        const DirectLane want = direct_lane(specs[i]);
        EXPECT_EQ(end.u64("best_fitness"), want.result.best_fitness);
        EXPECT_EQ(end.u64("best_candidate"), want.result.best_candidate);
        EXPECT_EQ(end.u64("generations"), want.result.generations);
        EXPECT_EQ(c.status(ids[i]).u64("evaluations"), want.result.evaluations);
        EXPECT_FALSE(want.events.empty());
        EXPECT_EQ(json_lines(subs[i]->events()), want.events)
            << "stream frames, cycle and t included";
    }

    const Frame st = c.stats();
    EXPECT_EQ(st.u64("done_gates"), specs.size());
    EXPECT_EQ(st.u64("gate_batches"), 1u) << "C, D and E refill the running block";
    EXPECT_EQ(st.u64("gate_lanes"), specs.size());
}

/// A direct run's events as the daemon must stream them: the behavioral
/// events Scheduler::run_behavioral_job emits, the RT-level system tap, or
/// a one-lane gate run.
std::vector<std::string> direct_event_lines(const JobSpec& spec) {
    trace::MemorySink sink;
    switch (spec.backend) {
        case service::JobBackend::kBehavioral: {
            core::BehavioralEngine eng(spec.params, core::rom_fitness(spec.fn),
                                       prng::RngKind::kCellularAutomaton,
                                       /*keep_populations=*/false);
            while (!eng.done()) {
                eng.step_generation();
                trace::TraceEvent e(trace::kind::kGeneration, 0, 0);
                e.add("gen", std::uint64_t{eng.generation()});
                e.add("best_fit", std::uint64_t{eng.best_fitness()});
                e.add("best_ind", std::uint64_t{eng.best_candidate()});
                sink.on_event(e);
            }
            trace::TraceEvent e(trace::kind::kDone, 0, 0);
            e.add("best_fit", std::uint64_t{eng.best_fitness()});
            e.add("best_ind", std::uint64_t{eng.best_candidate()});
            sink.on_event(e);
            return json_lines(sink.events());
        }
        case service::JobBackend::kRtl: {
            system::GaSystemConfig cfg;
            cfg.params = spec.params;
            cfg.internal_fems = {spec.fn};
            cfg.fitfunc_select = 0;
            cfg.keep_populations = false;
            cfg.trace_sink = &sink;
            system::run_ga_system(cfg);
            return json_lines(sink.events());
        }
        case service::JobBackend::kGates: return direct_lane(spec).events;
    }
    throw std::logic_error("unreachable");
}

TEST(Differential, StreamedLinesAreTheDirectRunsBytes) {
    // One worker pinned on a blocker keeps every job queued while its
    // stream attaches, so each stream carries its job's whole run. The raw
    // lines on the wire — batched into few writes — must be exactly the
    // direct run's event lines, in order, with stream_end last.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_bytes.sock";
    cfg.scheduler.workers = 1;
    service::Daemon d(cfg);
    service::Client c(d.socket_path());

    JobSpec blocker = gates_spec(fitness::FitnessId::kOneMax, 128, 50'000'000, 1);
    blocker.backend = service::JobBackend::kBehavioral;
    const std::uint64_t block_id = c.submit(blocker);
    while (c.status(block_id).str("state") == "queued")
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<JobSpec> specs = {
        gates_spec(fitness::FitnessId::kMBf6_2, 32, 12, 0x061F),
        gates_spec(fitness::FitnessId::kOneMax, 16, 8, 0x2961),
        gates_spec(fitness::FitnessId::kRoyalRoad, 16, 6, 0xB342),
    };
    specs[0].backend = service::JobBackend::kBehavioral;
    specs[1].backend = service::JobBackend::kRtl;
    std::vector<std::unique_ptr<service::Client>> subs;
    for (const JobSpec& s : specs) {
        const std::uint64_t id = c.submit(s);
        subs.push_back(std::make_unique<service::Client>(d.socket_path()));
        Frame req(service::verb::kStream);
        req.add("id", id);
        subs.back()->send(req);
        const Frame ack = subs.back()->read_frame();
        ASSERT_TRUE(ack.ok() && ack.u64("live") == 1) << service::to_line(ack);
    }
    c.cancel(block_id);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(service::job_backend_name(specs[i].backend));
        std::vector<std::string> lines;
        Frame end;
        for (;;) {
            std::string line = subs[i]->read_line();
            if (!service::is_event_line(line)) {
                end = service::parse_frame(line);
                break;
            }
            lines.push_back(std::move(line));
        }
        EXPECT_EQ(end.verb, "stream_end");
        EXPECT_EQ(end.str("state"), "done") << service::to_line(end);
        const std::vector<std::string> want = direct_event_lines(specs[i]);
        EXPECT_FALSE(want.empty());
        EXPECT_EQ(lines, want);
        // Nothing follows stream_end: the next line answers the next request.
        subs[i]->send(Frame(service::verb::kPing));
        EXPECT_EQ(service::parse_frame(subs[i]->read_line()).verb, service::verb::kPing);
    }
}

TEST(Differential, BehavioralJobBehindGateStreamDoesNotStarve) {
    // One worker, a steady stream of gates jobs keeping a lane block busy,
    // and a behavioral job submitted into the middle of it. Once the
    // behavioral job reaches the queue front the block stops admitting,
    // runs out its lanes and the worker takes it: it finishes while the
    // gates stream is still flowing.
    service::ServerConfig cfg;
    cfg.socket_path = "t_diff_starve.sock";
    cfg.scheduler.workers = 1;
    service::Daemon d(cfg);

    // The stream runs until the behavioral job is done, capped at 10 s —
    // far beyond a fair wait; a starving scheduler only serves the
    // behavioral job once the cap has ended the stream.
    std::atomic<bool> stop_feeding{false};
    std::atomic<bool> streaming{true};
    std::vector<std::uint64_t> gate_ids;
    std::thread feeder([&] {
        service::Client f(d.socket_path());
        for (std::uint16_t k = 0; k < 1000 && !stop_feeding; ++k) {
            gate_ids.push_back(f.submit(
                gates_spec(fitness::FitnessId::kOneMax, 16, 6, static_cast<std::uint16_t>(0x5000 + k))));
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        streaming = false;
    });

    service::Client c(d.socket_path());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    JobSpec beh;
    beh.fn = fitness::FitnessId::kOneMax;
    beh.backend = service::JobBackend::kBehavioral;
    beh.params = core::resolve_parameters(
        0, {.pop_size = 16, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
            .seed = 0x2961});
    const Frame end = c.run_job(beh);
    const bool stream_still_flowing = streaming.load();
    stop_feeding = true;
    feeder.join();
    EXPECT_EQ(end.str("state"), "done");
    EXPECT_TRUE(stream_still_flowing) << "the behavioral job waited for the whole gates stream";

    for (const std::uint64_t id : gate_ids) EXPECT_EQ(c.stream(id).str("state"), "done");
    EXPECT_EQ(c.stats().u64("done_gates"), gate_ids.size());
}

}  // namespace
