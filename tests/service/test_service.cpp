// End-to-end daemon behavior through the REAL socket stack: an in-process
// Daemon (poll loop + worker pool) driven by the Client that gaipctl and
// the --daemon tool paths use. Covers the full verb set, job lifecycle on
// every backend, cooperative cancellation (queued and mid-generation),
// deadline expiry, admission control, and streaming semantics — including
// per-lane cancel, deadline and drain inside a running gate block.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "gates/batch_runner.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "system/ga_system.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"

namespace {

using namespace gaip;
using service::Client;
using service::Frame;
using service::JobSpec;

service::ServerConfig daemon_config(const std::string& socket, unsigned workers = 2,
                                    std::size_t max_queue = 64) {
    service::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.scheduler.workers = workers;
    cfg.scheduler.max_queue = max_queue;
    return cfg;
}

JobSpec small_job(core::Substrate backend, std::uint16_t seed = 0x2961) {
    JobSpec spec;
    spec.fn = fitness::FitnessId::kOneMax;
    spec.params = core::resolve_parameters(
        0, {.pop_size = 16, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
            .seed = seed});
    spec.backend = backend;
    return spec;
}

/// A behavioral job long enough to still be running whenever we get around
/// to cancelling it (cancel checks happen at generation boundaries, so it
/// stops promptly regardless).
JobSpec long_job() {
    JobSpec spec = small_job(core::Substrate::kBehavioral);
    spec.params.n_gens = 50'000'000;
    spec.params.pop_size = 128;
    return spec;
}

/// A gates job of about 15k GA cycles: long enough to still be running
/// while a test cancels, expires or drains around it.
JobSpec long_gates_job(std::uint16_t seed) {
    JobSpec spec = small_job(core::Substrate::kGates, seed);
    spec.params.pop_size = 24;
    spec.params.n_gens = 16;
    return spec;
}

/// How long an RT-level job may take to stop once cancelled, expired or
/// told to stop. Generations of long_rtl_job() take a few ms (~0.1 s under
/// ThreadSanitizer), so this leaves wide slack for one in flight.
constexpr std::chrono::milliseconds kRtlStopBound{3000};

/// An RT-level job a run-to-completion scheduler spends well over 20 x
/// kRtlStopBound on (12k generations of ~7 ms each on one 4-core x86
/// container): it only ends within the bound when the scheduler stops it at
/// a generation boundary.
JobSpec long_rtl_job() {
    JobSpec spec = small_job(core::Substrate::kRtl);
    spec.params.pop_size = 128;
    spec.params.n_gens = 12'000;
    return spec;
}

/// Thread-safe count of the generation events a job streams.
class GenerationCounter final : public trace::TraceSink {
public:
    void on_event(const trace::TraceEvent& e) override {
        if (e.kind == trace::kind::kGeneration) n_.fetch_add(1);
    }
    unsigned count() const { return n_.load(); }

private:
    std::atomic<unsigned> n_{0};
};

/// Poll until the job is terminal or `bound` has passed; its last status.
Frame status_after(Client& c, std::uint64_t id, std::chrono::milliseconds bound) {
    const auto until = std::chrono::steady_clock::now() + bound;
    Frame f = c.status(id);
    while (std::chrono::steady_clock::now() < until &&
           (f.str("state") == "queued" || f.str("state") == "running")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        f = c.status(id);
    }
    return f;
}

/// Poll until the job has left the queue.
void wait_running(Client& c, std::uint64_t id) {
    for (int i = 0; i < 6000 && c.status(id).str("state") == "queued"; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(c.status(id).str("state"), "running");
}

/// Direct runs of gates specs, one lane each of a single direct runner
/// (a lane's result does not depend on the block around it).
std::vector<gates::BatchLaneResult> direct_lanes(const std::vector<JobSpec>& specs) {
    std::vector<core::GaParameters> params;
    for (const JobSpec& s : specs) params.push_back(s.params);
    gates::BatchGateRunner runner(specs.front().fn, params);
    for (std::size_t k = 0; k < specs.size(); ++k)
        runner.set_lane_fitness(static_cast<unsigned>(k), specs[k].fn);
    return runner.run();
}

/// A done gates job must carry exactly its direct run's result.
void expect_result(const Frame& st, const gates::BatchLaneResult& want) {
    ASSERT_EQ(st.str("state"), "done") << service::to_line(st);
    EXPECT_EQ(st.u64("best_fitness"), want.best_fitness);
    EXPECT_EQ(st.u64("best_candidate"), want.best_candidate);
    EXPECT_EQ(st.u64("generations"), want.generations);
    EXPECT_EQ(st.u64("evaluations"), want.evaluations);
}

Frame wait_terminal(Client& c, std::uint64_t id) {
    for (int i = 0; i < 6000; ++i) {
        const Frame f = c.status(id);
        const std::string st = f.str("state");
        if (st != "queued" && st != "running") return f;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "job " << id << " never reached a terminal state";
    return c.status(id);
}

TEST(Service, PingStatsAndUnknowns) {
    service::Daemon d(daemon_config("t_svc_ping.sock"));
    Client c(d.socket_path());
    c.ping();  // throws on failure

    const Frame st = c.stats();
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(st.u64("submitted"), 0u);
    EXPECT_TRUE(st.has("uptime_s"));

    // Unknown verb -> structured rejection, connection stays usable.
    try {
        c.rpc(Frame("frobnicate"));
        FAIL() << "unknown verb accepted";
    } catch (const service::RemoteError& e) {
        EXPECT_EQ(e.code(), service::err::kUnknownVerb);
    }
    c.ping();

    // Unknown ids.
    try {
        c.status(9999);
        FAIL() << "status of unknown id accepted";
    } catch (const service::RemoteError& e) {
        EXPECT_EQ(e.code(), service::err::kNotFound);
    }
    EXPECT_EQ(c.cancel(9999), service::CancelOutcome::kNotFound);
}

TEST(Service, EveryBackendRunsToDone) {
    service::Daemon d(daemon_config("t_svc_backends.sock"));
    Client c(d.socket_path());

    for (const auto backend :
         {core::Substrate::kBehavioral, core::Substrate::kGates,
          core::Substrate::kRtl}) {
        const Frame end = c.run_job(small_job(backend));
        EXPECT_EQ(end.str("state"), "done") << service::to_line(end);
        EXPECT_EQ(end.str("backend"), core::substrate_name(backend));
        EXPECT_TRUE(end.has("best_fitness"));
        EXPECT_EQ(end.u64("generations"), 8u);
    }

    // Island ensemble and a supervised single-engine job ride the same path.
    JobSpec island = small_job(core::Substrate::kRtl);
    island.islands = 4;
    island.migration.interval = 4;
    island.migration.count = 2;
    EXPECT_EQ(c.run_job(island).str("state"), "done");

    JobSpec sup = small_job(core::Substrate::kRtl);
    sup.supervise = true;
    const Frame sup_end = c.run_job(sup);
    EXPECT_EQ(sup_end.str("state"), "done");
    EXPECT_EQ(sup_end.str("status"), "ok");

    const Frame st = c.stats();
    EXPECT_EQ(st.u64("submitted"), 5u);
    EXPECT_EQ(st.u64("done"), 5u);
    EXPECT_EQ(st.u64("failed"), 0u);
    EXPECT_EQ(st.u64("done_rtl"), 3u);
    EXPECT_EQ(st.u64("done_behavioral"), 1u);
    EXPECT_EQ(st.u64("done_gates"), 1u);
    EXPECT_EQ(st.u64("done_islands"), 1u);
    EXPECT_EQ(st.u64("done_supervised"), 1u);
}

TEST(Service, SubmitAckEchoesEffectiveValues) {
    service::Daemon d(daemon_config("t_svc_echo.sock"));
    Client c(d.socket_path());
    Frame req(service::verb::kSubmit);
    req.add("fitness", "OneMax");
    req.add("pop", std::uint64_t{500});  // clamps to 128
    req.add("gens", std::uint64_t{2});
    req.add("seed", std::uint64_t{0});   // remaps to 1
    const Frame ack = c.rpc(req);
    EXPECT_TRUE(ack.ok());
    EXPECT_GE(ack.u64("id"), 1u);
    EXPECT_EQ(ack.u64("pop"), 128u);
    EXPECT_EQ(ack.u64("seed"), 1u);
    wait_terminal(c, ack.u64("id"));
}

TEST(Service, CancelMidGeneration) {
    service::Daemon d(daemon_config("t_svc_cancel.sock"));
    Client c(d.socket_path());
    const std::uint64_t id = c.submit(long_job());

    // Wait until a worker actually picked it up, then cancel mid-run.
    for (int i = 0; i < 2000 && c.status(id).str("state") == "queued"; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(c.status(id).str("state"), "running");
    EXPECT_EQ(c.cancel(id), service::CancelOutcome::kCancelled);

    const Frame f = wait_terminal(c, id);
    EXPECT_EQ(f.str("state"), "cancelled");
    EXPECT_EQ(c.cancel(id), service::CancelOutcome::kTooLate);  // already terminal
    EXPECT_EQ(c.stats().u64("cancelled"), 1u);
}

TEST(Service, CancelStopsRunningRtlJobAtGenerationBoundary) {
    service::Daemon d(daemon_config("t_svc_rtlcancel.sock"));
    Client c(d.socket_path());
    const std::uint64_t id = c.submit(long_rtl_job());
    const auto gens = std::make_shared<GenerationCounter>();
    ASSERT_TRUE(d.scheduler().attach_stream(id, gens, [](const service::JobRecord&) {}));
    const auto until = std::chrono::steady_clock::now() + kRtlStopBound;
    while (gens->count() < 2 && std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(c.status(id).str("state"), "running");
    ASSERT_GE(gens->count(), 2u);

    EXPECT_EQ(c.cancel(id), service::CancelOutcome::kCancelled);
    const unsigned at_ack = gens->count();
    const Frame f = status_after(c, id, kRtlStopBound);
    EXPECT_EQ(f.str("state"), "cancelled");
    EXPECT_LE(gens->count(), at_ack + 1) << "only the generation in flight may follow the ack";
}

TEST(Service, DeadlineExpiresRunningRtlJob) {
    service::Daemon d(daemon_config("t_svc_rtldeadline.sock"));
    Client c(d.socket_path());
    JobSpec spec = long_rtl_job();
    spec.deadline_ms = 300;
    const std::uint64_t id = c.submit(spec);
    const Frame f = status_after(c, id, std::chrono::milliseconds(spec.deadline_ms) + kRtlStopBound);
    EXPECT_EQ(f.str("state"), "expired");
}

TEST(Service, DaemonStopEndsRunningRtlJob) {
    auto d = std::make_unique<service::Daemon>(daemon_config("t_svc_rtlstop.sock"));
    {
        Client c(d->socket_path());
        wait_running(c, c.submit(long_rtl_job()));
    }
    // Stops the poll loop, then the scheduler, which joins its workers.
    const auto t0 = std::chrono::steady_clock::now();
    d.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, kRtlStopBound);
}

TEST(Service, CancelQueuedJob) {
    service::Daemon d(daemon_config("t_svc_cancelq.sock", /*workers=*/1));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    const std::uint64_t victim = c.submit(small_job(core::Substrate::kBehavioral));

    EXPECT_EQ(c.cancel(victim), service::CancelOutcome::kCancelled);
    EXPECT_EQ(c.status(victim).str("state"), "cancelled");  // immediate, never ran

    EXPECT_EQ(c.cancel(blocker), service::CancelOutcome::kCancelled);
    wait_terminal(c, blocker);
}

TEST(Service, CancelOneLaneOfRunningGateBlock) {
    // Eight gates jobs pile up behind a blocker and open one block
    // together; cancelling one frees its lane at the next check window
    // while its seven siblings run on to bit-exact results.
    service::Daemon d(daemon_config("t_svc_lanecancel.sock", /*workers=*/1));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    wait_running(c, blocker);
    std::vector<JobSpec> specs;
    std::vector<std::uint64_t> ids;
    for (std::uint16_t k = 0; k < 8; ++k) {
        specs.push_back(long_gates_job(static_cast<std::uint16_t>(0x3100 + k)));
        ids.push_back(c.submit(specs.back()));
    }
    c.cancel(blocker);
    for (const std::uint64_t id : ids) wait_running(c, id);

    EXPECT_EQ(c.cancel(ids[3]), service::CancelOutcome::kCancelled);
    EXPECT_EQ(wait_terminal(c, ids[3]).str("state"), "cancelled");
    // One check window is ~2k cycles; the siblings need ~15k.
    std::size_t still_running = 0;
    for (std::size_t k = 0; k < ids.size(); ++k)
        if (k != 3 && c.status(ids[k]).str("state") == "running") ++still_running;
    EXPECT_EQ(still_running, 7u) << "the cancelled lane must end long before its block";

    const std::vector<gates::BatchLaneResult> want = direct_lanes(specs);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        if (k == 3) continue;
        SCOPED_TRACE("lane job " + std::to_string(k));
        expect_result(wait_terminal(c, ids[k]), want[k]);
    }
    const Frame st = c.stats();
    EXPECT_EQ(st.u64("done_gates"), 7u);
    EXPECT_EQ(st.u64("cancelled"), 2u);  // the blocker and the one lane
    EXPECT_EQ(st.u64("gate_batches"), 1u);
    EXPECT_EQ(st.u64("gate_lanes"), 8u);
}

TEST(Service, DeadlineMidBlockExpiresOnlyThatLane) {
    // Five gates jobs and one far longer job whose deadline passes while
    // the block runs: only that lane expires.
    service::Daemon d(daemon_config("t_svc_lanedeadline.sock", /*workers=*/1));
    Client c(d.socket_path());
    JobSpec late = long_gates_job(0x3200);
    late.params.pop_size = 64;
    late.params.n_gens = 1000;
    late.deadline_ms = 300;
    std::vector<JobSpec> specs;
    std::vector<std::uint64_t> ids;
    for (std::uint16_t k = 1; k <= 5; ++k)
        specs.push_back(long_gates_job(static_cast<std::uint16_t>(0x3200 + k)));
    // The block is running before the deadline clock starts, so the job
    // is admitted at once and its deadline passes inside the block.
    ids.push_back(c.submit(specs[0]));
    wait_running(c, ids[0]);
    const std::uint64_t late_id = c.submit(late);
    for (std::size_t k = 1; k < specs.size(); ++k) ids.push_back(c.submit(specs[k]));
    EXPECT_EQ(wait_terminal(c, late_id).str("state"), "expired");
    const std::vector<gates::BatchLaneResult> want = direct_lanes(specs);
    for (std::size_t k = 0; k < ids.size(); ++k) {
        SCOPED_TRACE("lane job " + std::to_string(k));
        expect_result(wait_terminal(c, ids[k]), want[k]);
    }
    const Frame st = c.stats();
    EXPECT_EQ(st.u64("expired"), 1u);
    EXPECT_EQ(st.u64("done_gates"), 5u);
    EXPECT_EQ(st.u64("gate_batches"), 1u) << "late arrivals refill the running block";
    EXPECT_EQ(st.u64("gate_lanes"), 6u);
}

TEST(Service, DrainDuringLiveGateBlockAdmitsNoLanes) {
    // A two-lane block is full, so two more gates jobs wait in the queue.
    // After `shutdown --drain` the block's lanes finish, but the lanes
    // they free must not take the queued jobs: those stay pending in the
    // journal for the next boot.
    const std::string dir = "t_svc_lanedrain.j";
    std::filesystem::remove_all(dir);
    service::ServerConfig cfg = daemon_config("t_svc_lanedrain.sock", /*workers=*/1);
    cfg.scheduler.max_batch_lanes = 2;
    cfg.journal_dir = dir;
    service::Daemon d(cfg);
    Client c(d.socket_path());
    const JobSpec running_a = long_gates_job(0x3301);
    const JobSpec running_b = long_gates_job(0x3302);
    const std::uint64_t a = c.submit(running_a);
    const std::uint64_t b = c.submit(running_b);
    wait_running(c, a);
    wait_running(c, b);
    const std::uint64_t q1 = c.submit(small_job(core::Substrate::kGates, 0x3303));
    const std::uint64_t q2 = c.submit(small_job(core::Substrate::kGates, 0x3304));
    EXPECT_EQ(c.status(q1).str("state"), "queued");
    EXPECT_EQ(c.status(q2).str("state"), "queued");

    Frame req(service::verb::kShutdown);
    req.add("drain", std::uint64_t{1});
    EXPECT_EQ(c.rpc(req).u64("drain"), 1u);
    d.scheduler().wait_drained();  // the two running lanes finish

    const service::ServiceStats st = d.scheduler().stats();
    EXPECT_EQ(st.gate_batches, 1u);
    EXPECT_EQ(st.gate_lanes, 2u) << "no lane admitted after the drain";
    EXPECT_EQ(st.done_gates, 2u);

    const service::JournalReplay rep = service::replay_journal(dir);
    std::vector<std::uint64_t> pending, done;
    for (const service::JobRecord& r : rep.pending) pending.push_back(r.id);
    for (const service::JobRecord& r : rep.terminal)
        if (r.state == service::JobState::kDone) done.push_back(r.id);
    std::sort(pending.begin(), pending.end());
    std::sort(done.begin(), done.end());
    EXPECT_EQ(pending, (std::vector<std::uint64_t>{q1, q2}));
    EXPECT_EQ(done, (std::vector<std::uint64_t>{a, b}));
    std::filesystem::remove_all(dir);
}

TEST(Service, DeadlineExpiry) {
    service::Daemon d(daemon_config("t_svc_deadline.sock"));
    Client c(d.socket_path());
    JobSpec spec = long_job();
    spec.deadline_ms = 80;
    const std::uint64_t id = c.submit(spec);

    const Frame f = wait_terminal(c, id);
    EXPECT_EQ(f.str("state"), "expired");
    EXPECT_GE(c.stats().u64("deadline_misses"), 1u);
    EXPECT_EQ(c.stats().u64("expired"), 1u);
}

TEST(Service, QueueFullRejection) {
    // One worker blocked + a one-slot queue: the third submit must be
    // rejected by admission control, not buffered.
    service::Daemon d(daemon_config("t_svc_full.sock", /*workers=*/1, /*max_queue=*/1));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    for (int i = 0; i < 2000 && c.status(blocker).str("state") == "queued"; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t queued = c.submit(small_job(core::Substrate::kBehavioral));

    try {
        c.submit(small_job(core::Substrate::kBehavioral));
        FAIL() << "submit beyond max_queue accepted";
    } catch (const service::RemoteError& e) {
        EXPECT_EQ(e.code(), service::err::kQueueFull);
    }
    EXPECT_EQ(c.stats().u64("rejected"), 1u);

    c.cancel(queued);
    c.cancel(blocker);
    wait_terminal(c, blocker);
}

TEST(Service, StreamLiveJobCarriesEvents) {
    // One worker pinned on a blocker guarantees the victim is still queued
    // when the stream attaches — the stream must then carry the victim's
    // full per-generation telemetry once the blocker is cancelled.
    service::Daemon d(daemon_config("t_svc_stream.sock", /*workers=*/1));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    for (int i = 0; i < 2000 && c.status(blocker).str("state") == "queued"; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    JobSpec spec = small_job(core::Substrate::kBehavioral);
    spec.params.n_gens = 32;
    const std::uint64_t victim = c.submit(spec);

    std::thread unblock([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        Client c2(d.socket_path());
        c2.cancel(blocker);
    });
    std::vector<trace::TraceEvent> events;
    const Frame end =
        c.stream(victim, [&](const trace::TraceEvent& e) { events.push_back(e); });
    unblock.join();
    EXPECT_EQ(end.verb, "stream_end");
    EXPECT_EQ(end.str("state"), "done");
    EXPECT_FALSE(events.empty());
}

TEST(Service, StreamOnTerminalJobEndsImmediately) {
    service::Daemon d(daemon_config("t_svc_stream2.sock"));
    Client c(d.socket_path());
    const Frame done = c.run_job(small_job(core::Substrate::kGates));
    const std::uint64_t id = done.u64("id");

    // The job is long finished; stream must answer ack + stream_end without
    // blocking (no sink ever attaches).
    std::vector<trace::TraceEvent> events;
    const Frame end = c.stream(id, [&](const trace::TraceEvent& e) { events.push_back(e); });
    EXPECT_EQ(end.str("state"), "done");
    EXPECT_TRUE(events.empty());
}

TEST(Service, ListShowsEveryJob) {
    service::Daemon d(daemon_config("t_svc_list.sock"));
    Client c(d.socket_path());
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(c.submit(small_job(core::Substrate::kGates)));
    for (const auto id : ids) wait_terminal(c, id);

    c.send(Frame(service::verb::kList));
    std::size_t rows = 0;
    for (;;) {
        const Frame f = c.read_frame();
        if (f.verb == service::verb::kList) {
            EXPECT_TRUE(f.ok());
            EXPECT_EQ(f.u64("count"), 3u);
            break;
        }
        EXPECT_EQ(f.verb, "job");
        ++rows;
    }
    EXPECT_EQ(rows, 3u);
}

/// Every terminal job must answer status, list, cancel and stream the same
/// way whether it finished in this daemon life or was restored from the
/// journal: both live in the compact terminal table.
void expect_terminal_rows(Client& c, const std::vector<std::pair<std::uint64_t, Frame>>& want) {
    for (const auto& [id, expected] : want) {
        const Frame st = c.status(id);
        for (const char* key : {"state", "fitness", "backend", "status", "error"})
            EXPECT_EQ(st.str(key), expected.str(key)) << key << " of id " << id;
        for (const char* key : {"pop", "gens", "seed", "supervise", "best_fitness",
                                "best_candidate", "generations", "evaluations"})
            EXPECT_EQ(st.u64(key), expected.u64(key)) << key << " of id " << id;
        EXPECT_EQ(c.cancel(id), service::CancelOutcome::kTooLate) << "id " << id;
        std::vector<trace::TraceEvent> events;
        const Frame end = c.stream(id, [&](const trace::TraceEvent& e) { events.push_back(e); });
        EXPECT_EQ(end.str("state"), expected.str("state")) << "id " << id;
        EXPECT_EQ(end.str("error"), expected.str("error")) << "id " << id;
        EXPECT_TRUE(events.empty());
    }
    c.send(Frame(service::verb::kList));
    std::vector<std::uint64_t> listed;
    for (;;) {
        const Frame f = c.read_frame();
        if (f.verb == service::verb::kList) break;
        listed.push_back(f.u64("id"));
    }
    std::vector<std::uint64_t> ids;
    for (const auto& [id, expected] : want) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(listed, ids);
}

TEST(Service, TerminalRowsServeLiveAndRestoredJobs) {
    const std::string dir = "t_svc_rows.j";
    std::filesystem::remove_all(dir);
    service::ServerConfig cfg = daemon_config("t_svc_rows.sock", /*workers=*/1);
    cfg.journal_dir = dir;
    std::vector<std::pair<std::uint64_t, Frame>> want;
    {
        service::Daemon d(cfg);
        Client c(d.socket_path());
        JobSpec supervised = small_job(core::Substrate::kRtl, 0x91);
        supervised.supervise = true;
        for (const JobSpec& spec : {small_job(core::Substrate::kBehavioral, 0x92), supervised,
                                    small_job(core::Substrate::kGates, 0x93)}) {
            const Frame end = c.run_job(spec);
            want.emplace_back(end.u64("id"), c.status(end.u64("id")));
        }
        EXPECT_EQ(want[1].second.str("status"), "ok");
        // A cancelled queued job: behind a blocker on the only worker.
        const std::uint64_t blocker = c.submit(long_job());
        const std::uint64_t victim = c.submit(small_job(core::Substrate::kBehavioral, 0x94));
        EXPECT_EQ(c.cancel(victim), service::CancelOutcome::kCancelled);
        EXPECT_EQ(c.cancel(blocker), service::CancelOutcome::kCancelled);
        wait_terminal(c, blocker);
        want.emplace_back(blocker, c.status(blocker));
        want.emplace_back(victim, c.status(victim));
        expect_terminal_rows(c, want);
    }
    // A failed job with its error string, as a previous life journaled it.
    {
        service::Journal j(dir);
        service::JobRecord failed;
        failed.id = 40;
        failed.spec = small_job(core::Substrate::kRtl, 0x95);
        j.record_submit(failed);
        failed.state = service::JobState::kFailed;
        failed.error = "supervisor abort: out of retries";
        j.record_terminal(failed);
        Frame row = service::job_frame(failed);
        want.emplace_back(failed.id, row);
    }
    service::Daemon d2(cfg);
    Client c2(d2.socket_path());
    EXPECT_EQ(c2.stats().u64("restored"), want.size());
    expect_terminal_rows(c2, want);
}

TEST(Service, SlowStreamConsumerIsEvictedNeverBlocksScheduler) {
    // A subscriber that stops reading must be EVICTED once its outbox
    // bound fills — the workers and every other client keep moving.
    service::ServerConfig cfg = daemon_config("t_svc_slow.sock");
    cfg.max_outbox_bytes = 4096;  // tiny: a stalled reader overflows fast
    service::Daemon d(cfg);

    Client slow(d.socket_path());
    const std::uint64_t id = slow.submit(long_job());
    Frame sub(service::verb::kStream);
    sub.add("id", id);
    slow.send(sub);
    // ... and now the slow consumer goes to lunch: it never reads again.

    Client c(d.socket_path());
    bool evicted = false;
    for (int i = 0; i < 6000 && !evicted; ++i) {
        evicted = c.stats().u64("slow_evicted") >= 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(evicted) << service::to_line(c.stats());
    EXPECT_GE(c.stats().u64("streams_shed"), 1u);

    // Scheduler is unobstructed: a fresh job runs to done while the
    // flooded job is still spinning.
    EXPECT_EQ(c.run_job(small_job(core::Substrate::kGates)).str("state"), "done");

    // The evicted consumer's connection is really gone: draining the
    // kernel-buffered backlog ends in EOF, not another control frame.
    try {
        for (;;) slow.read_frame();
    } catch (const service::MalformedResponse&) {
    } catch (const service::ConnectError&) {
    }

    c.cancel(id);
    wait_terminal(c, id);
}

TEST(Service, PerClientConnectionCapRejects) {
    service::ServerConfig cfg = daemon_config("t_svc_caps.sock");
    cfg.max_conns_per_client = 2;
    service::Daemon d(cfg);

    Client a(d.socket_path());
    Client b(d.socket_path());
    a.ping();
    b.ping();

    // The third connection from this pid is turned away with a structured
    // rejection carrying a retry hint, then closed.
    Client over(d.socket_path());
    try {
        over.ping();
        FAIL() << "connection beyond the per-client cap accepted";
    } catch (const service::RemoteError& e) {
        EXPECT_EQ(e.code(), service::err::kTooManyConns);
    } catch (const service::ConnectError&) {
        // close won the race with our ping write — equally fine
    } catch (const service::MalformedResponse&) {
    }
    EXPECT_GE(a.stats().u64("conns_rejected"), 1u);
    a.ping();  // existing connections are untouched
    b.ping();
}

TEST(Service, QueueFullShedsStreamsAndHintsRetry) {
    service::Daemon d(daemon_config("t_svc_shed.sock", /*workers=*/1, /*max_queue=*/4));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    for (int i = 0; i < 2000 && c.status(blocker).str("state") == "queued"; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t queued = c.submit(small_job(core::Substrate::kBehavioral));

    // A subscriber watching the queued job while the queue is still below
    // the 75% stream-admission threshold (tier 1), to be shed on tier 2.
    Client watcher(d.socket_path());
    Frame end;
    std::thread watch([&] { end = watcher.stream(queued); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // Fill the queue to the brim (depth 4 of 4)...
    std::vector<std::uint64_t> filler;
    for (int i = 0; i < 3; ++i)
        filler.push_back(c.submit(small_job(core::Substrate::kBehavioral)));

    // ... tier 1: new stream subscriptions are now refused ...
    Client late(d.socket_path());
    Frame sub(service::verb::kStream);
    sub.add("id", queued);
    late.send(sub);
    const Frame refused = late.read_frame();
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(refused.str("code"), service::err::kOverloaded);

    // ... tier 2: the over-capacity submit is rejected with a bounded
    // retry_after_ms hint and existing subscribers are shed.
    c.send(service::submit_frame(small_job(core::Substrate::kBehavioral)));
    const Frame rej = c.read_frame();
    EXPECT_FALSE(rej.ok());
    EXPECT_EQ(rej.str("code"), service::err::kQueueFull);
    EXPECT_GE(rej.u64("retry_after_ms"), 100u);
    EXPECT_LE(rej.u64("retry_after_ms"), 5100u);

    watch.join();
    EXPECT_EQ(end.verb, "stream_end");
    EXPECT_EQ(end.str("state"), "shed");
    EXPECT_GE(c.stats().u64("streams_shed"), 1u);

    for (const auto id : filler) c.cancel(id);
    c.cancel(queued);
    c.cancel(blocker);
    wait_terminal(c, blocker);
}

/// Subscribe `watcher` to `id` and return once the ack is read: the poll
/// thread attaches the stream before it reads any later request.
void subscribe(Client& watcher, std::uint64_t id) {
    Frame sub(service::verb::kStream);
    sub.add("id", id);
    watcher.send(sub);
    const Frame ack = watcher.read_frame();
    ASSERT_TRUE(ack.ok()) << service::to_line(ack);
    ASSERT_EQ(ack.u64("live"), 1u);
}

/// Read the watcher's frames up to and including the reply to a fresh
/// ping; returns the stream_end frames among them.
std::vector<Frame> stream_ends_before_ping(Client& watcher) {
    watcher.send(Frame(service::verb::kPing));
    std::vector<Frame> ends;
    for (;;) {
        Frame f = watcher.read_frame();
        if (f.verb == service::verb::kPing) return ends;
        if (f.verb == "stream_end") ends.push_back(std::move(f));
    }
}

TEST(Service, QueueFullShedsOnlyStreamsStillAttached) {
    // Job A streams to its end on the watcher's connection; later job B
    // streams on the same connection and queue-full shedding strikes. Only
    // B's stream is still attached: exactly one "shed" frame, for B, and
    // streams_shed counts it once. A's ended stream is not re-ended.
    service::Daemon d(daemon_config("t_svc_shed2.sock", /*workers=*/1, /*max_queue=*/4));
    Client c(d.socket_path());
    Client watcher(d.socket_path());

    const std::uint64_t blocker_a = c.submit(long_job());
    wait_running(c, blocker_a);
    const std::uint64_t a = c.submit(small_job(core::Substrate::kBehavioral));
    subscribe(watcher, a);
    c.cancel(blocker_a);
    Frame end_a = watcher.read_frame();
    EXPECT_EQ(end_a.verb, "stream_end");
    EXPECT_EQ(end_a.u64("id"), a);
    EXPECT_EQ(end_a.str("state"), "done");

    const std::uint64_t blocker_b = c.submit(long_job());
    wait_running(c, blocker_b);
    const std::uint64_t b = c.submit(small_job(core::Substrate::kBehavioral));
    subscribe(watcher, b);
    const std::uint64_t shed_before = c.stats().u64("streams_shed");
    std::vector<std::uint64_t> filler;
    for (int i = 0; i < 3; ++i)
        filler.push_back(c.submit(small_job(core::Substrate::kBehavioral)));
    EXPECT_THROW(c.submit(small_job(core::Substrate::kBehavioral)), service::RemoteError);

    const std::vector<Frame> ends = stream_ends_before_ping(watcher);
    ASSERT_EQ(ends.size(), 1u);
    EXPECT_EQ(ends[0].u64("id"), b);
    EXPECT_EQ(ends[0].str("state"), "shed");
    EXPECT_EQ(c.stats().u64("streams_shed"), shed_before + 1);

    // B's detached stream stays silent when B itself ends.
    for (const auto id : filler) c.cancel(id);
    c.cancel(blocker_b);
    EXPECT_EQ(wait_terminal(c, b).str("state"), "done");
    EXPECT_TRUE(stream_ends_before_ping(watcher).empty());
}

TEST(Service, StreamCountersCountBatchedEventLines) {
    // An RT-level job streamed from before it starts: every event line of
    // its direct run reaches the subscriber, in a few batched writes.
    service::Daemon d(daemon_config("t_svc_batch.sock", /*workers=*/1));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    wait_running(c, blocker);
    const JobSpec spec = small_job(core::Substrate::kRtl);
    const std::uint64_t id = c.submit(spec);
    Client watcher(d.socket_path());
    subscribe(watcher, id);
    c.cancel(blocker);

    std::uint64_t received = 0, bytes = 0;
    const Frame end = watcher.read_frame([&](const trace::TraceEvent& e) {
        ++received;
        bytes += trace::to_json_line(e).size() + 1;
    });
    EXPECT_EQ(end.verb, "stream_end");
    EXPECT_EQ(end.str("state"), "done");

    trace::MemorySink direct;
    system::GaSystemConfig cfg;
    cfg.params = spec.params;
    cfg.internal_fems = {spec.fn};
    cfg.keep_populations = false;
    cfg.trace_sink = &direct;
    system::run_ga_system(cfg);

    const Frame st = c.stats();
    const std::uint64_t events = st.u64("stream_events");
    const std::uint64_t writes = st.u64("stream_writes");
    EXPECT_EQ(received, direct.events().size());
    EXPECT_EQ(events, direct.events().size());
    EXPECT_GE(writes, 1u);
    // The liveness contract bounds the writes: one per full batch, at most
    // one per elapsed batch age (run_ms is truncated), one at the end.
    const std::uint64_t run_ms = c.status(id).u64("run_ms");
    const auto age_ms = static_cast<std::uint64_t>(service::kStreamBatchAge.count());
    EXPECT_LE(writes, bytes / service::kStreamBatchBytes + (run_ms + 1) / age_ms + 1)
        << service::to_line(st);
    // At 8 or more events per batch age (an optimized build runs this job
    // at ~300 per ms; a sanitizer build can fall below 8), that leaves at
    // least 8 event lines per write.
    if (events >= 8 * (run_ms + 1) / age_ms) {
        EXPECT_LE(writes * 8, events) << service::to_line(st);
    }
}

TEST(Service, ClientParsesBurstsAndSplitFrames) {
    // A scripted peer answers with 1,000 event lines in one write, then a
    // frame split across two writes, then a second frame. The client must
    // hand over every event and both frames exactly as the lines parse.
    const std::string path = "t_svc_burst.sock";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    ::unlink(path.c_str());
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);

    std::string burst;
    std::vector<trace::TraceEvent> want;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        trace::TraceEvent e(trace::kind::kGeneration, i * 20'000, i);
        e.add("gen", i).add("best_fit", i * 7).add("note", std::string("a\"b"));
        trace::append_json_line(burst, e);
        burst += '\n';
        want.push_back(e);
    }
    Frame first("stream_end");
    first.add("ok", std::uint64_t{1});
    first.add("id", std::uint64_t{42});
    first.add("state", "done");
    const std::string first_line = service::to_line(first) + "\n";
    const std::string second_line = service::to_line(service::ok_frame(service::verb::kPing)) + "\n";
    const std::size_t split = first_line.size() / 2;
    burst += first_line.substr(0, split);

    std::thread peer([&] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        const auto send_all = [fd](const std::string& out) {
            for (std::size_t off = 0; off < out.size();) {
                const ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
                if (n <= 0) return;
                off += static_cast<std::size_t>(n);
            }
        };
        send_all(burst);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        send_all(first_line.substr(split) + second_line);
        char b;
        [[maybe_unused]] const ssize_t n = ::recv(fd, &b, 1, 0);  // until the client closes
        ::close(fd);
    });
    {
        Client client(path);
        std::vector<trace::TraceEvent> got;
        const Frame f = client.read_frame([&](const trace::TraceEvent& e) { got.push_back(e); });
        EXPECT_EQ(got, want);
        EXPECT_EQ(service::to_line(f), service::to_line(first));
        EXPECT_EQ(client.read_frame().verb, service::verb::kPing);
    }
    peer.join();
    ::close(lfd);
    ::unlink(path.c_str());
}

TEST(Service, ShutdownVerbStopsTheDaemon) {
    service::ServerConfig cfg = daemon_config("t_svc_down.sock");
    auto server = std::make_unique<service::Server>(cfg);
    std::thread t([&] { server->run(); });
    {
        Client c(cfg.socket_path);
        c.shutdown();
    }
    t.join();  // run() must return because of the verb, not stop()
    server.reset();
    EXPECT_THROW(Client bad(cfg.socket_path), service::ConnectError);
}

}  // namespace
