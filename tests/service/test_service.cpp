// End-to-end daemon behavior through the REAL socket stack: an in-process
// Daemon (poll loop + worker pool) driven by the Client that gaipctl and
// the --daemon tool paths use. Covers the full verb set, job lifecycle on
// every backend, cooperative cancellation (queued and mid-generation),
// deadline expiry, admission control, and streaming semantics — including
// per-lane cancel, deadline and drain inside a running gate block.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "gates/batch_runner.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "trace/event.hpp"

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

JobSpec small_job(service::JobBackend backend, std::uint16_t seed = 0x2961) {
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
    JobSpec spec = small_job(service::JobBackend::kBehavioral);
    spec.params.n_gens = 50'000'000;
    spec.params.pop_size = 128;
    return spec;
}

/// A gates job of about 15k GA cycles: long enough to still be running
/// while a test cancels, expires or drains around it.
JobSpec long_gates_job(std::uint16_t seed) {
    JobSpec spec = small_job(service::JobBackend::kGates, seed);
    spec.params.pop_size = 24;
    spec.params.n_gens = 16;
    return spec;
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
         {service::JobBackend::kBehavioral, service::JobBackend::kGates,
          service::JobBackend::kRtl}) {
        const Frame end = c.run_job(small_job(backend));
        EXPECT_EQ(end.str("state"), "done") << service::to_line(end);
        EXPECT_EQ(end.str("backend"), service::job_backend_name(backend));
        EXPECT_TRUE(end.has("best_fitness"));
        EXPECT_EQ(end.u64("generations"), 8u);
    }

    // Island ensemble and a supervised single-engine job ride the same path.
    JobSpec island = small_job(service::JobBackend::kRtl);
    island.islands = 4;
    island.migration.interval = 4;
    island.migration.count = 2;
    EXPECT_EQ(c.run_job(island).str("state"), "done");

    JobSpec sup = small_job(service::JobBackend::kRtl);
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

TEST(Service, CancelQueuedJob) {
    service::Daemon d(daemon_config("t_svc_cancelq.sock", /*workers=*/1));
    Client c(d.socket_path());
    const std::uint64_t blocker = c.submit(long_job());
    const std::uint64_t victim = c.submit(small_job(service::JobBackend::kBehavioral));

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
    const std::uint64_t q1 = c.submit(small_job(service::JobBackend::kGates, 0x3303));
    const std::uint64_t q2 = c.submit(small_job(service::JobBackend::kGates, 0x3304));
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
    const std::uint64_t queued = c.submit(small_job(service::JobBackend::kBehavioral));

    try {
        c.submit(small_job(service::JobBackend::kBehavioral));
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
    JobSpec spec = small_job(service::JobBackend::kBehavioral);
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
    const Frame done = c.run_job(small_job(service::JobBackend::kGates));
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
    for (int i = 0; i < 3; ++i) ids.push_back(c.submit(small_job(service::JobBackend::kGates)));
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
        JobSpec supervised = small_job(service::JobBackend::kRtl, 0x91);
        supervised.supervise = true;
        for (const JobSpec& spec : {small_job(service::JobBackend::kBehavioral, 0x92), supervised,
                                    small_job(service::JobBackend::kGates, 0x93)}) {
            const Frame end = c.run_job(spec);
            want.emplace_back(end.u64("id"), c.status(end.u64("id")));
        }
        EXPECT_EQ(want[1].second.str("status"), "ok");
        // A cancelled queued job: behind a blocker on the only worker.
        const std::uint64_t blocker = c.submit(long_job());
        const std::uint64_t victim = c.submit(small_job(service::JobBackend::kBehavioral, 0x94));
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
        failed.spec = small_job(service::JobBackend::kRtl, 0x95);
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
    EXPECT_EQ(c.run_job(small_job(service::JobBackend::kGates)).str("state"), "done");

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
    const std::uint64_t queued = c.submit(small_job(service::JobBackend::kBehavioral));

    // A subscriber watching the queued job while the queue is still below
    // the 75% stream-admission threshold (tier 1), to be shed on tier 2.
    Client watcher(d.socket_path());
    Frame end;
    std::thread watch([&] { end = watcher.stream(queued); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // Fill the queue to the brim (depth 4 of 4)...
    std::vector<std::uint64_t> filler;
    for (int i = 0; i < 3; ++i)
        filler.push_back(c.submit(small_job(service::JobBackend::kBehavioral)));

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
    c.send(service::submit_frame(small_job(service::JobBackend::kBehavioral)));
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
