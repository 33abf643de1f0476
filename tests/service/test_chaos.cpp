// Service chaos harness (the tentpole acceptance tests): SIGKILL a real
// gaipd mid-generation under mixed-backend load and prove the write-ahead
// journal recovers every job to the SAME results an uninterrupted run
// produces; boot over torn/corrupt journals; keep serving on ENOSPC;
// survive a kill-9/recover loop; stream across a restart; drain-exit.
//
// Every daemon here is a real forked process of the gaipd binary
// (GAIPD_BIN) — in-process recovery coverage lives in test_journal.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "tests/service/chaos_util.hpp"

namespace {

using namespace gaip;
using service::Frame;
using service::JobSpec;

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
    fs::remove_all(name);
    return name;
}

JobSpec make_spec(core::Substrate backend, std::uint16_t seed, std::uint16_t gens,
                  std::uint8_t pop = 32) {
    JobSpec spec;
    spec.fn = fitness::FitnessId::kOneMax;
    spec.params = core::resolve_parameters(
        0, {.pop_size = pop, .n_gens = gens, .xover_threshold = 12, .mut_threshold = 1,
            .seed = seed});
    spec.backend = backend;
    return spec;
}

/// The mixed-backend load of the acceptance criterion: >= 16 jobs across
/// all three substrates with staggered durations, so a kill lands with
/// some jobs done, some running, some still queued.
std::vector<JobSpec> mixed_load() {
    std::vector<JobSpec> specs;
    const core::Substrate backends[] = {core::Substrate::kBehavioral,
                                            core::Substrate::kGates,
                                            core::Substrate::kRtl};
    for (unsigned i = 0; i < 16; ++i) {
        const auto b = backends[i % 3];
        // RTL is cycle-accurate (slow): keep its runs short. Behavioral
        // carries the long tails that a kill interrupts mid-generation.
        const std::uint16_t gens =
            b == core::Substrate::kRtl
                ? static_cast<std::uint16_t>(8 + 4 * i)
                : static_cast<std::uint16_t>(b == core::Substrate::kBehavioral
                                                 ? 500 + 250 * i
                                                 : 60 + 30 * i);
        specs.push_back(make_spec(b, static_cast<std::uint16_t>(0x1000 + 17 * i), gens));
    }
    return specs;
}

/// Status poll that re-dials every attempt (connections die with daemons).
Frame wait_terminal(const std::string& socket, std::uint64_t id, double seconds = 120.0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
    Frame last;
    while (std::chrono::steady_clock::now() < deadline) {
        try {
            service::Client c = chaos::dial(socket);
            last = c.status(id);
            const std::string st = last.str("state");
            if (st != "queued" && st != "running") return last;
        } catch (const std::exception&) {
            // daemon between lives — keep polling
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "job " << id << " never reached a terminal state";
    return last;
}

/// The result fields that must be bit-identical between an uninterrupted
/// run and a crash-recovered one.
struct Result {
    std::string state;
    std::uint64_t best_fitness = 0, best_candidate = 0, generations = 0, evaluations = 0;

    friend bool operator==(const Result&, const Result&) = default;
};

Result result_of(const Frame& f) {
    return {f.str("state"), f.u64("best_fitness"), f.u64("best_candidate"),
            f.u64("generations"), f.u64("evaluations")};
}

// The acceptance test: >= 16 concurrent mixed-backend jobs, SIGKILL
// mid-generation, restart on the same journal, every job reaches a
// terminal state with results bit-identical to an uninterrupted run.
TEST(Chaos, KillMidRunRecoversBitIdenticalResults) {
    // Uninterrupted baseline.
    const std::vector<JobSpec> specs = mixed_load();
    std::vector<Result> baseline;
    {
        const std::string dir = fresh_dir("t_chaos_base.j");
        chaos::Gaipd d =
            chaos::spawn_gaipd("t_chaos_base.sock", {"--journal", dir, "--workers", "4"});
        ASSERT_TRUE(chaos::wait_ready(d));
        std::vector<std::uint64_t> ids;
        {
            service::Client c = chaos::dial(d.socket);
            for (const JobSpec& s : specs) ids.push_back(c.submit(s));
        }
        for (const std::uint64_t id : ids)
            baseline.push_back(result_of(wait_terminal(d.socket, id)));
        chaos::terminate(d);
    }
    for (const Result& r : baseline) ASSERT_EQ(r.state, "done");

    // Chaos run: same specs, same submission order -> same ids 1..16.
    const std::string dir = fresh_dir("t_chaos_kill.j");
    chaos::Gaipd d =
        chaos::spawn_gaipd("t_chaos_kill.sock", {"--journal", dir, "--workers", "4"});
    ASSERT_TRUE(chaos::wait_ready(d));
    std::vector<std::uint64_t> ids;
    {
        service::Client c = chaos::dial(d.socket);
        for (const JobSpec& s : specs) ids.push_back(c.submit(s));
    }
    ASSERT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                               14, 15, 16}));

    // Let the pool get properly mid-flight, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    chaos::kill9(d);

    d = chaos::spawn_gaipd("t_chaos_kill.sock", {"--journal", dir, "--workers", "4"});
    ASSERT_TRUE(chaos::wait_ready(d));
    {
        service::Client c = chaos::dial(d.socket);
        const Frame st = c.stats();
        EXPECT_EQ(st.u64("restored") + st.u64("readmitted"), 16u)
            << service::to_line(st);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Result got = result_of(wait_terminal(d.socket, ids[i]));
        EXPECT_EQ(got, baseline[i])
            << "job " << ids[i] << " diverged after crash recovery: state=" << got.state
            << " fitness=" << got.best_fitness << "/" << baseline[i].best_fitness
            << " cand=" << got.best_candidate << "/" << baseline[i].best_candidate
            << " gens=" << got.generations << "/" << baseline[i].generations
            << " evals=" << got.evaluations << "/" << baseline[i].evaluations;
    }
    chaos::terminate(d);
}

// A journal with a torn tail AND a corrupt middle line must boot: damaged
// lines are skipped + counted (stats.journal_replay_skipped), intact
// records before the damage all recover.
TEST(Chaos, BootsOverTornAndCorruptJournal) {
    const std::string dir = fresh_dir("t_chaos_torn.j");
    {
        service::Journal j(dir);
        service::JobRecord rec;
        rec.id = 1;
        rec.spec = make_spec(core::Substrate::kBehavioral, 0x77, 8);
        j.record_submit(rec);
        rec.state = service::JobState::kDone;
        rec.outcome.best_fitness = 16;
        rec.outcome.generations = 8;
        j.record_terminal(rec);
        rec = {};
        rec.id = 2;
        rec.spec = make_spec(core::Substrate::kGates, 0x78, 8);
        j.record_submit(rec);
    }
    {
        // Corrupt the id-2 submit line, then tear the tail mid-append.
        std::ifstream in(dir + "/journal.jsonl");
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
        in.close();
        ASSERT_EQ(lines.size(), 3u);
        lines[2][lines[2].size() / 2] ^= 1;
        std::ofstream out(dir + "/journal.jsonl", std::ios::trunc);
        for (const std::string& l : lines) out << l << "\n";
        out << R"({"kind":"j_submit","id":3,"fitn)";  // no newline: torn
    }

    chaos::Gaipd d = chaos::spawn_gaipd("t_chaos_torn.sock", {"--journal", dir});
    ASSERT_TRUE(chaos::wait_ready(d));
    service::Client c = chaos::dial(d.socket);
    const Frame st = c.stats();
    EXPECT_EQ(st.u64("journal_replay_skipped"), 2u) << service::to_line(st);
    EXPECT_EQ(st.u64("restored"), 1u);
    const Frame job = c.status(1);
    EXPECT_EQ(job.str("state"), "done");
    EXPECT_EQ(job.u64("best_fitness"), 16u);
    chaos::terminate(d);
}

// ENOSPC on the journal (simulated via /dev/full) degrades durability —
// counted and visible in stats — but the daemon keeps serving jobs.
TEST(Chaos, EnospcJournalDegradesButKeepsServing) {
    if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
    const std::string dir = fresh_dir("t_chaos_enospc.j");
    fs::create_directories(dir);
    fs::create_symlink("/dev/full", dir + "/journal.jsonl");

    chaos::Gaipd d = chaos::spawn_gaipd("t_chaos_enospc.sock", {"--journal", dir});
    ASSERT_TRUE(chaos::wait_ready(d));
    std::uint64_t id = 0;
    {
        service::Client c = chaos::dial(d.socket);
        id = c.submit(make_spec(core::Substrate::kGates, 0x99, 16));
    }
    const Frame end = wait_terminal(d.socket, id, 60.0);
    EXPECT_EQ(end.str("state"), "done");
    service::Client c = chaos::dial(d.socket);
    const Frame st = c.stats();
    EXPECT_GE(st.u64("journal_write_errors"), 1u) << service::to_line(st);
    EXPECT_EQ(st.u64("journal_degraded"), 1u);
    chaos::terminate(d);
}

// kill -9 / recover x5, submitting new work every life: no job is ever
// lost, no id is ever reused, and every job from every life terminates.
TEST(Chaos, KillRecoverLoopLosesNothing) {
    const std::string dir = fresh_dir("t_chaos_loop.j");
    const std::string socket = "t_chaos_loop.sock";
    std::vector<std::uint64_t> all_ids;
    chaos::Gaipd d = chaos::spawn_gaipd(socket, {"--journal", dir, "--workers", "2"});
    for (int life = 0; life < 5; ++life) {
        ASSERT_TRUE(chaos::wait_ready(d)) << "life " << life;
        {
            service::Client c = chaos::dial(socket);
            for (int k = 0; k < 3; ++k) {
                const std::uint64_t id = c.submit(make_spec(
                    core::Substrate::kBehavioral,
                    static_cast<std::uint16_t>(0x2000 + 16 * life + k),
                    static_cast<std::uint16_t>(400 + 100 * k)));
                // Ids stay strictly monotonic across restarts: recovery
                // resumes allocation past everything the journal saw.
                if (!all_ids.empty()) {
                    EXPECT_GT(id, all_ids.back()) << "life " << life;
                }
                all_ids.push_back(id);
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        chaos::kill9(d);
        d = chaos::spawn_gaipd(socket, {"--journal", dir, "--workers", "2"});
    }
    ASSERT_TRUE(chaos::wait_ready(d));
    EXPECT_EQ(all_ids.size(), 15u);
    for (const std::uint64_t id : all_ids)
        EXPECT_EQ(wait_terminal(socket, id).str("state"), "done") << "job " << id;
    chaos::terminate(d);
}

// gaipctl-style streaming survives the daemon dying mid-stream: the client
// reconnects with backoff, re-subscribes to the same id, and sees the
// job's real terminal record. Events must arrive both before and after
// the kill (the stream is live in both daemon lives).
TEST(Chaos, StreamSurvivesDaemonRestartMidStream) {
    const std::string dir = fresh_dir("t_chaos_stream.j");
    const std::string socket = "t_chaos_stream.sock";
    chaos::Gaipd d = chaos::spawn_gaipd(socket, {"--journal", dir});
    ASSERT_TRUE(chaos::wait_ready(d));

    // Long enough to outlive the kill/restart in BOTH lives (the re-run
    // starts from scratch); ended by cancel once the resumed stream is
    // confirmed live again.
    JobSpec marathon = make_spec(core::Substrate::kBehavioral, 0x3131, 50000, 128);
    marathon.params.n_gens = 50'000'000;
    std::uint64_t id = 0;
    {
        service::Client c = chaos::dial(socket);
        id = c.submit(marathon);
    }

    std::atomic<std::uint64_t> events{0};
    service::RetryPolicy policy;
    policy.attempts = 40;
    policy.base_ms = 25;
    policy.max_ms = 400;
    Frame end;
    std::thread streamer([&] {
        end = service::stream_with_resume(socket, id, policy,
                                          [&](const trace::TraceEvent&) { ++events; });
    });

    auto wait_events_past = [&](std::uint64_t mark, const char* when) {
        for (int spin = 0; spin < 2000 && events.load() <= mark; ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_GT(events.load(), mark) << "no stream events " << when;
    };
    wait_events_past(0, "before the kill");

    chaos::kill9(d);
    d = chaos::spawn_gaipd(socket, {"--journal", dir});
    ASSERT_TRUE(chaos::wait_ready(d));
    const std::uint64_t at_restart = events.load();
    wait_events_past(at_restart, "after recovery (stream did not resume)");

    {
        service::Client c = chaos::dial(socket);
        EXPECT_EQ(c.cancel(id), service::CancelOutcome::kCancelled);
    }
    streamer.join();
    EXPECT_EQ(end.str("state"), "cancelled") << service::to_line(end);
    chaos::terminate(d);
}

// `shutdown --drain` finishes the running job, journals the queue, and
// the process exits 0 BY ITSELF; the next boot re-admits and finishes
// the queued jobs under their original ids.
TEST(Chaos, DrainShutdownHandsQueueToNextBoot) {
    const std::string dir = fresh_dir("t_chaos_drain.j");
    const std::string socket = "t_chaos_drain.sock";
    chaos::Gaipd d = chaos::spawn_gaipd(socket, {"--journal", dir, "--workers", "1"});
    ASSERT_TRUE(chaos::wait_ready(d));

    std::vector<std::uint64_t> queued;
    {
        service::Client c = chaos::dial(socket);
        // Long enough to still be running when the drain lands a few
        // rpcs later, short enough that the drain exit stays prompt.
        JobSpec running = make_spec(core::Substrate::kBehavioral, 0x41, 1000, 128);
        running.params.n_gens = 50'000;  // ~2 s: outlives the drain rpc by far
        c.submit(running);
        for (std::uint16_t seed : {0x42, 0x43, 0x44})
            queued.push_back(c.submit(make_spec(core::Substrate::kGates, seed, 16)));
        Frame req(service::verb::kShutdown);
        req.add("drain", std::uint64_t{1});
        const Frame ack = c.rpc(req);
        EXPECT_EQ(ack.u64("drain"), 1u);
    }
    const int st = chaos::reap(d);  // exits by itself once running == 0
    EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << "wait status " << st;

    d = chaos::spawn_gaipd(socket, {"--journal", dir, "--workers", "2"});
    ASSERT_TRUE(chaos::wait_ready(d));
    {
        service::Client c = chaos::dial(socket);
        EXPECT_GE(c.stats().u64("readmitted"), queued.size());
    }
    for (const std::uint64_t id : queued)
        EXPECT_EQ(wait_terminal(socket, id).str("state"), "done") << "job " << id;
    chaos::terminate(d);
}

// The real gaipctl binary: `ping --wait` is the boot/recovery readiness
// probe (it must tolerate the daemon appearing LATE), and the documented
// exit codes are deterministic so the CI chaos loop can script on them.
TEST(Chaos, GaipctlPingWaitAndExitCodes) {
    const std::string socket = "t_chaos_ctl.sock";
    fs::remove(socket);

    // Exit 4, promptly, when nobody ever answers.
    const int down = std::system((std::string(GAIPCTL_BIN) + " -s " + socket +
                                  " ping --wait 0.3 >/dev/null 2>&1")
                                     .c_str());
    ASSERT_TRUE(WIFEXITED(down));
    EXPECT_EQ(WEXITSTATUS(down), 4);

    // Exit 2 on a usage error, before any socket is touched.
    const int usage = std::system(
        (std::string(GAIPCTL_BIN) + " -s " + socket + " frobnicate >/dev/null 2>&1").c_str());
    ASSERT_TRUE(WIFEXITED(usage));
    EXPECT_EQ(WEXITSTATUS(usage), 2);

    // The probe outlives a slow boot: start gaipd 300 ms into the wait.
    chaos::Gaipd d;
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        d = chaos::spawn_gaipd(socket, {});
    });
    const int up = std::system(
        (std::string(GAIPCTL_BIN) + " -s " + socket + " ping --wait 30 >/dev/null 2>&1").c_str());
    late.join();
    ASSERT_TRUE(WIFEXITED(up));
    EXPECT_EQ(WEXITSTATUS(up), 0);
    chaos::terminate(d);
}

}  // namespace
