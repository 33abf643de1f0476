// Write-ahead journal unit coverage: CRC golden values, the record grammar
// round-trip for every lifecycle kind, torn-tail and corrupt-line replay
// tolerance, atomic rotation/compaction, ENOSPC degradation, group commit,
// the in-process Daemon recovery paths (terminal restore + drain
// re-admission), and the scheduler's journal windows: a submit or terminal
// record in flight while jobs are cancelled, stopped, drained or rotated.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "trace/jsonl.hpp"

namespace {

using namespace gaip;
using service::Frame;
using service::JobRecord;
using service::JobSpec;
using service::JobState;
using service::Journal;

namespace fs = std::filesystem;

/// Fresh journal directory per test (relative, like the test sockets).
std::string fresh_dir(const std::string& name) {
    fs::remove_all(name);
    return name;
}

JobSpec sample_spec(std::uint16_t seed = 0x2961) {
    JobSpec spec;
    spec.fn = fitness::FitnessId::kOneMax;
    spec.params = core::resolve_parameters(
        0, {.pop_size = 16, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
            .seed = seed});
    spec.backend = core::Substrate::kBehavioral;
    return spec;
}

JobRecord sample_record(std::uint64_t id, JobState state) {
    JobRecord rec;
    rec.id = id;
    rec.spec = sample_spec(static_cast<std::uint16_t>(0x1000 + id));
    rec.state = state;
    if (state == JobState::kDone) {
        rec.outcome.best_fitness = 16;
        rec.outcome.best_candidate = 0xBEEF;
        rec.outcome.generations = 8;
        rec.outcome.evaluations = 128;
        rec.outcome.status = "ok";
    }
    if (state == JobState::kFailed) rec.error = "engine exploded";
    return rec;
}

std::vector<std::string> journal_lines(const std::string& dir) {
    std::ifstream in(dir + "/journal.jsonl");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

TEST(Journal, Crc32GoldenValues) {
    // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
    EXPECT_EQ(service::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(service::crc32("", 0), 0u);
    // Any flipped byte must change the CRC.
    EXPECT_NE(service::crc32("123456788", 9), 0xCBF43926u);
}

TEST(Journal, SpecFieldsRoundTripThroughParse) {
    JobSpec spec = sample_spec();
    spec.backend = core::Substrate::kRtl;
    spec.words = 4;
    spec.islands = 4;
    spec.topology = island::Topology::kStar;
    spec.migration.interval = 4;
    spec.migration.count = 2;
    spec.migration.policy = island::ReplacePolicy::kRandom;
    spec.migration.mig_seed = 7;
    spec.supervise = true;
    spec.deadline_ms = 1234;

    Frame f;
    service::add_journal_spec_fields(f, spec);
    EXPECT_EQ(service::parse_job_spec(f), spec);

    // Defaults round-trip too (the journal writes every field, always).
    Frame g;
    service::add_journal_spec_fields(g, sample_spec());
    EXPECT_EQ(service::parse_job_spec(g), sample_spec());
}

TEST(Journal, ReplayCoversEveryLifecycleKind) {
    const std::string dir = fresh_dir("t_journal_kinds");
    {
        Journal j(dir);
        // id 1: done; id 2: cancelled; id 3: expired; id 4: failed;
        // id 5: queued (never started); id 6: started, interrupted.
        for (std::uint64_t id = 1; id <= 6; ++id)
            j.record_submit(sample_record(id, JobState::kQueued));
        for (std::uint64_t id : {1, 2, 3, 4, 6}) j.record_start(id);
        j.record_terminal(sample_record(1, JobState::kDone));
        j.record_terminal(sample_record(2, JobState::kCancelled));
        j.record_terminal(sample_record(3, JobState::kExpired));
        j.record_terminal(sample_record(4, JobState::kFailed));
        // Non-terminal record_terminal is a no-op, not a bogus append.
        j.record_terminal(sample_record(5, JobState::kQueued));
        EXPECT_EQ(j.stats().records_written, 15u);
        EXPECT_EQ(j.stats().write_errors, 0u);
        EXPECT_FALSE(j.stats().degraded);
    }

    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_total, 15u);
    EXPECT_EQ(r.lines_skipped, 0u);
    EXPECT_EQ(r.max_id, 6u);
    ASSERT_EQ(r.terminal.size(), 4u);
    ASSERT_EQ(r.pending.size(), 2u);

    for (const JobRecord& rec : r.terminal) {
        const JobRecord want = sample_record(rec.id, rec.state);
        EXPECT_EQ(rec.spec, want.spec) << "id " << rec.id;
    }
    EXPECT_EQ(r.terminal[0].state, JobState::kDone);
    EXPECT_EQ(r.terminal[0].outcome.best_fitness, 16u);
    EXPECT_EQ(r.terminal[0].outcome.best_candidate, 0xBEEFu);
    EXPECT_EQ(r.terminal[0].outcome.generations, 8u);
    EXPECT_EQ(r.terminal[0].outcome.evaluations, 128u);
    EXPECT_EQ(r.terminal[0].outcome.status, "ok");
    EXPECT_EQ(r.terminal[1].state, JobState::kCancelled);
    EXPECT_EQ(r.terminal[2].state, JobState::kExpired);
    EXPECT_EQ(r.terminal[3].state, JobState::kFailed);
    EXPECT_EQ(r.terminal[3].error, "engine exploded");

    // Both the never-started and the interrupted job come back pending,
    // re-queued for a deterministic re-run.
    for (const JobRecord& rec : r.pending) {
        EXPECT_TRUE(rec.id == 5 || rec.id == 6) << rec.id;
        EXPECT_EQ(rec.state, JobState::kQueued);
        EXPECT_EQ(rec.spec, sample_record(rec.id, JobState::kQueued).spec);
    }
}

TEST(Journal, TornTailIsSkippedNotFatal) {
    const std::string dir = fresh_dir("t_journal_torn");
    {
        Journal j(dir);
        j.record_submit(sample_record(1, JobState::kQueued));
        j.record_start(1);
    }
    // Simulate a crash mid-append: a tail with no newline.
    {
        std::ofstream out(dir + "/journal.jsonl", std::ios::app);
        out << R"({"kind":"j_done","id":1,"best_fi)";
    }
    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_total, 3u);
    EXPECT_EQ(r.lines_skipped, 1u);
    ASSERT_EQ(r.pending.size(), 1u);  // torn terminal never landed: re-run
    EXPECT_EQ(r.pending[0].id, 1u);
    EXPECT_TRUE(r.terminal.empty());
}

TEST(Journal, CorruptCrcLineIsSkippedOthersSurvive) {
    const std::string dir = fresh_dir("t_journal_corrupt");
    {
        Journal j(dir);
        j.record_submit(sample_record(1, JobState::kQueued));
        j.record_submit(sample_record(2, JobState::kQueued));
        j.record_terminal(sample_record(1, JobState::kDone));
    }
    // Flip one byte inside line 2 (the submit of id 2) — CRC must catch it.
    std::vector<std::string> lines = journal_lines(dir);
    ASSERT_EQ(lines.size(), 3u);
    const std::size_t mid = lines[1].size() / 2;
    lines[1][mid] = lines[1][mid] == 'x' ? 'y' : 'x';
    {
        std::ofstream out(dir + "/journal.jsonl", std::ios::trunc);
        for (const std::string& l : lines) out << l << "\n";
    }
    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_total, 3u);
    EXPECT_EQ(r.lines_skipped, 1u);
    ASSERT_EQ(r.terminal.size(), 1u);  // id 1 fully recovered
    EXPECT_EQ(r.terminal[0].id, 1u);
    EXPECT_TRUE(r.pending.empty());  // id 2's submit was the corrupt line
}

TEST(Journal, GarbageAndUnknownKindsAreCounted) {
    const std::string dir = fresh_dir("t_journal_garbage");
    {
        Journal j(dir);
        j.record_submit(sample_record(1, JobState::kQueued));
    }
    {
        std::ofstream out(dir + "/journal.jsonl", std::ios::app);
        out << "not json at all\n";
        out << R"({"kind":"j_wormhole","id":9,"crc":"00000000"})" << "\n";
        out << "\n";  // blank lines are ignored, not counted
    }
    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_total, 3u);
    EXPECT_EQ(r.lines_skipped, 2u);
    EXPECT_EQ(r.pending.size(), 1u);
}

TEST(Journal, MissingJournalReplaysEmpty) {
    const service::JournalReplay r = service::replay_journal("t_journal_never_created");
    EXPECT_EQ(r.lines_total, 0u);
    EXPECT_TRUE(r.terminal.empty());
    EXPECT_TRUE(r.pending.empty());
}

TEST(Journal, RotationCompactsAndPreservesRecords) {
    const std::string dir = fresh_dir("t_journal_rotate");
    Journal j(dir);
    // Lots of churn: many submits + terminals for the same live set.
    for (std::uint64_t id = 1; id <= 8; ++id) {
        j.record_submit(sample_record(id, JobState::kQueued));
        j.record_start(id);
        j.record_terminal(sample_record(id, JobState::kDone));
    }
    const std::size_t before = journal_lines(dir).size();

    // Compact down to two live jobs (one terminal, one still queued).
    std::vector<JobRecord> live{sample_record(3, JobState::kDone),
                                sample_record(9, JobState::kQueued)};
    j.rotate(live, 10);
    EXPECT_EQ(j.stats().rotations, 1u);

    const std::size_t after = journal_lines(dir).size();
    EXPECT_LT(after, before);

    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_skipped, 0u);
    EXPECT_EQ(r.max_id, 9u);  // from the j_rotate next_id header
    ASSERT_EQ(r.terminal.size(), 1u);
    EXPECT_EQ(r.terminal[0].id, 3u);
    ASSERT_EQ(r.pending.size(), 1u);
    EXPECT_EQ(r.pending[0].id, 9u);

    // Appends keep working on the reopened fd after the rename.
    j.record_submit(sample_record(10, JobState::kQueued));
    const service::JournalReplay r2 = service::replay_journal(dir);
    EXPECT_EQ(r2.pending.size(), 2u);
}

TEST(Journal, ConcurrentAppendsShareFlushes) {
    const std::string dir = fresh_dir("t_journal_group");
    Journal j(dir);
    constexpr std::uint64_t kThreads = 8;
    constexpr std::uint64_t kAppends = 200;
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&j, t] {
            for (std::uint64_t k = 0; k < kAppends; ++k)
                j.record_submit(sample_record(1 + t * kAppends + k, JobState::kQueued));
        });
    for (std::thread& t : threads) t.join();

    const service::JournalStats st = j.stats();
    EXPECT_EQ(st.records_written, kThreads * kAppends);
    EXPECT_EQ(st.write_errors, 0u);
    // No coalescing ratio is asserted: on tmpfs fdatasync is nearly free.
    EXPECT_GE(st.syncs, 1u);
    EXPECT_LE(st.syncs, st.records_written);

    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_total, kThreads * kAppends);
    EXPECT_EQ(r.lines_skipped, 0u);
    EXPECT_EQ(r.pending.size(), kThreads * kAppends);
    EXPECT_EQ(r.max_id, kThreads * kAppends);
}

TEST(Journal, EnospcDegradesInsteadOfCrashing) {
    if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
    const std::string dir = fresh_dir("t_journal_enospc");
    fs::create_directories(dir);
    fs::create_symlink("/dev/full", dir + "/journal.jsonl");

    Journal j(dir);  // open of /dev/full succeeds; appends will not
    j.record_submit(sample_record(1, JobState::kQueued));
    EXPECT_GE(j.stats().write_errors, 1u);
    EXPECT_TRUE(j.stats().degraded);
    EXPECT_EQ(j.stats().records_written, 0u);

    // Replay must treat the device node as "no journal", not hang on it.
    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_total, 0u);
}

// ---------------------------------------------------------------------------
// In-process Daemon recovery: the boot-replay path end to end.

service::ServerConfig journal_config(const std::string& socket, const std::string& dir,
                                     unsigned workers = 2) {
    service::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.scheduler.workers = workers;
    cfg.scheduler.max_queue = 64;
    cfg.journal_dir = dir;
    return cfg;
}

TEST(JournalRecovery, RestartRestoresTerminalRecords) {
    const std::string dir = fresh_dir("t_jrec_restore");
    std::vector<std::uint64_t> ids;
    std::vector<Frame> results;
    {
        service::Daemon d(journal_config("t_jrec_restore.sock", dir));
        service::Client c(d.socket_path());
        for (std::uint16_t seed : {0x11, 0x22, 0x33}) {
            const Frame end = c.run_job(sample_spec(seed));
            EXPECT_EQ(end.str("state"), "done");
            ids.push_back(end.u64("id"));
            results.push_back(end);
        }
    }
    // A fresh daemon on the same journal re-reports every finished job —
    // same id, bit-identical outcome — without re-running anything.
    service::Daemon d2(journal_config("t_jrec_restore2.sock", dir));
    service::Client c2(d2.socket_path());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Frame st = c2.status(ids[i]);
        EXPECT_EQ(st.str("state"), "done");
        for (const char* key :
             {"best_fitness", "best_candidate", "generations", "evaluations"})
            EXPECT_EQ(st.u64(key), results[i].u64(key)) << key << " of id " << ids[i];
        EXPECT_EQ(st.str("status"), results[i].str("status"));
    }
    const Frame stats = c2.stats();
    EXPECT_EQ(stats.u64("restored"), 3u);
    EXPECT_EQ(stats.u64("readmitted"), 0u);
    // New ids keep allocating past the recovered ones.
    EXPECT_GT(c2.submit(sample_spec(0x44)), ids.back());
}

TEST(JournalRecovery, DrainShutdownJournalsQueueForNextBoot) {
    const std::string dir = fresh_dir("t_jrec_drain");
    std::vector<std::uint64_t> queued_ids;
    {
        // One worker so most submissions stay queued behind the first job.
        service::Daemon d(journal_config("t_jrec_drain.sock", dir, 1));
        service::Client c(d.socket_path());
        JobSpec slow = sample_spec(0x51);
        slow.params.n_gens = 50'000;  // ~2 s: running when drain lands, prompt exit
        slow.params.pop_size = 128;
        const std::uint64_t running = c.submit(slow);
        for (std::uint16_t seed : {0x61, 0x62, 0x63})
            queued_ids.push_back(c.submit(sample_spec(seed)));

        Frame req(service::verb::kShutdown);
        req.add("drain", std::uint64_t{1});
        const Frame ack = c.rpc(req);
        EXPECT_EQ(ack.u64("drain"), 1u);
        d.stop();  // joins: run() returns once the running job finished
        (void)running;
    }
    // Boot 2: queued jobs were journaled pending; they re-run to done
    // under their ORIGINAL ids.
    service::Daemon d2(journal_config("t_jrec_drain2.sock", dir, 2));
    service::Client c2(d2.socket_path());
    EXPECT_GE(c2.stats().u64("readmitted"), queued_ids.size());
    for (const std::uint64_t id : queued_ids) {
        Frame st = c2.status(id);
        for (int spin = 0; spin < 6000 && (st.str("state") == "queued" ||
                                           st.str("state") == "running"); ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            st = c2.status(id);
        }
        EXPECT_EQ(st.str("state"), "done") << "id " << id;
    }
}

// ---------------------------------------------------------------------------
// Scheduler journal windows: journal writes run outside the scheduler mutex,
// so submits, finishes, cancels, stop, drain and rotation meet records in
// flight.

service::SchedulerConfig sched_config(Journal& journal, unsigned workers) {
    service::SchedulerConfig cfg;
    cfg.workers = workers;
    cfg.max_queue = 4096;
    cfg.journal = &journal;
    return cfg;
}

/// Journal lines as (kind, id) pairs.
std::vector<std::pair<std::string, std::uint64_t>> journal_records(const std::string& dir) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const std::string& line : journal_lines(dir)) {
        const trace::TraceEvent e = trace::from_json_line(line);
        out.emplace_back(e.kind, e.u64("id", 0));
    }
    return out;
}

/// A journal whose file is a FIFO stuffed full, so every append blocks in
/// write() until release() starts draining the pipe. (fdatasync on a pipe
/// fails with EINVAL, which the journal treats as nothing to sync.)
class StalledJournal {
public:
    explicit StalledJournal(const std::string& dir) : dir_(fresh_dir(dir)) {
        fs::create_directories(dir_);
        const std::string path = dir_ + "/journal.jsonl";
        EXPECT_EQ(::mkfifo(path.c_str(), 0644), 0);
        rd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);  // lets the writer open
        journal_ = std::make_unique<Journal>(dir_);
        const int fill = ::open(path.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
        const char nl = '\n';  // blank lines: replay ignores them
        while (::write(fill, &nl, 1) == 1) {
        }
        ::close(fill);
    }
    ~StalledJournal() {
        release();
        done_.store(true);
        reader_.join();
        ::close(rd_);
    }

    Journal& journal() { return *journal_; }

    /// Drain the pipe from here on; blocked appends complete.
    void release() {
        if (reader_.joinable()) return;
        reader_ = std::thread([this] {
            while (!done_.load()) {
                if (!drain()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }

    /// Replay of everything appended so far.
    service::JournalReplay replay() {
        while (drain()) {
        }
        const std::string copy = fresh_dir(dir_ + "_copy");
        fs::create_directories(copy);
        {
            std::lock_guard<std::mutex> lk(mu_);
            std::ofstream(copy + "/journal.jsonl") << text_;
        }
        return service::replay_journal(copy);
    }

private:
    bool drain() {
        char buf[4096];
        const ssize_t n = ::read(rd_, buf, sizeof(buf));
        if (n <= 0) return false;
        std::lock_guard<std::mutex> lk(mu_);
        text_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    std::string dir_;
    int rd_ = -1;
    std::unique_ptr<Journal> journal_;
    std::thread reader_;
    std::atomic<bool> done_{false};
    std::mutex mu_;
    std::string text_;
};

/// Submit `spec` on a thread; the caller sees the id once submit returns.
struct AsyncSubmit {
    std::atomic<bool> returned{false};
    std::uint64_t id = 0;
    std::thread thread;

    AsyncSubmit(service::Scheduler& sched, const JobSpec& spec)
        : thread([this, &sched, spec] {
              id = sched.submit(spec);
              returned.store(true);
          }) {
        // The id is allocated before the write blocks.
        for (int i = 0; i < 5000 && sched.next_id() < 2; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::uint64_t join() {
        thread.join();
        return id;
    }
};

JobSpec gates_spec(std::uint16_t seed) {
    JobSpec spec = sample_spec(seed);
    spec.backend = core::Substrate::kGates;
    return spec;
}

TEST(JournalWindow, CancelDuringSubmitWriteFindsNoJobAndNoAck) {
    StalledJournal sj("t_jwin_cancel");
    service::Scheduler sched(sched_config(sj.journal(), 1));
    AsyncSubmit sub(sched, gates_spec(0x71));
    EXPECT_EQ(sched.next_id(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Not acked and not visible while its record is not durable.
    EXPECT_FALSE(sub.returned.load());
    EXPECT_EQ(sched.cancel(1), service::CancelOutcome::kNotFound);
    EXPECT_FALSE(sched.status(1).has_value());
    EXPECT_TRUE(sched.list().empty());
    EXPECT_EQ(sched.queue_depth(), 0u);

    sj.release();
    EXPECT_EQ(sub.join(), 1u);
    sched.wait_idle();
    EXPECT_EQ(sched.status(1)->state, JobState::kDone);
    const service::JournalReplay r = sj.replay();
    ASSERT_EQ(r.terminal.size(), 1u);
    EXPECT_EQ(r.terminal[0].state, JobState::kDone);
}

TEST(JournalWindow, StopDuringSubmitWriteCancelsAndNeverQueues) {
    StalledJournal sj("t_jwin_stop");
    service::Scheduler sched(sched_config(sj.journal(), 1));
    AsyncSubmit sub(sched, gates_spec(0x72));
    sched.stop();  // joins the workers while the submit record is in flight
    EXPECT_FALSE(sub.returned.load());

    sj.release();
    const std::uint64_t id = sub.join();
    EXPECT_EQ(id, 1u);
    EXPECT_EQ(sched.status(id)->state, JobState::kCancelled);
    EXPECT_EQ(sched.queue_depth(), 0u);
    const service::ServiceStats st = sched.stats();
    EXPECT_EQ(st.queued, 0u);
    EXPECT_EQ(st.submitted, 1u);
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(sched.cancel(id), service::CancelOutcome::kTooLate);

    // Write-ahead order: j_submit, then the terminal record.
    const service::JournalReplay r = sj.replay();
    EXPECT_TRUE(r.pending.empty());
    ASSERT_EQ(r.terminal.size(), 1u);
    EXPECT_EQ(r.terminal[0].id, id);
    EXPECT_EQ(r.terminal[0].state, JobState::kCancelled);
}

TEST(JournalWindow, DrainDuringSubmitWriteKeepsJobPendingForNextBoot) {
    StalledJournal sj("t_jwin_drain");
    service::Scheduler sched(sched_config(sj.journal(), 1));
    AsyncSubmit sub(sched, gates_spec(0x73));
    sched.begin_drain();
    EXPECT_FALSE(sub.returned.load());

    sj.release();
    const std::uint64_t id = sub.join();
    // Acked after its record was durable; queued but never picked up.
    EXPECT_EQ(sched.status(id)->state, JobState::kQueued);
    EXPECT_EQ(sched.queue_depth(), 1u);
    sched.wait_drained();
    sched.stop();
    EXPECT_EQ(sched.status(id)->state, JobState::kQueued);
    EXPECT_EQ(sched.stats().cancelled, 0u);

    const service::JournalReplay r = sj.replay();
    EXPECT_TRUE(r.terminal.empty());
    ASSERT_EQ(r.pending.size(), 1u);
    EXPECT_EQ(r.pending[0].id, id);
    EXPECT_EQ(r.pending[0].spec, gates_spec(0x73));
}

TEST(JournalWindow, FinishRacingCancelWritesOneTerminalRecord) {
    const std::string dir = fresh_dir("t_jwin_race");
    Journal journal(dir);
    constexpr std::uint64_t kJobs = 240;
    std::vector<std::uint64_t> ids;
    {
        service::Scheduler sched(sched_config(journal, 2));
        // Two cancellers race each other and the workers on every job.
        const auto cancel_all = [&] {
            for (std::uint64_t id = 1; id <= kJobs; ++id) {
                while (!sched.status(id)) std::this_thread::yield();
                sched.cancel(id);
            }
        };
        std::thread canceller_a(cancel_all);
        std::thread canceller_b(cancel_all);
        for (std::uint64_t k = 0; k < kJobs; ++k) {
            const auto seed = static_cast<std::uint16_t>(0x100 + k);
            ids.push_back(sched.submit(k % 2 == 0 ? sample_spec(seed) : gates_spec(seed)));
        }
        canceller_a.join();
        canceller_b.join();
        sched.wait_idle();
        const service::ServiceStats st = sched.stats();
        EXPECT_EQ(st.done + st.cancelled, kJobs);
    }
    std::map<std::uint64_t, int> submits;
    std::map<std::uint64_t, int> terminals;
    for (const auto& [kind, id] : journal_records(dir)) {
        if (kind == service::jkind::kSubmit) ++submits[id];
        if (kind == service::jkind::kDone || kind == service::jkind::kCancel) ++terminals[id];
        EXPECT_NE(kind, service::jkind::kStart) << "gaipd no longer writes j_start";
    }
    for (const std::uint64_t id : ids) {
        EXPECT_EQ(submits[id], 1) << "id " << id;
        EXPECT_EQ(terminals[id], 1) << "id " << id;
    }
}

TEST(JournalWindow, RotationLoopLosesNoAckedRecord) {
    const std::string dir = fresh_dir("t_jwin_rotate");
    Journal journal(dir);
    service::Scheduler sched(sched_config(journal, 2));
    std::atomic<bool> rotating{true};
    std::thread rotator([&] {
        while (rotating.load()) {
            sched.rotate_journal();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    constexpr int kThreads = 4;
    constexpr int kPerThread = 40;
    std::vector<std::vector<std::uint64_t>> acked(kThreads);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&, t] {
            for (int k = 0; k < kPerThread; ++k) {
                const auto seed = static_cast<std::uint16_t>(0x200 + t * kPerThread + k);
                acked[t].push_back(sched.submit(k % 4 == 0 ? gates_spec(seed) : sample_spec(seed)));
            }
        });
    for (std::thread& t : submitters) t.join();
    sched.wait_idle();
    rotating.store(false);
    rotator.join();
    EXPECT_GT(journal.stats().rotations, 0u);

    const service::JournalReplay r = service::replay_journal(dir);
    EXPECT_EQ(r.lines_skipped, 0u);
    EXPECT_TRUE(r.pending.empty());
    std::map<std::uint64_t, JobRecord> replayed;
    for (const JobRecord& rec : r.terminal) replayed[rec.id] = rec;
    for (const auto& ids : acked)
        for (const std::uint64_t id : ids) {
            const auto live = sched.status(id);
            ASSERT_TRUE(live.has_value()) << "id " << id;
            ASSERT_EQ(replayed.count(id), 1u) << "acked id " << id << " lost by rotation";
            const JobRecord& rec = replayed[id];
            EXPECT_EQ(rec.state, live->state) << "id " << id;
            EXPECT_EQ(rec.spec, live->spec) << "id " << id;
            EXPECT_EQ(rec.outcome.best_fitness, live->outcome.best_fitness) << "id " << id;
            EXPECT_EQ(rec.outcome.best_candidate, live->outcome.best_candidate) << "id " << id;
            EXPECT_EQ(rec.outcome.evaluations, live->outcome.evaluations) << "id " << id;
        }
}

TEST(JournalWindow, RecordsDurableBeforeSubmitAckAndStreamEnd) {
    const std::string dir = fresh_dir("t_jwin_ack");
    service::Daemon d(journal_config("t_jwin_ack.sock", dir));
    service::Client c(d.socket_path());
    for (std::uint16_t seed : {0x81, 0x82, 0x83}) {
        const std::uint64_t id = c.submit(sample_spec(seed));
        const service::JournalReplay after_ack = service::replay_journal(dir);
        bool journaled = false;
        for (const auto* set : {&after_ack.pending, &after_ack.terminal})
            for (const JobRecord& rec : *set) journaled |= rec.id == id;
        EXPECT_TRUE(journaled) << "submit of id " << id << " acked before its j_submit";

        const Frame end = c.stream(id);
        EXPECT_EQ(end.str("state"), "done");
        const service::JournalReplay after_end = service::replay_journal(dir);
        bool terminal = false;
        for (const JobRecord& rec : after_end.terminal)
            if (rec.id == id) {
                terminal = true;
                EXPECT_EQ(rec.state, JobState::kDone);
                EXPECT_EQ(rec.outcome.best_fitness, end.u64("best_fitness"));
            }
        EXPECT_TRUE(terminal) << "stream_end of id " << id << " before its terminal record";
    }
    EXPECT_EQ(c.stats().u64("journal_records"), 6u);
    EXPECT_GE(c.stats().u64("journal_syncs"), 1u);
}

}  // namespace
