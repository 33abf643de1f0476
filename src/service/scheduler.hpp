// Job scheduler of the gaipd service plane: a bounded admission queue in
// front of a pool of pinned worker threads, multiplexing many GA jobs onto
// the engines the repo already has. Scheduling policy:
//
//   * plain gates jobs (no islands, no supervision) run as lanes of a
//     long-lived BatchGateRunner lane block. A worker that finds one at
//     the queue front opens a block with it and the gates jobs right
//     behind it, of any fitness function (only the software FEM lookup
//     depends on it). Each lane's job ends in the cycle the lane raises
//     GA_done; cancelled, expired and over-bound lanes are freed at the
//     check window (every 2048 cycles). While gates jobs are queued, the
//     block refills its free lanes from the queue front between cycles
//     (BatchGateRunner::load_lane: one lane resets, its siblings keep
//     stepping), up to min(max_batch_lanes, 64 x words) lanes, honoring
//     each job's `words` hint. Admission stops for good once a non-gates
//     job (or one wanting a wider block) is at the front, or the daemon
//     drains or stops; the block then runs its lanes out and the worker
//     returns to the queue, so nothing starves behind a stream of gates
//     jobs. A per-worker cached runner (BatchGateRunner::reconfigure)
//     pays for the two compiled netlists once per worker and width;
//   * behavioral, rtl, supervised and island jobs share one loop over a
//     resumable engine (core::BehavioralEngine, system::GaSystem::run_to,
//     supervisor::MissionSupervisor::step and island::IslandSystem /
//     SupervisedIslandSystem::step) that advances one generation, or one
//     barrier-to-barrier segment, at a time — the cancel/deadline check
//     points.
//
// Every job's results are bit-identical to running the same spec directly
// through those engines — the scheduler only multiplexes, it never alters
// a job's parameter/seed path. A gates job's result and stream equal a
// one-lane direct run, wherever and whenever it entered its block
// (asserted by tests/service/test_service_differential.cpp).
//
// Cancellation is cooperative: behavioral, rtl and supervised jobs stop at
// the next generation boundary (a supervised job's current attempt, on
// whatever rung), island jobs at the next migration barrier, gate lanes at
// the next check window (~2k cycles) while the rest of their block runs
// on. Deadlines follow the same checkpoints; a job finishing past its
// deadline is `expired` and counts as a deadline miss.
//
// Journal writes never run under the scheduler mutex: submit allocates the
// id under it, journals outside it, then queues and acks; finish claims
// the job, journals its terminal record outside the mutex, then publishes
// the state. A terminal job then drops its Job and keeps a fixed-size
// row in an id-indexed table that status, list, cancel and stream read.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gates/compiled.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "trace/event.hpp"

namespace gaip::gates {
class BatchGateRunner;
}

namespace gaip::service {

struct SchedulerConfig {
    /// Worker threads (0 = one, the single-core container default; the
    /// bench and CI raise it explicitly).
    unsigned workers = 1;
    /// Admission control: submits beyond this many queued jobs are
    /// rejected with `queue_full` instead of growing latency unboundedly.
    std::size_t max_queue = 1024;
    /// Lane ceiling of one gate block (<= BatchGateRunner::kMaxLanes).
    unsigned max_batch_lanes = 256;
    /// Evaluation engine for the gate lanes (interpreter / native JIT).
    gates::Backend gate_backend = gates::Backend::kAuto;
    /// Lifecycle metrics stream (job_submit/job_start/job_done/...);
    /// borrowed, may be null. The scheduler serializes its calls.
    trace::TraceSink* metrics = nullptr;
    /// Write-ahead job journal; borrowed, may be null. A job's j_submit is
    /// durable before the job is queued or acked, and its terminal record
    /// before status, list or stream_end can show the terminal state. The
    /// records are written outside the scheduler mutex and group-committed
    /// (concurrent appends share one fdatasync); no j_start is written.
    Journal* journal = nullptr;
};

/// Aggregate daemon counters (the `stats` verb + the metrics stream).
struct ServiceStats {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;   ///< admission-control rejections
    std::uint64_t queued = 0;     ///< currently waiting
    std::uint64_t running = 0;    ///< currently on a worker
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;
    std::uint64_t deadline_misses = 0;  ///< expiries + late finishes
    std::uint64_t gens_total = 0;       ///< generations evolved by done jobs
    std::uint64_t evals_total = 0;
    std::uint64_t rollbacks_total = 0;  ///< supervisor checkpoint restores
    std::uint64_t done_rtl = 0;
    std::uint64_t done_behavioral = 0;
    std::uint64_t done_gates = 0;
    std::uint64_t done_islands = 0;     ///< subset of the above with islands > 0
    std::uint64_t done_supervised = 0;  ///< subset with supervise = 1
    std::uint64_t gate_batches = 0;     ///< gate-block launches
    std::uint64_t gate_lanes = 0;       ///< lanes admitted to them, refills included
    std::uint64_t restored = 0;         ///< terminal jobs recovered from the journal
    std::uint64_t readmitted = 0;       ///< interrupted jobs re-run after recovery
    double uptime_s = 0;
};

class Scheduler {
public:
    explicit Scheduler(SchedulerConfig cfg);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Enqueue one validated job; returns its id. Throws
    /// ProtocolError(queue_full | shutting_down).
    std::uint64_t submit(const JobSpec& spec);

    /// Journal recovery, restore side: register a terminal record from a
    /// previous daemon life so `status`/`list` can re-report it. Does not
    /// re-count it in the done/failed/... totals (it was counted when it
    /// ran); tracked as `restored`. Id allocation resumes past it.
    void restore_terminal(const JobRecord& rec);

    /// Journal recovery, re-run side: re-admit an interrupted job with its
    /// ORIGINAL id and re-run it (specs fully determine runs, so the
    /// result is bit-identical to the uninterrupted one). The deadline
    /// clock restarts at re-admission. No journal append — the caller
    /// compacts the journal around recovery.
    void readmit(const JobRecord& rec);

    /// Drain mode (`shutdown` with drain): stop picking up queued jobs and
    /// reject new submits (shutting_down), but let running jobs finish.
    /// Queued jobs stay journaled as pending and are recovered on the next
    /// boot. Follow with wait_drained() + stop().
    void begin_drain();
    bool draining() const;
    /// Block until every worker is idle (queued jobs may remain in drain).
    void wait_drained();

    /// Current queue depth / admission bound (overload-tier decisions).
    std::size_t queue_depth() const;
    std::size_t max_queue() const noexcept { return cfg_.max_queue; }
    /// Next id to be allocated.
    std::uint64_t next_id() const;

    /// Compact the journal to the current job set (SIGHUP). Holds journal
    /// appends off until the snapshot is written, so no acked record can
    /// land in the replaced file. No-op without a journal.
    void rotate_journal();

    /// Cooperative cancel (see file comment).
    CancelOutcome cancel(std::uint64_t id);

    std::optional<JobRecord> status(std::uint64_t id) const;
    std::vector<JobRecord> list() const;
    ServiceStats stats() const;

    /// Attach a live trace sink (non-null) and an end callback to a job.
    /// Events produced by the job's engine (generation, island_*, sup_*,
    /// ...) are forwarded to `sink` under the job's stream mutex; the scheduler shares ownership of it
    /// until the subscription ends. When the job reaches a terminal state
    /// the finishing worker flushes every attached sink, then fires each
    /// `on_end` once — so no event can follow its stream's end. Returns
    /// false when the job is already terminal (caller should answer with
    /// the final record directly). Throws ProtocolError(not_found) for
    /// unknown ids.
    bool attach_stream(std::uint64_t id, std::shared_ptr<trace::TraceSink> sink,
                       std::function<void(const JobRecord&)> on_end);
    /// Detach a subscription made by attach_stream: its sink gets no
    /// further event or flush and its `on_end` never fires. Returns false
    /// when it was no longer attached — the job ended (or is ending) and
    /// its `on_end` has fired or is about to.
    bool detach_stream(std::uint64_t id, const trace::TraceSink* sink);

    /// Expire queued jobs whose deadline has passed (server tick calls
    /// this; workers also check at pickup). Returns expired-job count.
    std::size_t expire_overdue();

    /// Block until the queue is empty and every worker is idle.
    void wait_idle();

    /// Stop: reject further submits, cancel queued jobs, flag running
    /// ones, join the workers. Idempotent; the destructor calls it.
    void stop();

private:
    struct Job;
    using JobPtr = std::shared_ptr<Job>;

    void worker_main(unsigned worker_idx);
    void run_single(const JobPtr& j);
    /// Run one gate block opened by `batch`, refilling it until admission
    /// stops and every lane has ended (see file comment).
    void run_gate_batch(std::vector<JobPtr> batch, unsigned worker_idx);
    /// Move queued gates jobs from the queue front into free lanes of a
    /// running block (lanes[k] null = free). Returns false once admission
    /// has stopped for this block.
    bool refill_lanes(gates::BatchGateRunner& runner, std::vector<JobPtr>& lanes,
                      std::size_t& live);
    /// The one loop of every resumable job: while `engine` is not done,
    /// end the job if it was cancelled (stop() cancels) or is past its
    /// deadline, else run one step. False when the job ended early.
    template <class Engine, class Step>
    bool drive(const JobPtr& j, const Engine& engine, Step step);
    /// A plain behavioral or RT-level job: generation by generation, so
    /// cancel, deadline and stop() end it at the next generation boundary.
    void run_engine_job(const JobPtr& j);
    /// An island job, plain or supervised: segment by segment, so cancel,
    /// deadline and stop() end it at the next migration barrier.
    void run_island_job(const JobPtr& j);
    /// A single-engine supervised job: attempt generation by generation,
    /// so cancel, deadline and stop() end it at the next generation
    /// boundary on any rung.
    void run_supervised_job(const JobPtr& j);

    /// Claim `j` and commit() it; no-op when another path claimed it.
    void finish(const JobPtr& j, JobState state, const JobOutcome& outcome,
                const std::string& error = {});
    /// End a claimed job: journal the terminal record (outside mu_), then
    /// publish it — terminal row, counters, metric, stream-end callbacks.
    void commit(const JobPtr& j, JobState state, const JobOutcome& outcome,
                const std::string& error);
    /// Wait out a journal rotation, then take `n` journal slots (mu_ held).
    /// Every submit and commit holds one from before its journal write
    /// until its result is visible, so a rotation snapshot covers it.
    void begin_journal(std::unique_lock<std::mutex>& lk, std::size_t n = 1);
    void end_journal();  ///< return one slot (mu_ held)
    void emit_metric(trace::TraceEvent e);
    void emit_start(const JobPtr& j);
    // Queue and worker bookkeeping; the first three need mu_ held.
    void enqueue(const JobPtr& j);
    void note_dequeued(const JobPtr& j);
    void mark_running(const JobPtr& j, Clock::time_point now);
    void left_worker();  ///< one job left its worker (takes mu_)
    bool past_deadline(const JobPtr& j) const;

    /// A terminal job once its Job is dropped: the record without its id
    /// (the table index) and strings (kept in terminal_text_ by the few
    /// jobs that have an error or supervisor status).
    struct TerminalRow {
        JobSpec spec{};
        Clock::time_point submitted{};
        Clock::time_point started{};
        Clock::time_point finished{};
        std::uint64_t evaluations = 0;
        std::uint32_t generations = 0;
        std::uint32_t rollbacks = 0;
        std::uint32_t retries = 0;
        std::uint16_t best_fitness = 0;
        std::uint16_t best_candidate = 0;
        JobState state = JobState::kQueued;  ///< kQueued: empty slot
        bool has_text = false;
    };
    static_assert(sizeof(TerminalRow) <= 128, "terminal rows must stay compact");
    struct TerminalText {
        std::string error;
        std::string status;
    };
    static constexpr std::size_t kRowsPerChunk = 1024;
    using RowChunk = std::array<TerminalRow, kRowsPerChunk>;

    // Terminal table and job snapshots; need mu_ held.
    void store_terminal(const JobRecord& rec);
    const TerminalRow* terminal_row(std::uint64_t id) const;
    JobRecord terminal_record(std::uint64_t id, const TerminalRow& row) const;
    std::vector<JobRecord> list_locked() const;

    SchedulerConfig cfg_;
    Clock::time_point started_;

    mutable std::mutex mu_;
    std::condition_variable cv_;       ///< queue not empty / stopping
    std::condition_variable idle_cv_;  ///< drained (wait_idle)
    std::deque<JobPtr> queue_;
    /// Plain gates jobs in queue_: written under mu_, read lock-free by
    /// running gate blocks between cycles (the refill trigger).
    std::atomic<std::size_t> queued_gates_{0};
    std::unordered_map<std::uint64_t, JobPtr> jobs_;  ///< queued and running jobs
    /// Terminal jobs by id: chunk id / kRowsPerChunk, slot id % kRowsPerChunk.
    std::vector<std::unique_ptr<RowChunk>> terminal_;
    std::unordered_map<std::uint64_t, TerminalText> terminal_text_;
    std::uint64_t next_id_ = 1;
    std::size_t submitting_ = 0;  ///< ids allocated, submit record not yet durable
    std::size_t journaling_ = 0;  ///< journal slots held (begin_journal)
    bool rotating_ = false;       ///< rotate_journal holds appends off
    std::condition_variable journal_cv_;  ///< journaling_ / rotating_ changed
    std::size_t active_ = 0;  ///< jobs currently on workers
    bool stopping_ = false;
    bool draining_ = false;  ///< drain mode: no pickups, queued jobs preserved
    ServiceStats counters_{};  ///< terminal-state counters (queued/running derived)

    std::mutex metrics_mu_;

    /// Per-worker gate-runner cache, keyed by lane-block words.
    std::vector<std::unordered_map<unsigned, std::unique_ptr<gates::BatchGateRunner>>> runner_cache_;

    std::vector<std::thread> workers_;
};

}  // namespace gaip::service
