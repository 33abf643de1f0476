// gaipd's socket front end: a single-threaded poll() loop owning a Unix-
// domain listening socket and every client connection, dispatching one
// control frame per line to the Scheduler (BESS bessd model: one control
// plane thread, N data-plane workers). Responses and live stream events
// are written back on the same connection; a per-connection writer mutex
// lets worker threads interleave streamed trace events with the poll
// thread's frame responses safely.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/scheduler.hpp"
#include "trace/jsonl.hpp"

namespace gaip::service {

struct ServerConfig {
    /// Unix-domain socket path (sockaddr_un limit ~107 bytes — keep it
    /// short and relative). A stale socket file is replaced on bind.
    std::string socket_path = "gaipd.sock";
    SchedulerConfig scheduler{};
    /// JSONL metrics stream path ("" = off): one line per job lifecycle
    /// event (job_submit/job_start/job_done/job_cancel/job_expire/
    /// job_fail/job_reject), same grammar as the telemetry streams.
    std::string metrics_path;
    /// Write-ahead journal directory ("" = durability off). On boot the
    /// daemon replays DIR/journal.jsonl: terminal jobs are restored
    /// (re-reportable via status/list), interrupted jobs are re-admitted
    /// through the normal clamp/reject path and re-run, then the journal
    /// is compacted. Torn/corrupt lines are skipped with a counted
    /// warning, never fatal.
    std::string journal_dir;
    /// Connection caps (overload tier 0). 0 = unlimited.
    std::size_t max_conns = 256;
    /// Per-client (SO_PEERCRED pid) connection cap. 0 = unlimited.
    std::size_t max_conns_per_client = 32;
    /// Per-connection outbound buffer bound. A consumer that falls this
    /// far behind is EVICTED (slow-consumer shedding) — workers never
    /// block on a stalled client socket.
    std::size_t max_outbox_bytes = std::size_t{1} << 20;
    /// Announce the listening socket on stderr.
    bool announce = false;
};

/// Stream liveness contract: a job's events reach its subscriber in
/// batches. A batch is written once it holds kStreamBatchBytes (capped at a
/// quarter of --max-outbox), when the job's next event comes
/// kStreamBatchAge or more after the batch opened, and always before the
/// stream's stream_end.
inline constexpr std::size_t kStreamBatchBytes = std::size_t{16} << 10;
inline constexpr std::chrono::milliseconds kStreamBatchAge{1};

class Server {
public:
    /// Binds + listens and starts the worker pool; throws
    /// std::runtime_error on socket errors.
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Serve until stop()/shutdown verb. Call from one thread only.
    void run();

    /// Wake the poll loop and make run() return. Safe from any thread and
    /// from signal handlers (one pipe write).
    void stop() noexcept;

    /// Ask the poll thread to compact/reopen the journal (SIGHUP). Safe
    /// from any thread and from signal handlers (flag + pipe write).
    void request_rotate() noexcept;

    Scheduler& scheduler() noexcept { return *sched_; }
    Journal* journal() noexcept { return journal_.get(); }
    const std::string& socket_path() const noexcept { return cfg_.socket_path; }

private:
    struct Conn;

    void handle_readable(Conn& c);
    void handle_line(Conn& c, const std::string& line);
    /// Returns how many of the connection's streams were still attached.
    std::size_t close_conn(Conn& c);
    void accept_conns();
    /// Overload tier 2: drop every stream subscriber (stream_end state
    /// "shed") so job capacity is preserved at the subscribers' expense.
    void shed_streams();
    std::uint64_t retry_after_ms() const;

    ServerConfig cfg_;
    std::unique_ptr<trace::JsonlSink> metrics_;
    std::unique_ptr<Journal> journal_;
    std::unique_ptr<Scheduler> sched_;
    int listen_fd_ = -1;
    int wake_r_ = -1, wake_w_ = -1;  ///< self-pipe for stop()/rotate/flush nudges
    std::atomic<bool> stop_{false};
    std::atomic<bool> rotate_requested_{false};
    bool draining_ = false;  ///< poll thread only: shutdown drain in progress
    std::vector<std::unique_ptr<Conn>> conns_;
    // Robustness counters (reported by `stats`, poll thread only).
    std::uint64_t streams_shed_ = 0;    ///< subscriptions dropped by shedding/eviction
    std::uint64_t slow_evicted_ = 0;    ///< connections evicted on outbox overflow
    std::uint64_t conns_rejected_ = 0;  ///< connection-cap rejections
    std::uint64_t replay_skipped_ = 0;  ///< torn/corrupt journal lines skipped on boot
    // Stream counters, bumped by worker threads.
    std::atomic<std::uint64_t> stream_events_{0};  ///< event lines written to subscribers
    std::atomic<std::uint64_t> stream_writes_{0};  ///< event batches handed to the writer
};

/// In-process daemon — scheduler + server + serving thread — so tests and
/// the throughput bench drive the full socket stack inside one process.
class Daemon {
public:
    explicit Daemon(ServerConfig cfg)
        : server_(std::make_unique<Server>(std::move(cfg))),
          thread_([this] { server_->run(); }) {}
    ~Daemon() { stop(); }

    void stop() {
        if (server_) server_->stop();
        if (thread_.joinable()) thread_.join();
    }

    Scheduler& scheduler() noexcept { return server_->scheduler(); }
    const std::string& socket_path() const noexcept { return server_->socket_path(); }

private:
    std::unique_ptr<Server> server_;
    std::thread thread_;
};

}  // namespace gaip::service
