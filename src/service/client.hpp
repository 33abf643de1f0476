// Thin client of the gaipd control protocol, shared by gaipctl and the
// --daemon paths of gacli / gaip-trace / gaip-supervise. Error taxonomy is
// part of the CLI contract (distinct exit codes so scripts can tell
// "daemon down" from "protocol bug"):
//
//   ConnectError        cannot reach the socket           -> exit 4
//   TimeoutError        per-op deadline elapsed           -> exit 6
//   MalformedResponse   daemon answered garbage / EOF     -> exit 5
//   RemoteError         daemon answered ok:0 + code       -> exit 1 (job error)
//
// Resilience (the supervisor ladder's backoff discipline applied to the
// control plane): Client::dial retries the connect with exponential
// backoff + jitter, every send/recv loop is EINTR-safe, per-op deadlines
// bound how long a wedged daemon can hold a client, and
// stream_with_resume survives a daemon restart mid-stream by
// reconnecting and re-subscribing to the same job id (ids are stable
// across journal recovery).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "service/job.hpp"
#include "service/protocol.hpp"
#include "trace/event.hpp"

namespace gaip::service {

/// Connection-refused / socket-gone / send failure.
class ConnectError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A per-op deadline elapsed before the daemon answered. Subclass of
/// ConnectError so policies that treat "daemon unreachable" generically
/// keep working; scripts get a distinct exit code (6).
class TimeoutError : public ConnectError {
public:
    using ConnectError::ConnectError;
};

/// Bounded retry/backoff knobs shared by dial / ping_wait /
/// stream_with_resume. Delay for attempt k (1-based failures) is
/// min(base_ms << (k-1), max_ms), +/- jitter_pct percent of itself.
struct RetryPolicy {
    unsigned attempts = 5;     ///< max consecutive failures before giving up
    unsigned base_ms = 50;     ///< first backoff delay
    unsigned max_ms = 2000;    ///< backoff ceiling
    unsigned jitter_pct = 20;  ///< randomized +/- percentage of the delay
    /// Per-operation deadline (one send, or the wait for the next line).
    /// 0 = wait forever (the pre-resilience behavior).
    std::uint64_t op_deadline_ms = 0;
};

/// The daemon's reply did not parse as a frame (or the stream ended
/// mid-conversation) — a protocol bug, not an unavailable daemon.
class MalformedResponse : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Structured ok:0 rejection from the daemon.
class RemoteError : public std::runtime_error {
public:
    RemoteError(std::string code, const std::string& what)
        : std::runtime_error(what), code_(std::move(code)) {}
    const std::string& code() const noexcept { return code_; }

private:
    std::string code_;
};

class Client {
public:
    /// Connects immediately (one attempt); throws ConnectError. Use dial()
    /// for retry/backoff.
    explicit Client(const std::string& socket_path);
    ~Client();

    /// Connect with bounded exponential backoff + jitter; the returned
    /// client carries the policy's op deadline. Throws the last
    /// ConnectError once policy.attempts consecutive connects failed.
    static Client dial(const std::string& socket_path, const RetryPolicy& policy);

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;
    Client(Client&& other) noexcept;
    Client& operator=(Client&& other) noexcept;

    /// Per-op deadline for subsequent send/read calls (0 = none).
    void set_op_deadline(std::uint64_t ms) noexcept { op_deadline_ms_ = ms; }

    /// Send one frame (throws ConnectError on a broken pipe).
    void send(const Frame& f);

    /// Read the next line (control frame or streamed event). Throws
    /// MalformedResponse on EOF.
    std::string read_line();

    /// Read lines until the next control frame, handing streamed trace
    /// events to `on_event` (may be null to discard them). Throws
    /// MalformedResponse on unparseable frames.
    Frame read_frame(const std::function<void(const trace::TraceEvent&)>& on_event = nullptr);

    /// send + read_frame + ok check: throws RemoteError on ok:0.
    Frame rpc(const Frame& req);

    // -- conveniences over the verb set --
    void ping() { rpc(Frame(verb::kPing)); }
    /// Submit a spec; returns the assigned job id.
    std::uint64_t submit(const JobSpec& spec);
    Frame status(std::uint64_t id);
    CancelOutcome cancel(std::uint64_t id);
    Frame stats() { return rpc(Frame(verb::kStats)); }
    void shutdown() { rpc(Frame(verb::kShutdown)); }

    /// Open a stream on `id` and block until stream_end, forwarding every
    /// event line to `on_event` (null = discard). Returns the stream_end
    /// frame (carries final state + result fields).
    Frame stream(std::uint64_t id,
                 const std::function<void(const trace::TraceEvent&)>& on_event = nullptr);

    /// submit + stream: run one job to completion through the daemon and
    /// return its final status frame. Throws RemoteError when the job did
    /// not end in state "done".
    Frame run_job(const JobSpec& spec,
                  const std::function<void(const trace::TraceEvent&)>& on_event = nullptr);

private:
    /// Wait for the fd to become readable/writable within the op
    /// deadline; throws TimeoutError / ConnectError.
    void wait_io(short events, Clock::time_point deadline);

    int fd_ = -1;
    std::string inbuf_;
    std::size_t in_off_ = 0;  ///< start of the unconsumed bytes of inbuf_
    std::uint64_t op_deadline_ms_ = 0;
};

/// Build a submit frame from a spec: every schema field, raw
/// (service::add_raw_spec_fields).
Frame submit_frame(const JobSpec& spec);

/// Readiness probe: dial + ping with backoff until the daemon answers or
/// `wait_s` seconds elapse. Returns true on a successful ping. Never
/// throws — an unreachable daemon is the false case, not an error.
bool ping_wait(const std::string& socket_path, double wait_s,
               const RetryPolicy& policy = {}) noexcept;

/// Stream job `id` to completion, surviving daemon restarts and overload
/// sheds: on a lost connection (or a stream_end with state "shed") the
/// stream reconnects with backoff and re-subscribes to the SAME id —
/// journal recovery keeps ids stable, so the resumed stream finishes with
/// the job's real terminal record. Any received event resets the retry
/// budget (progress-based bounding); policy.attempts CONSECUTIVE failures
/// rethrow the last error. RemoteErrors (not_found, ...) are not retried.
Frame stream_with_resume(const std::string& socket_path, std::uint64_t id,
                         const RetryPolicy& policy,
                         const std::function<void(const trace::TraceEvent&)>& on_event = nullptr);

}  // namespace gaip::service
