#include "service/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "trace/jsonl.hpp"

namespace gaip::service {

namespace {

/// Backoff delay for the k-th consecutive failure (k >= 1): exponential
/// from base_ms, capped at max_ms, +/- jitter_pct percent so a herd of
/// retrying clients spreads out instead of reconnecting in lockstep.
std::uint64_t backoff_delay_ms(const RetryPolicy& p, unsigned failures) {
    std::uint64_t d = p.base_ms == 0 ? 1 : p.base_ms;
    for (unsigned i = 1; i < failures && d < p.max_ms; ++i) d *= 2;
    d = std::min<std::uint64_t>(d, std::max(1u, p.max_ms));
    if (p.jitter_pct > 0) {
        static thread_local std::minstd_rand rng(static_cast<unsigned>(
            std::chrono::steady_clock::now().time_since_epoch().count() ^ ::getpid()));
        const std::uint64_t span = d * p.jitter_pct / 100;
        if (span > 0) d = d - span + rng() % (2 * span + 1);
    }
    return d;
}

void sleep_ms(std::uint64_t ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

/// Bytes per recv: a batch of streamed events arrives in a few reads.
constexpr std::size_t kReadChunk = std::size_t{64} << 10;

}  // namespace

Client::Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
        throw ConnectError("socket path empty or too long: '" + socket_path + "'");
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw ConnectError("socket(): " + std::string(strerror(errno)));
    for (;;) {
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
        // A signal can interrupt connect() with the handshake still in
        // flight; retrying then reports EISCONN, which is success.
        if (errno == EINTR) continue;
        if (errno == EISCONN) break;
        const std::string what = strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw ConnectError("cannot connect to " + socket_path + ": " + what);
    }
}

Client::~Client() {
    if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      inbuf_(std::move(other.inbuf_)),
      in_off_(other.in_off_),
      op_deadline_ms_(other.op_deadline_ms_) {
    other.fd_ = -1;
    other.in_off_ = 0;
}

Client& Client::operator=(Client&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
        inbuf_ = std::move(other.inbuf_);
        in_off_ = other.in_off_;
        other.in_off_ = 0;
        op_deadline_ms_ = other.op_deadline_ms_;
    }
    return *this;
}

Client Client::dial(const std::string& socket_path, const RetryPolicy& policy) {
    const unsigned attempts = std::max(1u, policy.attempts);
    for (unsigned k = 1;; ++k) {
        try {
            Client c(socket_path);
            c.set_op_deadline(policy.op_deadline_ms);
            return c;
        } catch (const ConnectError&) {
            if (k >= attempts) throw;
        }
        sleep_ms(backoff_delay_ms(policy, k));
    }
}

void Client::wait_io(short events, Clock::time_point deadline) {
    for (;;) {
        int timeout = -1;
        if (op_deadline_ms_ != 0) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
                    .count();
            if (left <= 0)
                throw TimeoutError("operation deadline (" + std::to_string(op_deadline_ms_) +
                                   " ms) elapsed");
            timeout = static_cast<int>(left);
        }
        pollfd p{fd_, events, 0};
        const int rc = ::poll(&p, 1, timeout);
        if (rc < 0) {
            if (errno == EINTR) continue;
            throw ConnectError("poll(): " + std::string(strerror(errno)));
        }
        if (rc == 0) continue;  // re-checks the deadline
        if ((p.revents & (POLLERR | POLLNVAL)) != 0) throw ConnectError("socket error");
        return;  // ready (POLLHUP included: let recv observe the EOF)
    }
}

void Client::send(const Frame& f) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(op_deadline_ms_);
    std::string out = to_line(f);
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
        if (op_deadline_ms_ != 0) wait_io(POLLOUT, deadline);
        const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                wait_io(POLLOUT, deadline);
                continue;
            }
            throw ConnectError("send(): " + std::string(strerror(errno)));
        }
        off += static_cast<std::size_t>(n);
    }
}

std::string Client::read_line() {
    const auto deadline = Clock::now() + std::chrono::milliseconds(op_deadline_ms_);
    for (;;) {
        const std::size_t nl = inbuf_.find('\n', in_off_);
        if (nl != std::string::npos) {
            std::string line = inbuf_.substr(in_off_, nl - in_off_);
            in_off_ = nl + 1;
            if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
            return line;
        }
        // Only a partial line is left: drop the consumed prefix once per
        // read, not once per line.
        inbuf_.erase(0, in_off_);
        in_off_ = 0;
        if (op_deadline_ms_ != 0) wait_io(POLLIN, deadline);
        char buf[kReadChunk];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0) throw MalformedResponse("connection closed mid-conversation");
        if (n < 0) {
            if (errno == EINTR) continue;
            throw ConnectError("recv(): " + std::string(strerror(errno)));
        }
        inbuf_.append(buf, static_cast<std::size_t>(n));
    }
}

Frame Client::read_frame(const std::function<void(const trace::TraceEvent&)>& on_event) {
    for (;;) {
        const std::string line = read_line();
        if (is_event_line(line)) {
            if (on_event) {
                try {
                    on_event(trace::from_json_line(line));
                } catch (const std::exception& ex) {
                    throw MalformedResponse("bad event line: " + std::string(ex.what()));
                }
            }
            continue;
        }
        try {
            return parse_frame(line);
        } catch (const std::exception& ex) {
            throw MalformedResponse("bad response frame: " + std::string(ex.what()));
        }
    }
}

Frame Client::rpc(const Frame& req) {
    send(req);
    Frame resp = read_frame();
    if (!resp.ok()) throw RemoteError(resp.str("code", "error"), resp.str("error", "rejected"));
    return resp;
}

Frame submit_frame(const JobSpec& spec) {
    Frame f(verb::kSubmit);
    add_raw_spec_fields(f, spec);
    return f;
}

std::uint64_t Client::submit(const JobSpec& spec) {
    const Frame ack = rpc(submit_frame(spec));
    if (!ack.has("id")) throw MalformedResponse("submit ack carries no id");
    return ack.u64("id");
}

Frame Client::status(std::uint64_t id) {
    Frame req(verb::kStatus);
    req.add("id", id);
    return rpc(req);
}

CancelOutcome Client::cancel(std::uint64_t id) {
    Frame req(verb::kCancel);
    req.add("id", id);
    try {
        const Frame resp = rpc(req);
        return resp.u64("cancelled") != 0 ? CancelOutcome::kCancelled : CancelOutcome::kTooLate;
    } catch (const RemoteError& ex) {
        if (ex.code() == err::kNotFound) return CancelOutcome::kNotFound;
        throw;
    }
}

Frame Client::stream(std::uint64_t id,
                     const std::function<void(const trace::TraceEvent&)>& on_event) {
    Frame req(verb::kStream);
    req.add("id", id);
    send(req);
    // Ack first (events may already interleave), then events until
    // stream_end.
    Frame ack = read_frame(on_event);
    if (!ack.ok()) throw RemoteError(ack.str("code", "error"), ack.str("error", "rejected"));
    for (;;) {
        Frame f = read_frame(on_event);
        if (f.verb == "stream_end") return f;
        // Any other interleaved control frame on this connection is a
        // protocol violation from our point of view.
        throw MalformedResponse("unexpected '" + f.verb + "' frame inside a stream");
    }
}

Frame Client::run_job(const JobSpec& spec,
                      const std::function<void(const trace::TraceEvent&)>& on_event) {
    const std::uint64_t id = submit(spec);
    const Frame end = stream(id, on_event);
    const Frame final_status = status(id);
    if (final_status.str("state") != "done")
        throw RemoteError("job_" + final_status.str("state", "unknown"),
                          "job " + std::to_string(id) + " ended " +
                              final_status.str("state", "unknown") +
                              (final_status.has("error") ? ": " + final_status.str("error") : ""));
    return final_status;
}

bool ping_wait(const std::string& socket_path, double wait_s, const RetryPolicy& policy) noexcept {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(wait_s < 0 ? 0.0 : wait_s));
    for (unsigned k = 1;; ++k) {
        try {
            Client c(socket_path);
            c.set_op_deadline(policy.op_deadline_ms != 0 ? policy.op_deadline_ms : 2000);
            c.ping();
            return true;
        } catch (const std::exception&) {
        }
        if (Clock::now() >= deadline) return false;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
        sleep_ms(std::min<std::uint64_t>(backoff_delay_ms(policy, k),
                                         static_cast<std::uint64_t>(left < 1 ? 1 : left)));
    }
}

Frame stream_with_resume(const std::string& socket_path, std::uint64_t id,
                         const RetryPolicy& policy,
                         const std::function<void(const trace::TraceEvent&)>& on_event) {
    const unsigned attempts = std::max(1u, policy.attempts);
    unsigned fails = 0;
    for (;;) {
        bool progressed = false;
        try {
            Client c = Client::dial(socket_path, policy);
            Frame end = c.stream(id, [&](const trace::TraceEvent& e) {
                progressed = true;  // forward motion resets the retry budget
                if (on_event) on_event(e);
            });
            if (end.str("state") == "shed") {
                // Subscription shed under overload; the job itself lives
                // on — back off and re-subscribe.
                if (++fails >= attempts)
                    throw ConnectError("stream for job " + std::to_string(id) + " shed " +
                                       std::to_string(fails) + " times; giving up");
                sleep_ms(backoff_delay_ms(policy, fails));
                continue;
            }
            return end;
        } catch (const RemoteError&) {
            throw;  // not_found etc.: retrying cannot help
        } catch (const ConnectError& ex) {
            // Daemon restarting (TimeoutError included). Ids survive
            // journal recovery, so re-subscribing to the same id resumes
            // the stream against the re-run (or restored) job.
            if (progressed) fails = 0;
            if (++fails >= attempts) throw;
            sleep_ms(backoff_delay_ms(policy, fails));
        } catch (const MalformedResponse& ex) {
            // EOF mid-stream IS the kill -9 signature.
            if (progressed) fails = 0;
            if (++fails >= attempts) throw;
            sleep_ms(backoff_delay_ms(policy, fails));
        }
    }
}

}  // namespace gaip::service
