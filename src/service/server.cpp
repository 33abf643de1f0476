#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace gaip::service {

namespace {

/// Thread-safe line writer over one client fd. Shared between the poll
/// thread (frame responses) and worker threads (streamed events + the
/// stream_end frame), and outlives the connection entry so an end callback
/// firing after close is a safe no-op.
///
/// NEVER blocks: what the non-blocking socket cannot take immediately goes
/// into a bounded outbox the poll thread drains on POLLOUT. A consumer
/// that falls more than the bound behind is marked overflowed — the poll
/// loop evicts it (slow-consumer shedding) instead of letting it wedge a
/// worker thread.
class ConnWriter {
public:
    ConnWriter(int fd, std::size_t max_outbox, int wake_fd)
        : fd_(fd), max_outbox_(max_outbox), wake_fd_(wake_fd) {}

    bool write_line(const std::string& line) {
        std::lock_guard<std::mutex> lk(mu_);
        if (fd_ < 0 || dead_) return false;
        std::string out = line;
        out += '\n';
        std::size_t off = 0;
        if (outbox_.size() == ob_off_) {
            // Outbox empty: send opportunistically (the fast path — a
            // healthy client takes the whole line here).
            while (off < out.size()) {
                const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EINTR) continue;
                    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                    dead_ = true;
                    return false;
                }
                off += static_cast<std::size_t>(n);
            }
            if (off == out.size()) return true;
        }
        if (outbox_.size() - ob_off_ + (out.size() - off) > max_outbox_) {
            dead_ = true;  // slow consumer: evict, never block
            overflowed_ = true;
            return false;
        }
        outbox_.append(out, off, std::string::npos);
        nudge();  // wake the poll loop so it subscribes POLLOUT
        return true;
    }

    /// Poll-thread drain (POLLOUT / periodic). False = connection is dead.
    bool flush() {
        std::lock_guard<std::mutex> lk(mu_);
        if (fd_ < 0 || dead_) return false;
        while (ob_off_ < outbox_.size()) {
            const ssize_t n =
                ::send(fd_, outbox_.data() + ob_off_, outbox_.size() - ob_off_, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
                dead_ = true;
                return false;
            }
            ob_off_ += static_cast<std::size_t>(n);
        }
        outbox_.clear();
        ob_off_ = 0;
        return true;
    }

    bool wants_flush() const {
        std::lock_guard<std::mutex> lk(mu_);
        return fd_ >= 0 && !dead_ && ob_off_ < outbox_.size();
    }

    void close_fd() {
        std::lock_guard<std::mutex> lk(mu_);
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    bool dead() const {
        std::lock_guard<std::mutex> lk(mu_);
        return dead_ || fd_ < 0;
    }

    bool overflowed() const {
        std::lock_guard<std::mutex> lk(mu_);
        return overflowed_;
    }

private:
    void nudge() noexcept {
        if (wake_fd_ >= 0) {
            const char b = 'f';
            [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &b, 1);
        }
    }

    mutable std::mutex mu_;
    int fd_;
    std::size_t max_outbox_;
    int wake_fd_;
    std::string outbox_;
    std::size_t ob_off_ = 0;  ///< bytes of outbox_ already sent
    bool dead_ = false;
    bool overflowed_ = false;
};

/// Forwards one job's trace events to the client as raw event lines
/// (distinguished from frames by their leading "kind" key).
class ConnStreamSink final : public trace::TraceSink {
public:
    ConnStreamSink(std::shared_ptr<ConnWriter> w) : w_(std::move(w)) {}
    void on_event(const trace::TraceEvent& e) override { w_->write_line(trace::to_json_line(e)); }

private:
    std::shared_ptr<ConnWriter> w_;
};

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct Server::Conn {
    int fd = -1;
    pid_t client_pid = 0;  ///< SO_PEERCRED (per-client connection cap key)
    std::string inbuf;
    std::shared_ptr<ConnWriter> writer;
    /// Streams opened on this connection: (job id, sink) pairs detached +
    /// freed at close.
    std::vector<std::pair<std::uint64_t, std::unique_ptr<ConnStreamSink>>> streams;
    bool closing = false;
};

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
    if (!cfg_.metrics_path.empty())
        metrics_ = std::make_unique<trace::JsonlSink>(cfg_.metrics_path);

    // Durability: open the journal and replay the previous life BEFORE the
    // socket exists, so a recovering daemon never acks anything it could
    // still lose.
    JournalReplay replay;
    if (!cfg_.journal_dir.empty()) {
        journal_ = std::make_unique<Journal>(cfg_.journal_dir);
        replay = replay_journal(cfg_.journal_dir);
        replay_skipped_ = replay.lines_skipped;
        if (replay.lines_skipped > 0)
            std::fprintf(stderr,
                         "gaipd: journal replay: skipped %llu of %llu lines "
                         "(torn tail / CRC mismatch / bad record)\n",
                         static_cast<unsigned long long>(replay.lines_skipped),
                         static_cast<unsigned long long>(replay.lines_total));
    }

    SchedulerConfig sc = cfg_.scheduler;
    sc.metrics = metrics_.get();
    sc.journal = journal_.get();
    sched_ = std::make_unique<Scheduler>(sc);

    if (journal_ && replay.lines_total > 0) {
        // Compact around the recovered set FIRST: the snapshot is taken
        // from the replay itself, so terminal records appended by re-run
        // jobs can never race the rename and be lost.
        std::vector<JobRecord> live = replay.terminal;
        live.insert(live.end(), replay.pending.begin(), replay.pending.end());
        journal_->rotate(live, replay.max_id + 1);
    }
    for (const JobRecord& rec : replay.terminal) sched_->restore_terminal(rec);
    for (const JobRecord& rec : replay.pending) sched_->readmit(rec);
    if (cfg_.announce && (!replay.terminal.empty() || !replay.pending.empty()))
        std::fprintf(stderr, "gaipd: journal recovery: %zu terminal restored, %zu re-admitted\n",
                     replay.terminal.size(), replay.pending.size());

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.empty() || cfg_.socket_path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("gaipd: socket path empty or longer than " +
                                 std::to_string(sizeof(addr.sun_path) - 1) + " bytes: '" +
                                 cfg_.socket_path + "'");
    std::memcpy(addr.sun_path, cfg_.socket_path.c_str(), cfg_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("gaipd: socket(): " + std::string(strerror(errno)));
    ::unlink(cfg_.socket_path.c_str());  // replace a stale socket file
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
        const std::string what = strerror(errno);
        ::close(listen_fd_);
        throw std::runtime_error("gaipd: bind(" + cfg_.socket_path + "): " + what);
    }
    if (::listen(listen_fd_, 64) < 0) {
        const std::string what = strerror(errno);
        ::close(listen_fd_);
        ::unlink(cfg_.socket_path.c_str());
        throw std::runtime_error("gaipd: listen(): " + what);
    }
    set_nonblocking(listen_fd_);

    int pipefd[2];
    if (::pipe(pipefd) < 0) {
        ::close(listen_fd_);
        ::unlink(cfg_.socket_path.c_str());
        throw std::runtime_error("gaipd: pipe(): " + std::string(strerror(errno)));
    }
    wake_r_ = pipefd[0];
    wake_w_ = pipefd[1];
    set_nonblocking(wake_r_);

    if (cfg_.announce)
        std::fprintf(stderr, "gaipd: listening on %s (%u workers)\n", cfg_.socket_path.c_str(),
                     cfg_.scheduler.workers == 0 ? 1u : cfg_.scheduler.workers);
}

Server::~Server() {
    stop();
    sched_->stop();
    for (auto& c : conns_) close_conn(*c);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_r_ >= 0) ::close(wake_r_);
    if (wake_w_ >= 0) ::close(wake_w_);
    ::unlink(cfg_.socket_path.c_str());
    if (metrics_) metrics_->flush();
}

void Server::stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    if (wake_w_ >= 0) {
        const char b = 'x';
        [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
    }
}

void Server::request_rotate() noexcept {
    rotate_requested_.store(true, std::memory_order_relaxed);
    if (wake_w_ >= 0) {
        const char b = 'r';
        [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
    }
}

void Server::close_conn(Conn& c) {
    if (c.fd < 0) return;
    for (auto& [id, sink] : c.streams) sched_->detach_stream(id, sink.get());
    c.streams.clear();
    c.writer->close_fd();  // also invalidates the fd for pending stream writes
    c.fd = -1;
    c.closing = true;
}

void Server::accept_conns() {
    for (;;) {
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR) continue;
            break;
        }
        set_nonblocking(cfd);

        pid_t pid = 0;
        ucred cred{};
        socklen_t len = sizeof(cred);
        if (::getsockopt(cfd, SOL_SOCKET, SO_PEERCRED, &cred, &len) == 0) pid = cred.pid;

        // Overload tier 0: connection caps. A fresh socket's buffer is
        // empty, so the rejection frame goes out before the close.
        std::size_t total = 0, same_client = 0;
        for (const auto& c : conns_)
            if (c->fd >= 0) {
                ++total;
                if (pid != 0 && c->client_pid == pid) ++same_client;
            }
        const bool over_total = cfg_.max_conns != 0 && total >= cfg_.max_conns;
        const bool over_client =
            cfg_.max_conns_per_client != 0 && same_client >= cfg_.max_conns_per_client;
        if (over_total || over_client) {
            ++conns_rejected_;
            Frame f = error_frame("error", err::kTooManyConns,
                                  over_total ? "connection limit reached"
                                             : "per-client connection limit reached");
            f.add("retry_after_ms", retry_after_ms());
            std::string line = to_line(f);
            line += '\n';
            [[maybe_unused]] const ssize_t n = ::send(cfd, line.data(), line.size(), MSG_NOSIGNAL);
            ::close(cfd);
            continue;
        }

        auto c = std::make_unique<Conn>();
        c->fd = cfd;
        c->client_pid = pid;
        c->writer = std::make_shared<ConnWriter>(cfd, cfg_.max_outbox_bytes, wake_w_);
        conns_.push_back(std::move(c));
    }
}

void Server::run() {
    while (!stop_.load(std::memory_order_relaxed)) {
        std::vector<pollfd> fds;
        fds.push_back({listen_fd_, POLLIN, 0});
        fds.push_back({wake_r_, POLLIN, 0});
        for (const auto& c : conns_)
            if (c->fd >= 0)
                fds.push_back({c->fd,
                               static_cast<short>(POLLIN | (c->writer->wants_flush() ? POLLOUT : 0)),
                               0});

        const int rc = ::poll(fds.data(), fds.size(), 100);
        if (rc < 0 && errno != EINTR) break;

        // Periodic housekeeping: queued jobs whose deadline passed.
        sched_->expire_overdue();

        // SIGHUP (or operator request): compact + reopen the journal.
        if (rotate_requested_.exchange(false, std::memory_order_relaxed) && journal_)
            sched_->rotate_journal();

        if (rc > 0) {
            if (fds[1].revents & POLLIN) {
                char buf[64];
                while (::read(wake_r_, buf, sizeof(buf)) > 0) {
                }
            }
            if (fds[0].revents & POLLIN) accept_conns();
            std::size_t fi = 2;
            for (auto& c : conns_) {
                if (c->fd < 0) continue;
                if (fi < fds.size() && fds[fi].fd == c->fd) {
                    if ((fds[fi].revents & POLLOUT) != 0) c->writer->flush();
                    if ((fds[fi].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                        handle_readable(*c);
                }
                ++fi;
            }
        }
        // Opportunistic drain for conns that buffered between poll rounds.
        for (auto& c : conns_)
            if (c->fd >= 0 && c->writer->wants_flush()) c->writer->flush();

        // Drop closed / dead-writer connections; an outbox overflow is a
        // slow-consumer eviction and counts the streams it held as shed.
        std::erase_if(conns_, [this](const std::unique_ptr<Conn>& c) {
            if (c->fd >= 0 && c->writer->dead()) {
                if (c->writer->overflowed()) {
                    ++slow_evicted_;
                    streams_shed_ += c->streams.size();
                }
                close_conn(*c);
            }
            return c->fd < 0;
        });

        // Drain shutdown: once every worker went idle, the queued jobs are
        // journaled pending (recovered next boot) and the daemon exits.
        if (draining_ && sched_->stats().running == 0) stop();
    }
}

void Server::handle_readable(Conn& c) {
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n == 0) {
            close_conn(c);
            return;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            close_conn(c);
            return;
        }
        c.inbuf.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = c.inbuf.find('\n', start);
            if (nl == std::string::npos) break;
            const std::string line = c.inbuf.substr(start, nl - start);
            start = nl + 1;
            if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
            handle_line(c, line);
            if (c.fd < 0) return;
        }
        c.inbuf.erase(0, start);
        // A line refusing to end within the frame ceiling is answered and
        // the connection closed — it can never parse.
        if (c.inbuf.size() > kMaxFrameBytes) {
            c.writer->write_line(to_line(error_frame(
                "error", err::kOversized,
                "line exceeds " + std::to_string(kMaxFrameBytes) + " bytes")));
            close_conn(c);
            return;
        }
    }
}

void Server::handle_line(Conn& c, const std::string& line) {
    Frame req;
    try {
        req = parse_frame(line);
    } catch (const ProtocolError& ex) {
        c.writer->write_line(to_line(error_frame("error", ex.code(), ex.what())));
        return;
    }
    try {
        if (req.verb == verb::kPing) {
            c.writer->write_line(to_line(ok_frame(verb::kPing)));
        } else if (req.verb == verb::kSubmit) {
            const JobSpec spec = parse_job_spec(req);
            const std::uint64_t id = sched_->submit(spec);
            Frame ack = ok_frame(verb::kSubmit);
            ack.add("id", id);
            add_spec_fields(ack, spec);
            c.writer->write_line(to_line(ack));
        } else if (req.verb == verb::kStatus) {
            if (!req.has("id")) throw ProtocolError(err::kBadField, "status wants an 'id'");
            const auto rec = sched_->status(req.u64("id"));
            if (!rec) throw ProtocolError(err::kNotFound, "no such job");
            Frame f = job_frame(*rec);
            f.verb = verb::kStatus;
            c.writer->write_line(to_line(f));
        } else if (req.verb == verb::kList) {
            const std::vector<JobRecord> recs = sched_->list();
            for (const JobRecord& r : recs) c.writer->write_line(to_line(job_frame(r)));
            Frame f = ok_frame(verb::kList);
            f.add("count", std::uint64_t{recs.size()});
            c.writer->write_line(to_line(f));
        } else if (req.verb == verb::kCancel) {
            if (!req.has("id")) throw ProtocolError(err::kBadField, "cancel wants an 'id'");
            const std::uint64_t id = req.u64("id");
            const CancelOutcome out = sched_->cancel(id);
            if (out == CancelOutcome::kNotFound)
                throw ProtocolError(err::kNotFound, "no such job");
            Frame f = ok_frame(verb::kCancel);
            f.add("id", id);
            f.add("cancelled", std::uint64_t{out == CancelOutcome::kCancelled ? 1u : 0u});
            if (const auto rec = sched_->status(id)) f.add("state", job_state_name(rec->state));
            c.writer->write_line(to_line(f));
        } else if (req.verb == verb::kStream) {
            if (!req.has("id")) throw ProtocolError(err::kBadField, "stream wants an 'id'");
            // Overload tier 1: past 75% queue occupancy new stream
            // subscriptions are refused (with a retry hint) — observers
            // are shed before jobs are.
            const std::size_t depth = sched_->queue_depth();
            if (depth * 4 >= sched_->max_queue() * 3)
                throw ProtocolError(err::kOverloaded,
                                    "daemon overloaded (" + std::to_string(depth) +
                                        " queued); no new streams — retry later");
            const std::uint64_t id = req.u64("id");
            auto sink = std::make_unique<ConnStreamSink>(c.writer);
            std::shared_ptr<ConnWriter> w = c.writer;
            const auto on_end = [w, id](const JobRecord& rec) {
                Frame f("stream_end");
                f.add("ok", std::uint64_t{1});
                f.add("id", id);
                f.add("state", job_state_name(rec.state));
                if (rec.state == JobState::kDone) {
                    f.add("best_fitness", std::uint64_t{rec.outcome.best_fitness});
                    f.add("best_candidate", std::uint64_t{rec.outcome.best_candidate});
                    f.add("generations", std::uint64_t{rec.outcome.generations});
                }
                if (!rec.error.empty()) f.add("error", rec.error);
                w->write_line(to_line(f));
            };
            const auto pre = sched_->status(id);
            if (!pre) throw ProtocolError(err::kNotFound, "no such job");
            const bool live =
                pre->state == JobState::kQueued || pre->state == JobState::kRunning;
            // Ack BEFORE attaching: the finishing worker writes stream_end
            // the moment the sink attaches, and the client relies on the
            // ack arriving first.
            Frame ack = ok_frame(verb::kStream);
            ack.add("id", id);
            ack.add("live", std::uint64_t{live ? 1u : 0u});
            c.writer->write_line(to_line(ack));
            if (live && sched_->attach_stream(id, sink.get(), on_end)) {
                c.streams.emplace_back(id, std::move(sink));
            } else {
                // Job already terminal: no events will flow; end the
                // stream immediately with the final record.
                const auto rec = sched_->status(id);
                if (rec) on_end(*rec);
            }
        } else if (req.verb == verb::kStats) {
            const ServiceStats s = sched_->stats();
            Frame f = ok_frame(verb::kStats);
            f.add("submitted", s.submitted);
            f.add("rejected", s.rejected);
            f.add("queued", s.queued);
            f.add("running", s.running);
            f.add("done", s.done);
            f.add("failed", s.failed);
            f.add("cancelled", s.cancelled);
            f.add("expired", s.expired);
            f.add("deadline_misses", s.deadline_misses);
            f.add("gens_total", s.gens_total);
            f.add("evals_total", s.evals_total);
            f.add("rollbacks_total", s.rollbacks_total);
            f.add("done_rtl", s.done_rtl);
            f.add("done_behavioral", s.done_behavioral);
            f.add("done_gates", s.done_gates);
            f.add("done_islands", s.done_islands);
            f.add("done_supervised", s.done_supervised);
            f.add("gate_batches", s.gate_batches);
            f.add("gate_lanes", s.gate_lanes);
            f.add("restored", s.restored);
            f.add("readmitted", s.readmitted);
            f.add("streams_shed", streams_shed_);
            f.add("slow_evicted", slow_evicted_);
            f.add("conns_rejected", conns_rejected_);
            if (journal_) {
                const JournalStats js = journal_->stats();
                f.add("journal_records", js.records_written);
                f.add("journal_syncs", js.syncs);
                f.add("journal_write_errors", js.write_errors);
                f.add("journal_rotations", js.rotations);
                f.add("journal_degraded", std::uint64_t{js.degraded ? 1u : 0u});
                f.add("journal_replay_skipped", replay_skipped_);
            }
            f.add("uptime_s", s.uptime_s);
            c.writer->write_line(to_line(f));
        } else if (req.verb == verb::kShutdown) {
            const bool drain = req.u64("drain", 0) != 0;
            Frame ack = ok_frame(verb::kShutdown);
            if (drain) ack.add("drain", std::uint64_t{1});
            c.writer->write_line(to_line(ack));
            if (drain) {
                // Graceful drain: stop admitting, let running jobs finish,
                // leave the queue journaled as pending. The poll loop
                // exits once the workers go idle.
                sched_->begin_drain();
                draining_ = true;
            } else {
                stop();
            }
        } else {
            throw ProtocolError(err::kUnknownVerb, "unknown verb '" + req.verb + "'");
        }
    } catch (const ProtocolError& ex) {
        Frame f = error_frame(req.verb, ex.code(), ex.what());
        const bool overload = ex.code() == err::kQueueFull || ex.code() == err::kOverloaded;
        if (overload) f.add("retry_after_ms", retry_after_ms());
        c.writer->write_line(to_line(f));
        // Overload tier 2: the queue is FULL — shed every stream
        // subscriber so the cycles they cost go to finishing jobs.
        if (ex.code() == err::kQueueFull) shed_streams();
    } catch (const std::exception& ex) {
        c.writer->write_line(to_line(error_frame(req.verb, err::kBadFrame, ex.what())));
    }
}

std::uint64_t Server::retry_after_ms() const {
    // Grows with queue depth so a thundering herd spreads out; bounded so
    // clients never park for more than ~5 s.
    const std::size_t depth = sched_->queue_depth();
    return 100 + 10 * static_cast<std::uint64_t>(std::min<std::size_t>(depth, 490));
}

void Server::shed_streams() {
    for (auto& c : conns_) {
        if (c->fd < 0) continue;
        for (auto& [id, sink] : c->streams) {
            sched_->detach_stream(id, sink.get());
            Frame f("stream_end");
            f.add("ok", std::uint64_t{1});
            f.add("id", id);
            f.add("state", "shed");
            c->writer->write_line(to_line(f));
            ++streams_shed_;
        }
        c->streams.clear();
    }
}

}  // namespace gaip::service
