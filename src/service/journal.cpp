#include "service/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "trace/jsonl.hpp"

namespace gaip::service {

namespace {

/// EINTR-safe full write (partial writes resumed).
bool write_all(int fd, const char* data, std::size_t n) noexcept {
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

/// Splice the CRC tag into a serialized JSON object:
/// {...} -> {...,"crc":"xxxxxxxx"}\n  with the CRC taken over the
/// original object text.
std::string tag_line(const std::string& body) {
    char tag[32];
    std::snprintf(tag, sizeof(tag), ",\"crc\":\"%08x\"}\n", crc32(body.data(), body.size()));
    std::string out = body;
    out.pop_back();  // closing '}'
    out += tag;
    return out;
}

/// Reverse of tag_line: verify + strip the CRC field. Returns false on a
/// missing tag or mismatch.
bool untag_line(const std::string& line, std::string& body) {
    const std::size_t at = line.rfind(",\"crc\":\"");
    // ,"crc":"xxxxxxxx"}  is 18 chars after `at` (newline already stripped).
    if (at == std::string::npos || line.size() != at + 18 || line.back() != '}') return false;
    const std::string hex = line.substr(at + 8, 8);
    char* end = nullptr;
    const unsigned long want = std::strtoul(hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') return false;
    body = line.substr(0, at) + "}";
    return crc32(body.data(), body.size()) == static_cast<std::uint32_t>(want);
}

std::string submit_body(const JobRecord& rec) {
    trace::TraceEvent e(jkind::kSubmit, 0, 0);
    e.add("id", rec.id);
    Frame spec;
    add_raw_spec_fields(spec, rec.spec);
    for (trace::Field& fd : spec.fields) e.fields.push_back(std::move(fd));
    return trace::to_json_line(e);
}

std::string start_body(std::uint64_t id) {
    trace::TraceEvent e(jkind::kStart, 0, 0);
    e.add("id", id);
    return trace::to_json_line(e);
}

const char* terminal_kind(JobState s) noexcept {
    switch (s) {
        case JobState::kDone: return jkind::kDone;
        case JobState::kCancelled: return jkind::kCancel;
        case JobState::kExpired: return jkind::kExpire;
        case JobState::kFailed: return jkind::kFail;
        default: return nullptr;
    }
}

std::string terminal_body(const JobRecord& rec) {
    trace::TraceEvent e(terminal_kind(rec.state), 0, 0);
    e.add("id", rec.id);
    if (rec.state == JobState::kDone) {
        e.add("best_fitness", std::uint64_t{rec.outcome.best_fitness});
        e.add("best_candidate", std::uint64_t{rec.outcome.best_candidate});
        e.add("generations", std::uint64_t{rec.outcome.generations});
        e.add("evaluations", rec.outcome.evaluations);
        e.add("rollbacks", std::uint64_t{rec.outcome.rollbacks});
        e.add("retries", std::uint64_t{rec.outcome.retries});
        if (!rec.outcome.status.empty()) e.add("status", rec.outcome.status);
    }
    if (!rec.error.empty()) e.add("error", rec.error);
    return trace::to_json_line(e);
}

std::string rotate_body(std::uint64_t next_id) {
    trace::TraceEvent e(jkind::kRotate, 0, 0);
    e.add("version", kJournalVersion);
    e.add("next_id", next_id);
    return trace::to_json_line(e);
}

int open_append(const std::string& path) {
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) noexcept {
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0u);
            t[i] = c;
        }
        return t;
    }();
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xFF];
    return crc ^ 0xFFFFFFFFu;
}

Journal::Journal(std::string dir) : dir_(std::move(dir)), path_(dir_ + "/journal.jsonl") {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) throw std::runtime_error("journal: cannot create " + dir_ + ": " + ec.message());
    fd_ = open_append(path_);
    if (fd_ < 0)
        throw std::runtime_error("journal: cannot open " + path_ + ": " +
                                 std::string(strerror(errno)));
}

Journal::~Journal() {
    if (fd_ >= 0) ::close(fd_);
}

void Journal::append_line(const std::string& body) {
    const std::string line = tag_line(body);
    std::unique_lock<std::mutex> lk(mu_);
    if (fd_ < 0 || !write_all(fd_, line.data(), line.size())) {
        ++stats_.write_errors;
        stats_.degraded = true;
        return;
    }
    // Group commit: an appender that finds no flush running syncs every
    // line written so far, outside mu_, and accounts for the whole group;
    // the others wait for a flush that started after their write.
    const std::uint64_t seq = ++written_;
    while (synced_ < seq) {
        if (syncing_) {
            synced_cv_.wait(lk);
            continue;
        }
        syncing_ = true;
        const std::uint64_t upto = written_;
        const int fd = fd_;
        lk.unlock();
        // An acknowledged record must survive kill -9 AND a machine crash.
        const bool ok = ::fdatasync(fd) == 0 || errno == EINVAL || errno == EROFS;
        lk.lock();
        syncing_ = false;
        ++stats_.syncs;
        if (ok) {
            stats_.records_written += upto - synced_;
        } else {
            stats_.write_errors += upto - synced_;
            stats_.degraded = true;
        }
        synced_ = upto;
        synced_cv_.notify_all();
    }
}

void Journal::record_submit(const JobRecord& rec) { append_line(submit_body(rec)); }

void Journal::record_start(std::uint64_t id) { append_line(start_body(id)); }

void Journal::record_terminal(const JobRecord& rec) {
    if (terminal_kind(rec.state) == nullptr) return;
    append_line(terminal_body(rec));
}

void Journal::rotate(const std::vector<JobRecord>& live, std::uint64_t next_id) {
    std::unique_lock<std::mutex> lk(mu_);
    synced_cv_.wait(lk, [&] { return !syncing_; });  // never close fd_ under a flush
    const std::string tmp = dir_ + "/journal.tmp";
    const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    const auto fail = [&] {
        if (tfd >= 0) ::close(tfd);
        ::unlink(tmp.c_str());
        ++stats_.write_errors;
        stats_.degraded = true;
    };
    if (tfd < 0) return fail();
    std::string out = tag_line(rotate_body(next_id));
    for (const JobRecord& rec : live) {
        out += tag_line(submit_body(rec));
        if (terminal_kind(rec.state) != nullptr) out += tag_line(terminal_body(rec));
    }
    if (!write_all(tfd, out.data(), out.size()) || ::fsync(tfd) < 0) return fail();
    ::close(tfd);
    if (::rename(tmp.c_str(), path_.c_str()) < 0) {
        ::unlink(tmp.c_str());
        ++stats_.write_errors;
        stats_.degraded = true;
        return;
    }
    // Persist the rename itself, then swing the append fd to the new file.
    if (const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC); dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    // Lines still waiting for a flush went to the replaced file; `live`
    // covers them and the new file is synced, so their appends complete.
    stats_.records_written += written_ - synced_;
    synced_ = written_;
    synced_cv_.notify_all();
    if (fd_ >= 0) ::close(fd_);
    fd_ = open_append(path_);
    ++stats_.rotations;
    stats_.degraded = fd_ < 0;
    if (fd_ < 0) ++stats_.write_errors;
}

JournalStats Journal::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

JournalReplay replay_journal(const std::string& dir) {
    JournalReplay out;
    const std::string path = dir + "/journal.jsonl";
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return out;  // first boot: nothing to replay
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);  // device node / fifo: never a journal we wrote
        return out;
    }
    std::string text;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (n == 0) break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    std::map<std::uint64_t, JobRecord> jobs;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        // A tail without its newline was torn mid-append: skip, count, done.
        const bool torn = nl == std::string::npos;
        const std::string line = text.substr(start, torn ? std::string::npos : nl - start);
        start = torn ? text.size() : nl + 1;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        ++out.lines_total;
        std::string body;
        trace::TraceEvent e;
        bool ok = !torn && untag_line(line, body);
        if (ok) {
            try {
                e = trace::from_json_line(body);
            } catch (const std::exception&) {
                ok = false;
            }
        }
        if (ok && e.kind == jkind::kRotate) {
            const std::uint64_t next = e.u64("next_id");
            if (next > 0) out.max_id = std::max(out.max_id, next - 1);
            continue;
        }
        if (ok && e.kind == jkind::kSubmit) {
            const std::uint64_t id = e.u64("id");
            Frame f;
            for (trace::Field& fd2 : e.fields)
                if (fd2.key != "id") f.fields.push_back(std::move(fd2));
            try {
                // The recovery admission path IS the submit path: the spec
                // re-validates through the same clamp/reject rules.
                JobRecord rec;
                rec.id = id;
                rec.spec = parse_job_spec(f);
                if (id == 0) throw ProtocolError(err::kBadField, "journal record without id");
                jobs[id] = std::move(rec);
                out.max_id = std::max(out.max_id, id);
            } catch (const std::exception&) {
                ok = false;
            }
        } else if (ok) {
            const std::uint64_t id = e.u64("id");
            const auto it = jobs.find(id);
            if (it == jobs.end()) {
                ok = false;  // lifecycle record for a job we never saw submitted
            } else if (e.kind == jkind::kStart) {
                it->second.state = JobState::kRunning;
            } else if (e.kind == jkind::kDone) {
                it->second.state = JobState::kDone;
                it->second.outcome.best_fitness =
                    static_cast<std::uint16_t>(e.u64("best_fitness"));
                it->second.outcome.best_candidate =
                    static_cast<std::uint16_t>(e.u64("best_candidate"));
                it->second.outcome.generations =
                    static_cast<std::uint32_t>(e.u64("generations"));
                it->second.outcome.evaluations = e.u64("evaluations");
                it->second.outcome.rollbacks = static_cast<unsigned>(e.u64("rollbacks"));
                it->second.outcome.retries = static_cast<unsigned>(e.u64("retries"));
                if (const auto* s = e.find("status"))
                    if (const auto* str = std::get_if<std::string>(s))
                        it->second.outcome.status = *str;
            } else if (e.kind == jkind::kCancel) {
                it->second.state = JobState::kCancelled;
            } else if (e.kind == jkind::kExpire) {
                it->second.state = JobState::kExpired;
            } else if (e.kind == jkind::kFail) {
                it->second.state = JobState::kFailed;
                if (const auto* s = e.find("error"))
                    if (const auto* str = std::get_if<std::string>(s))
                        it->second.error = *str;
            } else {
                ok = false;  // unknown journal kind
            }
        }
        if (!ok) ++out.lines_skipped;
    }

    for (auto& [id, rec] : jobs) {
        if (rec.state == JobState::kQueued || rec.state == JobState::kRunning) {
            rec.state = JobState::kQueued;  // interrupted mid-run: re-run from the spec
            out.pending.push_back(std::move(rec));
        } else {
            out.terminal.push_back(std::move(rec));
        }
    }
    return out;
}

}  // namespace gaip::service
