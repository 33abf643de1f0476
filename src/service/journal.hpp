// Write-ahead job journal of the gaipd service plane: the control-plane
// analog of the supervisor's scan-chain checkpoints. A job's submit record
// is appended to DIR/journal.jsonl as one CRC-tagged JSONL record BEFORE
// the job is queued or acked, and its terminal record BEFORE any client
// can see the terminal state, so a crash (power cut, OOM kill, `kill -9`)
// never silently loses a job:
//
//   * finished jobs are restored as terminal records (re-reportable via
//     `status`/`list`);
//   * queued or interrupted jobs are re-admitted through the normal
//     JobSpec clamp/reject path and re-run — specs fully determine runs,
//     so the recovered results are bit-identical to an uninterrupted run.
//
// Group commit: an append writes its line under the journal lock, then
// either runs the one fdatasync for every line written so far (outside
// that lock) or waits for a flush that started after its write. Every
// append is durable on return; concurrent appenders share one flush.
// The daemon writes j_submit and one terminal record per job; j_start is
// accepted on replay (older journals) but no longer written by gaipd.
//
// Record grammar: the trace-event JSONL line format (kind + flat fields)
// with a trailing `"crc":"xxxxxxxx"` field carrying the CRC-32 of the
// line up to (and excluding) the CRC field itself. Replay skips — and
// counts — any line that is torn (no newline / truncated mid-object),
// fails its CRC, or does not validate as a job record; it never throws
// for a corrupt tail, so a journal damaged mid-append still recovers
// every record before the damage.
//
// Rotation is atomic: the live job set is compacted into DIR/journal.tmp
// (submit + terminal records only), fsync'd, and rename(2)'d over the
// journal, so a crash during rotation leaves either the old or the new
// file, never a hybrid. Append failures (ENOSPC, EIO) degrade the journal
// — counted, reported in `stats`, daemon keeps serving — rather than
// taking the service down.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "service/job.hpp"

namespace gaip::service {

/// Journal record kinds. Every entry must be documented in docs/GAIPD.md —
/// the docs drift test walks kJournalKinds and greps for each name.
namespace jkind {
inline constexpr const char* kSubmit = "j_submit";  ///< job admitted (full spec)
inline constexpr const char* kStart = "j_start";    ///< worker picked the job up (replay only)
inline constexpr const char* kDone = "j_done";      ///< finished (full outcome)
inline constexpr const char* kCancel = "j_cancel";  ///< cancel verb honored
inline constexpr const char* kExpire = "j_expire";  ///< deadline passed
inline constexpr const char* kFail = "j_fail";      ///< engine/structural failure
inline constexpr const char* kRotate = "j_rotate";  ///< compaction header (version, next id)
}  // namespace jkind

inline constexpr const char* kJournalKinds[] = {
    jkind::kSubmit, jkind::kStart, jkind::kDone, jkind::kCancel,
    jkind::kExpire, jkind::kFail,  jkind::kRotate,
};

/// Journal format version carried by every j_rotate header.
inline constexpr std::uint64_t kJournalVersion = 1;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `data` — the tag
/// appended to every journal line.
std::uint32_t crc32(const void* data, std::size_t n) noexcept;

struct JournalStats {
    std::uint64_t records_written = 0;
    std::uint64_t syncs = 0;         ///< fdatasync calls; records_written / syncs = group size
    std::uint64_t write_errors = 0;  ///< failed appends (ENOSPC, EIO, ...)
    std::uint64_t rotations = 0;
    bool degraded = false;  ///< at least one append failed since open/rotate
};

/// Append-only writer. Thread-safe; every append is CRC-tagged, written
/// with an EINTR-safe full-write loop, and group-committed (see file
/// comment): it returns once an fdatasync covering its line has finished,
/// so an acknowledged record survives `kill -9`. Never throws after
/// construction: I/O errors degrade (see JournalStats), they do not crash
/// the daemon.
class Journal {
public:
    /// Creates `dir` if needed and opens dir/journal.jsonl for append.
    /// Throws std::runtime_error when the directory cannot be created or
    /// the journal cannot be opened at all.
    explicit Journal(std::string dir);
    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    void record_submit(const JobRecord& rec);
    /// j_start: no longer written by gaipd, kept for tools and tests.
    void record_start(std::uint64_t id);
    /// Appends the record matching rec.state (j_done / j_cancel /
    /// j_expire / j_fail); no-op for non-terminal states.
    void record_terminal(const JobRecord& rec);

    /// Atomic compaction: rewrite the journal as one j_rotate header plus
    /// submit (+ terminal) records for `live`, then rename over the old
    /// file and reopen. Also the SIGHUP reopen path. Lines appended
    /// concurrently land in the old file and are dropped with it, so
    /// `live` must already cover them (Scheduler::rotate_journal holds
    /// its appends off while it snapshots and rotates).
    void rotate(const std::vector<JobRecord>& live, std::uint64_t next_id);

    JournalStats stats() const;
    const std::string& path() const noexcept { return path_; }
    const std::string& dir() const noexcept { return dir_; }

private:
    void append_line(const std::string& body);  // adds CRC tag + newline, writes, syncs

    std::string dir_;
    std::string path_;
    mutable std::mutex mu_;
    std::condition_variable synced_cv_;  ///< a flush finished
    int fd_ = -1;
    std::uint64_t written_ = 0;  ///< lines written to fd_ (sequence numbers)
    std::uint64_t synced_ = 0;   ///< lines covered by a finished flush
    bool syncing_ = false;       ///< a flush runs outside mu_
    JournalStats stats_{};
};

/// Result of replaying a journal directory.
struct JournalReplay {
    std::vector<JobRecord> terminal;  ///< finished jobs, restorable as-is
    std::vector<JobRecord> pending;   ///< submitted/interrupted — re-admit + re-run
    std::uint64_t max_id = 0;         ///< highest job id seen (id allocation resumes past it)
    std::uint64_t lines_total = 0;
    std::uint64_t lines_skipped = 0;  ///< torn tail, CRC mismatch, unparsable, bad spec
};

/// Replay dir/journal.jsonl. Missing file (or a non-regular file — e.g. a
/// device node after disk-full mitigation games) replays as empty. Specs
/// are re-validated through parse_job_spec (the submit clamp/reject path);
/// records that fail it are skipped and counted, never fatal.
JournalReplay replay_journal(const std::string& dir);

/// The journal's spec serialization, add_raw_spec_fields: every schema
/// field, always, so parse_job_spec(journal record) reconstructs the spec.
inline void add_journal_spec_fields(Frame& f, const JobSpec& spec) {
    add_raw_spec_fields(f, spec);
}

}  // namespace gaip::service
