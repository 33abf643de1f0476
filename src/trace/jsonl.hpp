// JSONL serialization of the telemetry stream: one flat JSON object per
// line — `{"kind":"generation","t":123,"cycle":45,"gen":7,...}` — the
// interchange format gaip-trace records, filters, and diffs. The parser
// accepts exactly what the writer produces (flat objects, unsigned /
// double / string values), which is all the tooling needs.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace gaip::trace {

/// Append one event to `out` as a single JSON line (no trailing newline).
/// Encoders that batch lines (stream sinks, file sinks) reuse one buffer.
void append_json_line(std::string& out, const TraceEvent& e);

/// Serialize one event as a single JSON line (no trailing newline); the
/// same bytes append_json_line writes.
std::string to_json_line(const TraceEvent& e);

/// Parse one JSON line back into an event. Throws std::runtime_error on
/// malformed input. Unknown keys become fields; "kind"/"t"/"cycle" map to
/// the envelope members.
TraceEvent from_json_line(const std::string& line);

/// Load a whole .jsonl file (blank lines skipped). Throws on I/O errors or
/// malformed lines (with the 1-based line number in the message).
std::vector<TraceEvent> load_jsonl(const std::string& path);

/// Streaming file sink.
class JsonlSink final : public TraceSink {
public:
    /// Opens `path` for writing; throws std::runtime_error on failure.
    explicit JsonlSink(const std::string& path);

    void on_event(const TraceEvent& e) override;
    void flush() override { out_.flush(); }

    std::uint64_t events_written() const noexcept { return count_; }

private:
    std::ofstream out_;
    std::string line_;  ///< reused encode buffer
    std::uint64_t count_ = 0;
};

}  // namespace gaip::trace
