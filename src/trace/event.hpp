// Run-telemetry event model — the structured counterpart of the VCD
// waveform dump. A TraceEvent is one observation of the running system
// (a generation boundary, an init-handshake write, a FEM handshake, a
// fault injection, ...) with a flat ordered field list; sinks consume the
// stream (JSONL file, in-memory buffer, fan-out).
//
// Zero-overhead-when-off contract: nothing in the simulation path touches
// this layer unless a sink is configured — emit sites are guarded by a
// null check on the sink pointer, and the SystemTap module is only
// instantiated when tracing is requested.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gaip::trace {

/// Field payloads. Unsigned integers cover everything the hardware model
/// produces; doubles and strings exist for derived metrics and labels.
using Value = std::variant<std::uint64_t, double, std::string>;

struct Field {
    std::string key;
    Value value;

    friend bool operator==(const Field&, const Field&) = default;
};

/// Well-known event kinds emitted by the system tap and the fault layer.
/// Kinds are open-ended strings; these constants just keep the producers
/// and the CLI/tests in sync.
namespace kind {
inline constexpr const char* kInitWrite = "init_write";      ///< one handshake parameter write
inline constexpr const char* kInitDone = "init_done";        ///< handshake complete
inline constexpr const char* kStart = "start";               ///< start_GA pulse observed
inline constexpr const char* kFemRequest = "fem_request";    ///< fitness_request rose
inline constexpr const char* kFemValue = "fem_value";        ///< fitness_valid rose
inline constexpr const char* kGeneration = "generation";     ///< monitor pulse (one per generation)
inline constexpr const char* kBankSwap = "bank_swap";        ///< population bank toggled
inline constexpr const char* kPreset = "preset";             ///< PRESET pins changed (fallback)
inline constexpr const char* kDone = "done";                 ///< GA_done rose
inline constexpr const char* kFaultInject = "fault_inject";  ///< SEU planted (fault layer)
inline constexpr const char* kDivergence = "divergence";     ///< first cycle differing from golden
// Mission-supervisor decisions (src/supervisor/): every rung of the
// recovery ladder leaves a structured mark in the stream so gaip-trace can
// record/diff supervised runs.
inline constexpr const char* kWatchdogTrip = "watchdog_trip";   ///< cycle budget missed
inline constexpr const char* kSupRetry = "sup_retry";           ///< backoff retry launched
inline constexpr const char* kSupRestart = "sup_restart";       ///< request_restart() recovery
inline constexpr const char* kSupFallback = "sup_fallback";     ///< PRESET fallback engaged
inline constexpr const char* kSupCheckpoint = "sup_checkpoint"; ///< generation checkpoint taken
inline constexpr const char* kSupRollback = "sup_rollback";     ///< retry resumed from checkpoint
inline constexpr const char* kSupVote = "sup_vote";             ///< NMR majority vote tallied
inline constexpr const char* kSupAbort = "sup_abort";           ///< ladder exhausted, structured abort
inline constexpr const char* kSupResult = "sup_result";         ///< final supervised verdict
// Native-codegen JIT backend (src/gates/jit.*): artifact-cache traffic and
// host-compiler invocations, so a campaign's compile overhead is visible
// in the same stream as its simulation events.
inline constexpr const char* kJitCompile = "jit_compile";       ///< artifact built by host compiler
inline constexpr const char* kJitCacheHit = "jit_cache_hit";    ///< artifact reused (memory/disk)
inline constexpr const char* kJitFallback = "jit_fallback";     ///< JIT requested, interpreter used
// Island-model interconnect (src/island/): generation-synchronous barriers
// and the individual migrations the interconnect carries between the
// N cooperating GA engines, plus the per-island recovery decisions the
// supervised ensemble takes on top of the sup_* ladder events.
inline constexpr const char* kIslandBarrier = "island_barrier";    ///< all islands parked at a boundary
inline constexpr const char* kIslandMigrate = "island_migrate";    ///< one emigrant delivered
inline constexpr const char* kIslandStall = "island_stall";        ///< per-island barrier stall tally
inline constexpr const char* kIslandRollback = "island_rollback";  ///< one island rolled back + re-run
inline constexpr const char* kIslandDone = "island_done";          ///< one island finished its run
}  // namespace kind

struct TraceEvent {
    std::string kind;
    std::uint64_t t = 0;      ///< simulation time, ps (0 when the producer is untimed)
    std::uint64_t cycle = 0;  ///< GA-clock cycle count at emission

    std::vector<Field> fields;

    TraceEvent() = default;
    TraceEvent(std::string k, std::uint64_t t_ps, std::uint64_t cyc)
        : kind(std::move(k)), t(t_ps), cycle(cyc) {}

    TraceEvent& add(std::string key, std::uint64_t v) {
        fields.push_back({std::move(key), Value{v}});
        return *this;
    }
    TraceEvent& add(std::string key, double v) {
        fields.push_back({std::move(key), Value{v}});
        return *this;
    }
    TraceEvent& add(std::string key, std::string v) {
        fields.push_back({std::move(key), Value{std::move(v)}});
        return *this;
    }

    const Value* find(std::string_view key) const noexcept {
        for (const Field& f : fields)
            if (f.key == key) return &f.value;
        return nullptr;
    }

    /// Unsigned field lookup with a default (missing or non-integer -> def).
    std::uint64_t u64(std::string_view key, std::uint64_t def = 0) const noexcept {
        const Value* v = find(key);
        if (v == nullptr) return def;
        if (const auto* u = std::get_if<std::uint64_t>(v)) return *u;
        return def;
    }

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Consumer of a telemetry stream. Implementations must tolerate events of
/// unknown kinds (the stream is open-ended by design).
class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void on_event(const TraceEvent& e) = 0;
    virtual void flush() {}
    /// Whether the sink currently wants events. A producer may skip
    /// building them while it does not (SystemTap does); the answer may
    /// change at any time, e.g. when a subscriber attaches to a live job.
    virtual bool wants_events() const { return true; }
};

/// Buffering sink for tests and the diff tooling.
class MemorySink final : public TraceSink {
public:
    void on_event(const TraceEvent& e) override { events_.push_back(e); }

    const std::vector<TraceEvent>& events() const noexcept { return events_; }
    std::vector<TraceEvent> take() { return std::move(events_); }
    void clear() { events_.clear(); }

private:
    std::vector<TraceEvent> events_;
};

/// Fan-out to several sinks (e.g. a JSONL file plus an in-memory buffer).
/// Does not own its children.
class TeeSink final : public TraceSink {
public:
    void add(TraceSink* s) {
        if (s != nullptr) sinks_.push_back(s);
    }
    void on_event(const TraceEvent& e) override {
        for (TraceSink* s : sinks_) s->on_event(e);
    }
    void flush() override {
        for (TraceSink* s : sinks_) s->flush();
    }
    bool wants_events() const override {
        for (const TraceSink* s : sinks_)
            if (s->wants_events()) return true;
        return false;
    }

private:
    std::vector<TraceSink*> sinks_;
};

}  // namespace gaip::trace
