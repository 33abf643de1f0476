// Job model of the service plane: what one `submit` frame describes, how it
// is validated/clamped (same semantics as the init handshake), and the
// lifecycle record the daemon keeps per job.
//
// Lifecycle:
//
//            submit                    worker picks up
//   (reject) <----- [queued] ----------------------------> [running]
//                      |  cancel / deadline past              |
//                      v                                      v
//                 [cancelled] / [expired]      [done] / [failed] / [cancelled] / [expired]
//
// Clamp contract: every value with a hardware-register analog follows the
// register path exactly — pop via core::clamp_pop_size (2..128), the 4-bit
// crossover/mutation thresholds masked, seed 0 remapped to 1, migration
// interval/count as the index-6/7 extension registers (count saturating at
// min(16, pop/2)). Structural values — fitness/backend/topology/policy
// names, lane-word width, island count — have no register analog and
// reject with ProtocolError(bad_field) instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>

#include "core/params.hpp"
#include "core/substrate.hpp"
#include "fitness/functions.hpp"
#include "island/migration.hpp"
#include "service/protocol.hpp"

namespace gaip::service {

/// Old name of core::Substrate (the `backend` field), kept while perfbench/
/// still spells it; the benchmark change of ROADMAP item 7 deletes it.
using JobBackend = core::Substrate;

enum class JobState : std::uint8_t {
    kQueued = 0,
    kRunning,
    kDone,
    kFailed,     ///< structural failure while running (message in JobRecord::error)
    kCancelled,  ///< cancel verb honored
    kExpired,    ///< deadline passed before completion
};

inline const char* job_state_name(JobState s) noexcept {
    switch (s) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kFailed: return "failed";
        case JobState::kCancelled: return "cancelled";
        case JobState::kExpired: return "expired";
    }
    return "?";
}

/// One validated GA job. `params` already carries the EFFECTIVE (clamped)
/// values; `migration` carries the raw register values exactly as the
/// island layer wants them (it applies the same decode+clamp everywhere).
struct JobSpec {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    core::GaParameters params{};
    core::Substrate backend = core::Substrate::kGates;
    unsigned words = 0;    ///< gate lane-block width hint (0/1/2/4/8; 0 = auto)
    unsigned islands = 0;  ///< 0 = single-engine job, >= 1 = island ensemble
    island::Topology topology = island::Topology::kRing;
    island::MigrationConfig migration{};
    bool supervise = false;        ///< run under the mission supervisor
    std::uint64_t deadline_ms = 0; ///< wall deadline from submit (0 = none)

    friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// Value kind of one submit field.
enum class FieldKind : std::uint8_t { kNumber, kName, kSwitch };

/// One field of the submit schema. `core` marks the GA-core parameters
/// (fitness select and the init-handshake registers) that every CLI takes;
/// the others are service-level knobs.
struct SubmitField {
    const char* key;
    FieldKind kind;
    bool core;
};

/// The submit schema: every field a submit frame may carry, in the raw
/// serializer's order. parse_job_spec rejects any other key; the CLIs
/// derive one flag per key (mig_seed -> --mig-seed).
std::span<const SubmitField> submit_schema();

/// Parse + validate a submit frame. Throws ProtocolError(kBadField /
/// kUnknownField); register-analog values clamp silently (see file
/// comment).
JobSpec parse_job_spec(const Frame& f);

/// The GA-core parameters a submit frame programs, as the init handshake
/// writes them: pop clamped, thresholds cut to their 4 register bits, gens
/// and seed to their 32 and 16. Seed 0 stays 0 (the core remaps it);
/// parse_job_spec's params are these through core::resolve_parameters.
core::GaParameters handshake_parameters(const Frame& f);

/// Raw serializer: every schema field of `spec`, always, in schema order,
/// with the migration registers as given. It writes the journal's submit
/// record and the client's submit frame; parse_job_spec reads it back to
/// `spec` exactly.
void add_raw_spec_fields(Frame& f, const JobSpec& spec);

/// Echo a spec's effective values into a response frame (submit ack,
/// status, list rows) — field names match the submit request schema.
void add_spec_fields(Frame& f, const JobSpec& spec);

/// Resolve a fitness name ("OneMax", "mBF6_2", ...; case-sensitive) or a
/// numeric id 0..7. Throws ProtocolError(kBadField) on unknown names.
fitness::FitnessId fitness_by_name(const std::string& name);

/// Final accounting of a finished (or degraded/aborted) job.
struct JobOutcome {
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;   ///< generations actually evolved
    std::uint64_t evaluations = 0;
    unsigned rollbacks = 0;          ///< supervisor checkpoint restores
    unsigned retries = 0;            ///< supervisor retry attempts
    std::string status;              ///< "ok" / "ok-degraded" / "aborted" (supervised)
};

using Clock = std::chrono::steady_clock;

/// What a cancel request achieved (shared by scheduler and client).
enum class CancelOutcome : std::uint8_t { kNotFound, kTooLate, kCancelled };

/// Everything the daemon knows about one job.
struct JobRecord {
    std::uint64_t id = 0;
    JobSpec spec{};
    JobState state = JobState::kQueued;
    std::string error;       ///< set for kFailed
    JobOutcome outcome{};    ///< valid for kDone
    Clock::time_point submitted{};
    Clock::time_point started{};
    Clock::time_point finished{};
};

/// Status/list row: the record rendered as one frame (verb `job`).
Frame job_frame(const JobRecord& rec);

}  // namespace gaip::service
