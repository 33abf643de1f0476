#include "service/job.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

namespace gaip::service {

fitness::FitnessId fitness_by_name(const std::string& name) {
    for (std::size_t i = 0; i < fitness::kNumFitnessIds; ++i) {
        const auto id = static_cast<fitness::FitnessId>(i);
        if (fitness::fitness_name(id) == name) return id;
    }
    // Numeric ids are accepted too (the 3-bit fitfunc_select view).
    if (!name.empty() && name.find_first_not_of("0123456789") == std::string::npos) {
        const unsigned long v = std::strtoul(name.c_str(), nullptr, 10);  // saturates
        if (v < fitness::kNumFitnessIds) return static_cast<fitness::FitnessId>(v);
    }
    throw ProtocolError(err::kBadField, "unknown fitness function '" + name + "'");
}

namespace {

core::Substrate backend_by_name(const std::string& name) {
    if (const std::optional<core::Substrate> s = core::parse_substrate(name)) return *s;
    throw ProtocolError(err::kBadField,
                        "unknown backend '" + name + "' (rtl|behavioral|gates)");
}

island::Topology topology_by_name(const std::string& name) {
    if (name == "ring") return island::Topology::kRing;
    if (name == "star") return island::Topology::kStar;
    throw ProtocolError(err::kBadField, "unknown topology '" + name + "' (ring|star)");
}

island::ReplacePolicy policy_by_name(const std::string& name) {
    if (name == "worst") return island::ReplacePolicy::kWorst;
    if (name == "random") return island::ReplacePolicy::kRandom;
    throw ProtocolError(err::kBadField, "unknown policy '" + name + "' (worst|random)");
}

/// The seven fields both spec serializers start with.
void add_job_fields(Frame& f, const JobSpec& spec) {
    f.add("fitness", fitness::fitness_name(spec.fn));
    f.add("backend", core::substrate_name(spec.backend));
    f.add("pop", std::uint64_t{spec.params.pop_size});
    f.add("gens", std::uint64_t{spec.params.n_gens});
    f.add("xover", std::uint64_t{spec.params.xover_threshold});
    f.add("mut", std::uint64_t{spec.params.mut_threshold});
    f.add("seed", std::uint64_t{spec.params.seed});
}

}  // namespace

std::span<const SubmitField> submit_schema() {
    using K = FieldKind;
    static constexpr SubmitField kFields[] = {
        {"fitness", K::kName, true},      {"backend", K::kName, false},
        {"pop", K::kNumber, true},        {"gens", K::kNumber, true},
        {"xover", K::kNumber, true},      {"mut", K::kNumber, true},
        {"seed", K::kNumber, true},       {"words", K::kNumber, false},
        {"islands", K::kNumber, false},   {"topology", K::kName, false},
        {"interval", K::kNumber, false},  {"count", K::kNumber, false},
        {"policy", K::kName, false},      {"mig_seed", K::kNumber, false},
        {"supervise", K::kSwitch, false}, {"deadline_ms", K::kNumber, false},
    };
    return kFields;
}

core::GaParameters handshake_parameters(const Frame& f) {
    const core::GaParameters def{};
    core::GaParameters p;
    p.pop_size = core::clamp_pop_size(static_cast<std::uint32_t>(f.u64("pop", def.pop_size)));
    p.n_gens = static_cast<std::uint32_t>(f.u64("gens", def.n_gens) & 0xFFFFFFFFull);
    p.xover_threshold = static_cast<std::uint8_t>(f.u64("xover", def.xover_threshold) & 0xF);
    p.mut_threshold = static_cast<std::uint8_t>(f.u64("mut", def.mut_threshold) & 0xF);
    p.seed = static_cast<std::uint16_t>(f.u64("seed", def.seed) & 0xFFFF);
    return p;
}

JobSpec parse_job_spec(const Frame& f) {
    // Strict: a key outside the schema is kUnknownField, so a typo can
    // never silently run a default job.
    const std::span<const SubmitField> schema = submit_schema();
    for (const trace::Field& fd : f.fields)
        if (std::none_of(schema.begin(), schema.end(),
                         [&](const SubmitField& sf) { return fd.key == sf.key; }))
            throw ProtocolError(err::kUnknownField, "unknown field '" + fd.key + "'");

    JobSpec s;
    s.fn = fitness_by_name(f.str("fitness", fitness::fitness_name(s.fn)));
    s.backend = backend_by_name(f.str("backend", "gates"));

    // Register-path values: identical clamps to the init handshake
    // (core::resolve_parameters, preset 0).
    s.params = core::resolve_parameters(0, handshake_parameters(f));

    // Structural values: no register analog, reject instead of clamping.
    const std::uint64_t words = f.u64("words", 0);
    if (words != 0 && words != 1 && words != 2 && words != 4 && words != 8)
        throw ProtocolError(err::kBadField, "words wants 0 (auto), 1, 2, 4 or 8");
    s.words = static_cast<unsigned>(words);
    const std::uint64_t islands = f.u64("islands", 0);
    if (islands > 64)
        throw ProtocolError(err::kBadField, "islands wants 0 (single engine) .. 64");
    s.islands = static_cast<unsigned>(islands);
    s.topology = topology_by_name(f.str("topology", "ring"));

    // Migration extension registers 6/7: raw values carried verbatim; the
    // island layer applies the uniform decode + clamp on every substrate.
    s.migration.interval = static_cast<std::uint16_t>(f.u64("interval", 0) & 0xFFFF);
    s.migration.count = static_cast<std::uint16_t>(f.u64("count", 1) & 0xFFFF);
    s.migration.policy = policy_by_name(f.str("policy", "worst"));
    s.migration.mig_seed =
        static_cast<std::uint16_t>(f.u64("mig_seed", island::MigrationConfig{}.mig_seed) & 0xFFFF);

    const std::uint64_t supervise = f.u64("supervise", 0);
    if (supervise > 1) throw ProtocolError(err::kBadField, "supervise wants 0 or 1");
    s.supervise = supervise != 0;
    s.deadline_ms = f.u64("deadline_ms", 0);

    // The supervised ensemble's checkpoint/rollback machinery is the
    // RT-level scan-chain path (island/supervised.hpp).
    if (s.supervise && s.islands > 0 && s.backend != core::Substrate::kRtl)
        throw ProtocolError(err::kBadField,
                            "supervised island jobs require backend 'rtl'");
    return s;
}

void add_raw_spec_fields(Frame& f, const JobSpec& spec) {
    add_job_fields(f, spec);
    f.add("words", std::uint64_t{spec.words});
    f.add("islands", std::uint64_t{spec.islands});
    f.add("topology", island::topology_name(spec.topology));
    f.add("interval", std::uint64_t{spec.migration.interval});
    f.add("count", std::uint64_t{spec.migration.count});
    f.add("policy", island::policy_name(spec.migration.policy));
    f.add("mig_seed", std::uint64_t{spec.migration.mig_seed});
    f.add("supervise", std::uint64_t{spec.supervise});
    f.add("deadline_ms", spec.deadline_ms);
}

void add_spec_fields(Frame& f, const JobSpec& spec) {
    add_job_fields(f, spec);
    if (spec.words != 0) f.add("words", std::uint64_t{spec.words});
    if (spec.islands != 0) {
        f.add("islands", std::uint64_t{spec.islands});
        f.add("topology", island::topology_name(spec.topology));
        // Echo the EFFECTIVE migration config the island layer runs.
        const island::MigrationConfig eff =
            island::effective_migration(spec.migration, spec.params.pop_size);
        f.add("interval", std::uint64_t{eff.interval});
        f.add("count", std::uint64_t{eff.count});
        f.add("policy", island::policy_name(eff.policy));
    }
    if (spec.supervise) f.add("supervise", std::uint64_t{1});
    if (spec.deadline_ms != 0) f.add("deadline_ms", spec.deadline_ms);
}

Frame job_frame(const JobRecord& rec) {
    Frame f("job");
    f.add("ok", std::uint64_t{1});
    f.add("id", rec.id);
    f.add("state", job_state_name(rec.state));
    add_spec_fields(f, rec.spec);
    if (rec.state == JobState::kDone) {
        f.add("best_fitness", std::uint64_t{rec.outcome.best_fitness});
        f.add("best_candidate", std::uint64_t{rec.outcome.best_candidate});
        f.add("generations", std::uint64_t{rec.outcome.generations});
        f.add("evaluations", rec.outcome.evaluations);
        if (!rec.outcome.status.empty()) f.add("status", rec.outcome.status);
        if (rec.outcome.rollbacks != 0) f.add("rollbacks", std::uint64_t{rec.outcome.rollbacks});
        if (rec.outcome.retries != 0) f.add("retries", std::uint64_t{rec.outcome.retries});
    }
    if (!rec.error.empty()) f.add("error", rec.error);
    if (rec.state != JobState::kQueued) {
        const auto ms = [](Clock::duration d) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(d).count());
        };
        if (rec.finished != Clock::time_point{})
            f.add("run_ms", ms(rec.finished - rec.started));
    }
    return f;
}

}  // namespace gaip::service
