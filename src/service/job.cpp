#include "service/job.hpp"

#include <optional>
#include <set>

namespace gaip::service {

fitness::FitnessId fitness_by_name(const std::string& name) {
    for (std::size_t i = 0; i < fitness::kNumFitnessIds; ++i) {
        const auto id = static_cast<fitness::FitnessId>(i);
        if (fitness::fitness_name(id) == name) return id;
    }
    // Numeric ids are accepted too (the 3-bit fitfunc_select view).
    if (!name.empty() && name.find_first_not_of("0123456789") == std::string::npos) {
        const unsigned long v = std::stoul(name);
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

/// The submit request schema. Strict: anything else is kUnknownField, so a
/// typo can never silently run a default job.
const std::set<std::string>& known_fields() {
    static const std::set<std::string> k = {
        "fitness", "pop",      "gens",     "xover",  "mut",      "seed",
        "backend", "words",    "islands",  "topology", "interval", "count",
        "policy",  "mig_seed", "supervise", "deadline_ms",
    };
    return k;
}

}  // namespace

JobSpec parse_job_spec(const Frame& f) {
    for (const trace::Field& fd : f.fields)
        if (known_fields().count(fd.key) == 0)
            throw ProtocolError(err::kUnknownField, "unknown field '" + fd.key + "'");

    JobSpec s;
    s.fn = fitness_by_name(f.str("fitness", fitness::fitness_name(s.fn)));
    s.backend = backend_by_name(f.str("backend", "gates"));

    // Register-path values: identical clamps to the init handshake
    // (core::resolve_parameters, preset 0).
    core::GaParameters user;
    user.pop_size = core::clamp_pop_size(
        static_cast<std::uint32_t>(f.u64("pop", core::GaParameters{}.pop_size)));
    const std::uint64_t gens = f.u64("gens", core::GaParameters{}.n_gens);
    user.n_gens = static_cast<std::uint32_t>(gens & 0xFFFFFFFFull);  // 2 x 16-bit registers
    user.xover_threshold =
        static_cast<std::uint8_t>(f.u64("xover", core::GaParameters{}.xover_threshold));
    user.mut_threshold =
        static_cast<std::uint8_t>(f.u64("mut", core::GaParameters{}.mut_threshold));
    user.seed = static_cast<std::uint16_t>(f.u64("seed", core::GaParameters{}.seed) & 0xFFFF);
    s.params = core::resolve_parameters(0, user);

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

void add_spec_fields(Frame& f, const JobSpec& spec) {
    f.add("fitness", fitness::fitness_name(spec.fn));
    f.add("backend", core::substrate_name(spec.backend));
    f.add("pop", std::uint64_t{spec.params.pop_size});
    f.add("gens", std::uint64_t{spec.params.n_gens});
    f.add("xover", std::uint64_t{spec.params.xover_threshold});
    f.add("mut", std::uint64_t{spec.params.mut_threshold});
    f.add("seed", std::uint64_t{spec.params.seed});
    if (spec.words != 0) f.add("words", std::uint64_t{spec.words});
    if (spec.islands != 0) {
        f.add("islands", std::uint64_t{spec.islands});
        f.add("topology", island::topology_name(spec.topology));
        // Echo the EFFECTIVE migration config (register decode + clamp
        // against the island subpopulation size).
        const island::MigrationConfig eff = island::clamp_migration(
            island::decode_registers(spec.migration.interval,
                                     island::pack_count_policy(spec.migration)),
            spec.params.pop_size);
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
