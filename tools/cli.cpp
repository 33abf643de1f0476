#include "tools/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "prng/rng_module.hpp"

namespace gaip::cli {

namespace {

/// The flag of a submit-schema key: --key with '-' for '_'.
std::string flag_of(const char* key) {
    std::string flag = std::string("--") + key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

}  // namespace

bool parse_unsigned(const std::string& s, std::uint64_t& out) {
    // strtoull alone would take blanks, a sign (wrapping "-1" to 2^64-1)
    // and a trailing tail.
    if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) return false;
    errno = 0;
    char* end = nullptr;
    out = std::strtoull(s.c_str(), &end, 0);
    return errno == 0 && end == s.c_str() + s.size();
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = s.find(',', pos);
        const std::string item = s.substr(pos, comma - pos);
        if (!item.empty()) out.push_back(item);
        if (comma == std::string::npos) return out;
        pos = comma + 1;
    }
}

void require_writable(const std::string& path, const char* what) {
    if (!std::ofstream(path, std::ios::app))
        throw UsageError("cannot open " + std::string(what) + " '" + path + "' for writing");
}

std::string Args::value() {
    if (at_ >= argc_) throw UsageError(flag_ + " needs a value");
    return argv_[at_++];
}

std::uint64_t Args::number(std::uint64_t min, std::uint64_t max) {
    const std::string s = value();
    std::uint64_t v = 0;
    if (!parse_unsigned(s, v)) throw UsageError(flag_ + " wants a number, got '" + s + "'");
    if (v < min || v > max) {
        const std::string range = max == kNoMax
                                      ? ">= " + std::to_string(min)
                                      : "in " + std::to_string(min) + ".." + std::to_string(max);
        throw UsageError(flag_ + " wants a number " + range + ", got '" + s + "'");
    }
    return v;
}

double Args::real() {
    const std::string s = value();
    const bool digit = !s.empty() && (std::isdigit(static_cast<unsigned char>(s[0])) != 0 ||
                                      s[0] == '.');
    char* end = nullptr;
    const double v = digit ? std::strtod(s.c_str(), &end) : 0.0;
    if (!digit || end != s.c_str() + s.size() || !std::isfinite(v))
        throw UsageError(flag_ + " wants a number, got '" + s + "'");
    return v;
}

fault::FaultSite Args::flip() {
    const std::string s = value();
    const std::size_t c1 = s.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : s.find(':', c1 + 1);
    std::uint64_t bit = 0, cyc = 0;
    if (c2 == std::string::npos || !parse_unsigned(s.substr(c1 + 1, c2 - c1 - 1), bit) ||
        !parse_unsigned(s.substr(c2 + 1), cyc))
        throw UsageError(flag_ + " wants REG:BIT:CYCLE");
    return fault::FaultSite{s.substr(0, c1), static_cast<unsigned>(bit), cyc};
}

void Args::unknown() const { throw UsageError("unknown option '" + flag_ + "'"); }

JobFlags JobFlags::local_defaults() {
    service::JobSpec spec;
    spec.params = {.pop_size = 32, .n_gens = 32, .xover_threshold = 10, .mut_threshold = 1,
                   .seed = 0x2961};
    return JobFlags{service::submit_frame(spec), true};
}

JobFlags JobFlags::submit_defaults() {
    JobFlags job = local_defaults();
    const auto schema = service::submit_schema();
    std::erase_if(job.frame.fields, [&](const trace::Field& fd) {
        return std::none_of(schema.begin(), schema.end(), [&](const service::SubmitField& f) {
            return f.core && fd.key == f.key;
        });
    });
    job.core_only = false;
    return job;
}

bool JobFlags::take(Args& args) {
    for (const service::SubmitField& field : service::submit_schema()) {
        if (args.flag() != flag_of(field.key) || (core_only && !field.core)) continue;
        trace::Value v;
        switch (field.kind) {
            case service::FieldKind::kNumber: v = args.number(); break;
            case service::FieldKind::kName: v = args.value(); break;
            case service::FieldKind::kSwitch: v = std::uint64_t{1}; break;
        }
        for (trace::Field& fd : frame.fields)
            if (fd.key == field.key) {
                fd.value = std::move(v);
                return true;
            }
        frame.fields.push_back({field.key, std::move(v)});
        return true;
    }
    return false;
}

service::JobSpec JobFlags::spec() const {
    try {
        return service::parse_job_spec(frame);
    } catch (const service::ProtocolError& e) {
        throw UsageError(e.what());
    }
}

std::string job_flag_help(const JobFlags& job, std::size_t indent, std::size_t column) {
    struct Doc {
        const char* key;
        const char* meta;
        std::string text;
    };
    std::string names;
    for (std::size_t id = 0; id < fitness::kNumFitnessIds; ++id)
        names += fitness::fitness_name(static_cast<fitness::FitnessId>(id)) + ' ';
    const Doc docs[] = {
        {"fitness", "NAME", names.substr(0, names.size() - 1) + ", or id 0..7"},
        {"backend", "B", "substrate: rtl | behavioral | gates"},
        {"pop", "N", "population size 2..128"},
        {"gens", "N", "generations"},
        {"xover", "T", "crossover threshold 0..15, rate T/16"},
        {"mut", "T", "mutation threshold 0..15, rate T/16"},
        {"seed", "S", "RNG seed, decimal or 0x hex"},
        {"words", "W", "gate lane-block width 0 (auto), 1, 2, 4 or 8"},
        {"islands", "N", "islands 0..64, 0 = single engine"},
        {"topology", "T", "island topology: ring | star"},
        {"interval", "G", "generations between migrations, 0 = never"},
        {"count", "N", "emigrants per island and migration"},
        {"policy", "P", "replacement policy: worst | random"},
        {"mig_seed", "S", "migration RNG seed"},
        {"supervise", "", "run under the mission supervisor"},
        {"deadline_ms", "N", "wall deadline from submit in ms, 0 = none"},
    };
    service::Frame defaults;
    service::add_raw_spec_fields(defaults, job.spec());
    std::string out;
    for (const service::SubmitField& field : service::submit_schema()) {
        if (job.core_only && !field.core) continue;
        const Doc& doc = *std::find_if(std::begin(docs), std::end(docs), [&](const Doc& d) {
            return std::string_view(d.key) == field.key;
        });
        std::string line = std::string(indent, ' ') + flag_of(field.key);
        if (*doc.meta != '\0') line += std::string(" ") + doc.meta;
        line.resize(std::max(column, line.size() + 1), ' ');
        line += doc.text;
        if (field.kind == service::FieldKind::kName) {
            line += " (default " + defaults.str(field.key) + ")";
        } else if (field.kind == service::FieldKind::kNumber) {
            const std::uint64_t v = defaults.u64(field.key);
            char seed[24];  // seeds read best in hex
            std::snprintf(seed, sizeof seed, "0x%llX", static_cast<unsigned long long>(v));
            line += " (default " +
                    (std::string_view(field.key).ends_with("seed") ? seed : std::to_string(v)) +
                    ")";
        }
        out += line + '\n';
    }
    return out;
}

core::GaParameters run_parameters(std::uint8_t preset, const core::GaParameters& handshake) {
    core::GaParameters p = core::resolve_parameters(preset, handshake);
    if (preset != 0) p.seed = prng::kPresetSeeds[preset - 1];
    return p;
}

int run_on_daemon(const char* tool, const std::string& socket, const service::JobSpec& spec,
                  const std::function<int(const service::Frame&)>& render,
                  const std::function<void(const trace::TraceEvent&)>& on_event) {
    try {
        service::RetryPolicy policy;
        policy.attempts = 3;  // backoff dial keeps a dead daemon fast to diagnose
        service::Client client = service::Client::dial(socket, policy);
        return render(client.run_job(spec, on_event));
    } catch (const service::ConnectError& e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 4;
    } catch (const service::MalformedResponse& e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        return 5;
    }
}

}  // namespace gaip::cli
