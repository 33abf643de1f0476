// gacli — command-line driver for the GA IP core model.
//
// Runs the full cycle-level system (or the fast behavioral model) on one of
// the built-in fitness functions with user-chosen GA parameters, and can
// dump per-generation convergence CSV and a VCD waveform.
//
//   gacli --fitness mBF6_2 --pop 64 --gens 64 --xover 10 --mut 1 --seed 0x061F
//   gacli --fitness mShubert2D --preset 2
//   gacli --fitness OneMax --behavioral --csv out.csv
//
// Exit status: 0 on success, 1 on bad arguments or a failed run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"
#include "fitness/rom_builder.hpp"
#include "service/client.hpp"
#include "system/ga_system.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace gaip;

struct Options {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    core::GaParameters params{};
    std::uint8_t preset = 0;
    prng::RngKind rng = prng::RngKind::kCellularAutomaton;
    bool external = false;
    unsigned latency = 24;
    bool behavioral = false;
    bool gate_level = false;
    bool quiet = false;
    unsigned runs = 1;
    std::string csv_path;
    std::string vcd_path;
    std::string daemon_socket;
};

const std::map<std::string, fitness::FitnessId>& fitness_by_name() {
    static const std::map<std::string, fitness::FitnessId> m = {
        {"BF6", fitness::FitnessId::kBf6},
        {"F2", fitness::FitnessId::kF2},
        {"F3", fitness::FitnessId::kF3},
        {"mBF6_2", fitness::FitnessId::kMBf6_2},
        {"mBF7_2", fitness::FitnessId::kMBf7_2},
        {"mShubert2D", fitness::FitnessId::kMShubert2D},
        {"OneMax", fitness::FitnessId::kOneMax},
        {"RoyalRoad", fitness::FitnessId::kRoyalRoad},
    };
    return m;
}

void usage() {
    std::printf(
        "usage: gacli [options]\n"
        "  --fitness NAME   BF6 F2 F3 mBF6_2 mBF7_2 mShubert2D OneMax RoyalRoad\n"
        "  --pop N          population size (2..128, default 32)\n"
        "  --gens N         generations (default 32)\n"
        "  --xover T        crossover threshold 0..15 (rate = T/16, default 10)\n"
        "  --mut T          mutation threshold 0..15 (rate = T/16, default 1)\n"
        "  --seed S         RNG seed (decimal or 0x hex, default 0x2961)\n"
        "  --preset M       preset mode 1..3 (Table IV; overrides parameters)\n"
        "  --rng KIND       ca | lfsr | xorshift | weaklcg (default ca)\n"
        "  --external       serve fitness through the external FEM ports\n"
        "  --latency N      external FEM round-trip cycles (default 24)\n"
        "  --behavioral     run the untimed behavioral model (fast, bit-exact)\n"
        "  --gate-level     run the fully gate-level GA module (slow, bit-exact)\n"
        "  --csv PATH       write per-generation best/avg fitness CSV\n"
        "  --vcd PATH       dump a VCD waveform of the GA module (RTL only)\n"
        "  --runs N         repeat with N derived seeds; report summary stats\n"
        "  --daemon SOCKET  run the job through a gaipd daemon (thin client)\n"
        "  --quiet          print only the result line\n");
}

bool parse_u32(const char* s, std::uint32_t& out) {
    try {
        out = static_cast<std::uint32_t>(std::stoul(s, nullptr, 0));
        return true;
    } catch (...) {
        return false;
    }
}

bool parse(int argc, char** argv, Options& opt) {
    opt.params = {.pop_size = 32, .n_gens = 32, .xover_threshold = 10, .mut_threshold = 1,
                  .seed = 0x2961};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gacli: %s needs a value\n", a.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        std::uint32_t v = 0;
        if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (a == "--fitness") {
            const char* s = need_value();
            if (s == nullptr) return false;
            const auto it = fitness_by_name().find(s);
            if (it == fitness_by_name().end()) {
                std::fprintf(stderr, "gacli: unknown fitness '%s'\n", s);
                return false;
            }
            opt.fn = it->second;
        } else if (a == "--pop") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) return false;
            opt.params.pop_size = core::clamp_pop_size(v);
        } else if (a == "--gens") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) return false;
            opt.params.n_gens = v;
        } else if (a == "--xover") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) return false;
            opt.params.xover_threshold = static_cast<std::uint8_t>(v & 0xF);
        } else if (a == "--mut") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) return false;
            opt.params.mut_threshold = static_cast<std::uint8_t>(v & 0xF);
        } else if (a == "--seed") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) return false;
            opt.params.seed = static_cast<std::uint16_t>(v);
        } else if (a == "--preset") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v) || v > 3) return false;
            opt.preset = static_cast<std::uint8_t>(v);
        } else if (a == "--rng") {
            const char* s = need_value();
            if (s == nullptr) return false;
            if (std::strcmp(s, "ca") == 0) opt.rng = prng::RngKind::kCellularAutomaton;
            else if (std::strcmp(s, "lfsr") == 0) opt.rng = prng::RngKind::kLfsr;
            else if (std::strcmp(s, "xorshift") == 0) opt.rng = prng::RngKind::kXorShift;
            else if (std::strcmp(s, "weaklcg") == 0) opt.rng = prng::RngKind::kWeakLcg;
            else {
                std::fprintf(stderr, "gacli: unknown rng '%s'\n", s);
                return false;
            }
        } else if (a == "--external") {
            opt.external = true;
        } else if (a == "--latency") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) return false;
            opt.latency = v;
        } else if (a == "--behavioral") {
            opt.behavioral = true;
        } else if (a == "--gate-level") {
            opt.gate_level = true;
        } else if (a == "--csv") {
            const char* s = need_value();
            if (s == nullptr) return false;
            opt.csv_path = s;
        } else if (a == "--vcd") {
            const char* s = need_value();
            if (s == nullptr) return false;
            opt.vcd_path = s;
        } else if (a == "--runs") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v) || v == 0) return false;
            opt.runs = v;
        } else if (a == "--daemon") {
            const char* s = need_value();
            if (s == nullptr) return false;
            opt.daemon_socket = s;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else {
            std::fprintf(stderr, "gacli: unknown option '%s'\n", a.c_str());
            usage();
            return false;
        }
    }
    return true;
}

void write_csv(const std::string& path, const core::RunResult& r) {
    std::ofstream f(path);
    f << "generation,best_fitness,avg_fitness\n";
    for (const auto& s : r.history) {
        f << s.gen << ',' << s.best_fit << ',' << s.mean_fitness() << '\n';
    }
}

}  // namespace

namespace {

int run_summary(const Options& opt) {
    // Multi-run mode: derive one seed per run from the base seed with the
    // CA itself, run the behavioral engine (bit-exact with the RTL), and
    // print summary statistics.
    core::RngState seeder(opt.params.seed);
    std::vector<double> bests;
    std::uint16_t best_cand = 0;
    std::uint16_t best_fit = 0;
    for (unsigned i = 0; i < opt.runs; ++i) {
        core::GaParameters p = core::resolve_parameters(opt.preset, opt.params);
        if (opt.preset != 0) p.seed = prng::kPresetSeeds[opt.preset - 1];
        p.seed = i == 0 ? p.seed : seeder.next16();
        const core::RunResult r =
            core::run_behavioral_ga(p, core::rom_fitness(opt.fn), opt.rng, false);
        bests.push_back(r.best_fitness);
        if (r.best_fitness > best_fit) {
            best_fit = r.best_fitness;
            best_cand = r.best_candidate;
        }
    }
    const util::Summary s = util::summarize(bests);
    const auto opt_info = fitness::grid_optimum(opt.fn);
    std::printf("%s over %u runs: mean=%.1f stddev=%.1f min=%.0f max=%.0f"
                " (optimum %u)  best candidate 0x%04X\n",
                fitness::fitness_name(opt.fn).c_str(), opt.runs, s.mean, s.stddev, s.min,
                s.max, opt_info.best_value, best_cand);
    return 0;
}

// Thin-client mode: ship the job to a gaipd daemon and render its final
// status frame like a local run. Exit codes follow the service contract
// (4 = cannot connect, 5 = malformed response, 1 = job/remote error).
int run_daemon(const Options& opt) {
    if (opt.runs > 1 || opt.external || !opt.csv_path.empty() || !opt.vcd_path.empty()) {
        std::fprintf(stderr,
                     "gacli: --daemon runs plain single jobs only "
                     "(no --runs/--external/--csv/--vcd)\n");
        return 1;
    }
    try {
        service::JobSpec spec;
        spec.fn = opt.fn;
        spec.params = core::resolve_parameters(opt.preset, opt.params);
        if (opt.preset != 0) spec.params.seed = prng::kPresetSeeds[opt.preset - 1];
        spec.backend = opt.behavioral    ? service::JobBackend::kBehavioral
                       : opt.gate_level ? service::JobBackend::kGates
                                        : service::JobBackend::kRtl;
        service::RetryPolicy policy;
        policy.attempts = 3;  // backoff dial keeps a dead daemon fast to diagnose
        service::Client client = service::Client::dial(opt.daemon_socket, policy);
        const service::Frame res = client.run_job(spec);
        const auto opt_info = fitness::grid_optimum(opt.fn);
        const std::uint64_t best = res.u64("best_fitness");
        std::printf("%s best=%llu (optimum %u, %.2f%%) candidate=0x%04llX evaluations=%llu"
                    " [daemon job %llu, %s]\n",
                    fitness::fitness_name(opt.fn).c_str(),
                    static_cast<unsigned long long>(best), opt_info.best_value,
                    100.0 * static_cast<double>(best) /
                        std::max<unsigned>(1, opt_info.best_value),
                    static_cast<unsigned long long>(res.u64("best_candidate")),
                    static_cast<unsigned long long>(res.u64("evaluations")),
                    static_cast<unsigned long long>(res.u64("id")),
                    service::job_backend_name(spec.backend));
        return 0;
    } catch (const service::ConnectError& e) {
        std::fprintf(stderr, "gacli: %s\n", e.what());
        return 4;
    } catch (const service::MalformedResponse& e) {
        std::fprintf(stderr, "gacli: %s\n", e.what());
        return 5;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gacli: %s\n", e.what());
        return 1;
    }
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse(argc, argv, opt)) return 1;
    if (!opt.daemon_socket.empty()) return run_daemon(opt);

    try {
        if (opt.runs > 1) return run_summary(opt);

        core::RunResult result;
        double hw_ms = -1.0;

        if (opt.behavioral) {
            const core::GaParameters eff = core::resolve_parameters(opt.preset, opt.params);
            core::GaParameters p = eff;
            if (opt.preset != 0) p.seed = prng::kPresetSeeds[opt.preset - 1];
            result = core::run_behavioral_ga(p, core::rom_fitness(opt.fn), opt.rng);
        } else {
            system::GaSystemConfig cfg;
            cfg.params = opt.params;
            cfg.preset = opt.preset;
            cfg.skip_initialization = opt.preset != 0;
            cfg.rng_kind = opt.rng;
            cfg.vcd_path = opt.vcd_path;
            cfg.use_gate_level_core = opt.gate_level;
            if (opt.external) {
                cfg.internal_fems = {};
                cfg.external_fem = opt.fn;
                cfg.external_latency_cycles = opt.latency;
                cfg.fitfunc_select = 4;
            } else {
                cfg.internal_fems = {opt.fn};
            }
            system::GaSystem sys(cfg);
            result = sys.run();
            hw_ms = sys.ga_seconds() * 1e3;
        }

        if (!opt.csv_path.empty()) write_csv(opt.csv_path, result);

        const auto opt_info = fitness::grid_optimum(opt.fn);
        std::printf("%s best=%u (optimum %u, %.2f%%) candidate=0x%04X evaluations=%llu%s\n",
                    fitness::fitness_name(opt.fn).c_str(), result.best_fitness,
                    opt_info.best_value,
                    100.0 * result.best_fitness / std::max<unsigned>(1, opt_info.best_value),
                    result.best_candidate,
                    static_cast<unsigned long long>(result.evaluations),
                    opt.behavioral ? " [behavioral]" : "");
        if (!opt.quiet) {
            if (hw_ms >= 0) std::printf("hardware time: %.3f ms at 50 MHz\n", hw_ms);
            std::printf("convergence: ");
            const std::size_t n = result.history.size();
            for (std::size_t g = 0; g < n; g += std::max<std::size_t>(1, n / 8))
                std::printf("g%zu:%u ", g, result.history[g].best_fit);
            std::printf("\n");
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gacli: %s\n", e.what());
        return 1;
    }
}
