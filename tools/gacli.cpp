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
#include <fstream>
#include <string>
#include <vector>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"
#include "fitness/rom_builder.hpp"
#include "system/ga_system.hpp"
#include "tools/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace gaip;

struct Options {
    cli::JobFlags job = cli::JobFlags::local_defaults();
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
    std::string local_only;  ///< last flag a daemon job cannot carry
};

void usage() {
    std::printf("usage: gacli [options]\n%s",
                cli::job_flag_help(cli::JobFlags::local_defaults(), 2, 19).c_str());
    std::printf(
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

/// Fills `opt`; false after printing --help. Throws cli::UsageError on a
/// bad command line.
bool parse(int argc, char** argv, Options& opt) {
    cli::Args args(argc, argv, 1);
    while (args.more()) {
        const std::string& a = args.next();
        if (opt.job.take(args)) continue;
        if (a == "--help" || a == "-h") {
            usage();
            return false;
        } else if (a == "--preset") {
            opt.preset = static_cast<std::uint8_t>(args.number(0, 3));
        } else if (a == "--behavioral") {
            opt.behavioral = true;
        } else if (a == "--gate-level") {
            opt.gate_level = true;
        } else if (a == "--runs") {
            opt.runs = static_cast<unsigned>(args.number(1, UINT32_MAX));
            if (opt.runs > 1) opt.local_only = a;
        } else if (a == "--daemon") {
            opt.daemon_socket = args.value();
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else {
            // The rest configure a local run only.
            opt.local_only = a;
            if (a == "--rng") {
                const std::string s = args.value();
                if (s == "ca") opt.rng = prng::RngKind::kCellularAutomaton;
                else if (s == "lfsr") opt.rng = prng::RngKind::kLfsr;
                else if (s == "xorshift") opt.rng = prng::RngKind::kXorShift;
                else if (s == "weaklcg") opt.rng = prng::RngKind::kWeakLcg;
                else throw cli::UsageError("unknown rng '" + s + "'");
            } else if (a == "--external") {
                opt.external = true;
            } else if (a == "--latency") {
                opt.latency = static_cast<unsigned>(args.number(0, UINT32_MAX));
            } else if (a == "--csv") {
                opt.csv_path = args.value();
            } else if (a == "--vcd") {
                opt.vcd_path = args.value();
            } else {
                usage();
                args.unknown();
            }
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

int run_summary(const Options& opt, fitness::FitnessId fn, const core::GaParameters& params) {
    // Multi-run mode: derive one seed per run from the base seed with the
    // CA itself, run the behavioral engine (bit-exact with the RTL), and
    // print summary statistics.
    core::RngState seeder(params.seed);
    std::vector<double> bests;
    std::uint16_t best_cand = 0;
    std::uint16_t best_fit = 0;
    for (unsigned i = 0; i < opt.runs; ++i) {
        core::GaParameters p = cli::run_parameters(opt.preset, params);
        p.seed = i == 0 ? p.seed : seeder.next16();
        const core::RunResult r = core::run_behavioral_ga(p, core::rom_fitness(fn), opt.rng, false);
        bests.push_back(r.best_fitness);
        if (r.best_fitness > best_fit) {
            best_fit = r.best_fitness;
            best_cand = r.best_candidate;
        }
    }
    const util::Summary s = util::summarize(bests);
    const auto opt_info = fitness::grid_optimum(fn);
    std::printf("%s over %u runs: mean=%.1f stddev=%.1f min=%.0f max=%.0f"
                " (optimum %u)  best candidate 0x%04X\n",
                fitness::fitness_name(fn).c_str(), opt.runs, s.mean, s.stddev, s.min, s.max,
                opt_info.best_value, best_cand);
    return 0;
}

// Thin-client mode: ship the job to a gaipd daemon and render its final
// status frame like a local run.
int run_daemon(const Options& opt, service::JobSpec spec, const core::GaParameters& params) {
    if (!opt.local_only.empty()) throw cli::UsageError("--daemon cannot forward " + opt.local_only);
    spec.params = cli::run_parameters(opt.preset, params);
    spec.backend = opt.behavioral   ? core::Substrate::kBehavioral
                   : opt.gate_level ? core::Substrate::kGates
                                    : core::Substrate::kRtl;
    return cli::run_on_daemon("gacli", opt.daemon_socket, spec, [&](const service::Frame& res) {
        const auto opt_info = fitness::grid_optimum(spec.fn);
        const std::uint64_t best = res.u64("best_fitness");
        std::printf("%s best=%llu (optimum %u, %.2f%%) candidate=0x%04llX evaluations=%llu"
                    " [daemon job %llu, %s]\n",
                    fitness::fitness_name(spec.fn).c_str(), static_cast<unsigned long long>(best),
                    opt_info.best_value,
                    100.0 * static_cast<double>(best) / std::max<unsigned>(1, opt_info.best_value),
                    static_cast<unsigned long long>(res.u64("best_candidate")),
                    static_cast<unsigned long long>(res.u64("evaluations")),
                    static_cast<unsigned long long>(res.u64("id")),
                    core::substrate_name(spec.backend));
        return 0;
    });
}

}  // namespace

int main(int argc, char** argv) {
    try {
        Options opt;
        if (!parse(argc, argv, opt)) return 0;
        const service::JobSpec spec = opt.job.spec();
        const core::GaParameters params = opt.job.handshake();
        if (!opt.daemon_socket.empty()) return run_daemon(opt, spec, params);
        if (opt.runs > 1) return run_summary(opt, spec.fn, params);

        core::RunResult result;
        double hw_ms = -1.0;

        if (opt.behavioral) {
            result = core::run_behavioral_ga(cli::run_parameters(opt.preset, params),
                                             core::rom_fitness(spec.fn), opt.rng);
        } else {
            system::GaSystemConfig cfg;
            cfg.params = params;
            cfg.preset = opt.preset;
            cfg.skip_initialization = opt.preset != 0;
            cfg.rng_kind = opt.rng;
            cfg.vcd_path = opt.vcd_path;
            cfg.use_gate_level_core = opt.gate_level;
            if (opt.external) {
                cfg.internal_fems = {};
                cfg.external_fem = spec.fn;
                cfg.external_latency_cycles = opt.latency;
                cfg.fitfunc_select = 4;
            } else {
                cfg.internal_fems = {spec.fn};
            }
            system::GaSystem sys(cfg);
            result = sys.run();
            hw_ms = sys.ga_seconds() * 1e3;
        }

        if (!opt.csv_path.empty()) write_csv(opt.csv_path, result);

        const auto opt_info = fitness::grid_optimum(spec.fn);
        std::printf("%s best=%u (optimum %u, %.2f%%) candidate=0x%04X evaluations=%llu%s\n",
                    fitness::fitness_name(spec.fn).c_str(), result.best_fitness,
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
        // Bad arguments (cli::UsageError) and failed runs alike.
        std::fprintf(stderr, "gacli: %s\n", e.what());
        return 1;
    }
}
