// gaip-trace — record, filter, and diff run-telemetry streams.
//
//   gaip-trace record --fitness mBF6_2 --pop 64 --gens 64 -o run.jsonl --vcd run.vcd
//   gaip-trace record --backend lanes --fitness OneMax -o lanes.jsonl
//   gaip-trace record --flip best_fit:3:100 -o seu.jsonl
//   gaip-trace filter run.jsonl --kind generation,done --limit 10
//   gaip-trace diff rtl.jsonl lanes.jsonl --ignore rng_draws,crossovers,mutations
//
// `record` replays the full system flow (init handshake, start pulse,
// optimization) on the chosen substrate and streams the telemetry events to
// a JSONL file; `--vcd` additionally dumps the waveform. `--flip reg:bit:c`
// records a faulted run instead: the SEU layer plants the flip and the
// stream gains `fault_inject` and `divergence` events.
//
// `diff` compares two streams structurally (timestamps/cycles ignored
// unless --strict) and reports the first divergence.
//
// Exit status: 0 = success / streams match, 1 = streams differ, 2 = error.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "fault/seu_injector.hpp"
#include "gates/batch_runner.hpp"
#include "gates/jit.hpp"
#include "system/ga_system.hpp"
#include "tools/cli.hpp"
#include "trace/diff.hpp"
#include "trace/event.hpp"
#include "trace/jsonl.hpp"
#include "trace/vcd.hpp"

namespace {

using namespace gaip;

void usage() {
    std::printf(
        "usage: gaip-trace <command> [options]\n"
        "\n"
        "  record   run the GA and stream telemetry to a JSONL file\n"
        "    --fitness NAME     BF6 F2 F3 mBF6_2 mBF7_2 mShubert2D OneMax RoyalRoad\n"
        "    --pop N --gens N   population / generations (defaults 32/32)\n"
        "    --xover T --mut T  crossover / mutation thresholds (0..15)\n"
        "    --seed S           RNG seed (decimal or 0x hex)\n"
        "    --preset M         preset mode 1..3 (overrides parameters)\n"
        "    --backend B        rtl | gates | lanes (default rtl)\n"
        "                       rtl   = RT-level system\n"
        "                       gates = gate-level GA module in the system\n"
        "                       lanes = lane 0 of the 64-lane batched gate sim\n"
        "    --flip REG:BIT:CYC plant an SEU (rtl backend, no --preset; adds fault events)\n"
        "    --daemon SOCKET    record through a gaipd daemon (thin client;\n"
        "                       exit 4 = cannot connect, 5 = malformed response)\n"
        "    -o PATH            output JSONL (default trace.jsonl)\n"
        "    --vcd PATH         also dump a VCD waveform\n"
        "\n"
        "  filter <in.jsonl>  print selected events as JSONL on stdout\n"
        "    --kind K1,K2       keep only these event kinds\n"
        "    --limit N          stop after N events\n"
        "\n"
        "  diff <a.jsonl> <b.jsonl>  first structural divergence, if any\n"
        "    --kind K1,K2       compare only these event kinds\n"
        "    --ignore F1,F2     field keys excluded from comparison\n"
        "    --strict           also compare timestamps and cycle counts\n"
        "\n"
        "exit status: 0 = ok / match, 1 = streams differ, 2 = error\n");
}

struct RecordOptions {
    cli::JobFlags job = cli::JobFlags::local_defaults();
    std::uint8_t preset = 0;
    std::string backend = "rtl";
    std::optional<fault::FaultSite> flip;
    std::string out_path = "trace.jsonl";
    std::string vcd_path;
    std::string daemon_socket;
    std::string local_only;  ///< last flag a daemon job cannot carry
};

int cmd_record(const RecordOptions& opt) {
    const service::JobSpec spec = opt.job.spec();
    const core::GaParameters params = opt.job.handshake();
    cli::require_writable(opt.out_path, "output file");
    if (!opt.vcd_path.empty()) cli::require_writable(opt.vcd_path, "VCD file");
    if (!opt.daemon_socket.empty()) {
        // Thin client: the daemon runs the job and streams its trace events
        // back into the JSONL file, as a local record would have.
        if (!opt.local_only.empty())
            throw cli::UsageError("--daemon cannot forward " + opt.local_only);
        service::JobSpec remote = spec;
        remote.params = cli::run_parameters(opt.preset, params);
        remote.backend = opt.backend == "rtl" ? core::Substrate::kRtl : core::Substrate::kGates;
        trace::JsonlSink sink(opt.out_path);
        const auto render = [&](const service::Frame& res) {
            sink.flush();
            std::printf("daemon job %llu (%s): best=%llu cand=%llu, %llu events -> %s\n",
                        static_cast<unsigned long long>(res.u64("id")), opt.backend.c_str(),
                        static_cast<unsigned long long>(res.u64("best_fitness")),
                        static_cast<unsigned long long>(res.u64("best_candidate")),
                        static_cast<unsigned long long>(sink.events_written()),
                        opt.out_path.c_str());
            return 0;
        };
        return cli::run_on_daemon("gaip-trace", opt.daemon_socket, remote, render,
                                  [&](const trace::TraceEvent& e) { sink.on_event(e); });
    }
    if (opt.flip.has_value()) {
        if (opt.backend != "rtl") throw cli::UsageError("--flip requires the rtl backend");
        if (opt.preset != 0) throw cli::UsageError("--flip does not support --preset");
        fault::InjectorConfig icfg;
        icfg.fn = spec.fn;
        icfg.params = params;
        fault::SeuInjector injector(icfg);
        trace::JsonlSink sink(opt.out_path);
        injector.set_sink(&sink);
        const fault::FaultRecord rec =
            injector.run_rtl(*opt.flip, fault::InjectBackend::kPoke);
        sink.flush();
        std::printf("flip %s:%u @cycle %llu -> %s (best=%u cand=%u), %llu events -> %s\n",
                    rec.site.reg.c_str(), rec.site.bit,
                    static_cast<unsigned long long>(rec.inject_cycle),
                    fault::outcome_name(rec.outcome), rec.best_fitness, rec.best_candidate,
                    static_cast<unsigned long long>(sink.events_written()),
                    opt.out_path.c_str());
        return 0;
    }

    if (opt.backend == "lanes") {
        trace::JsonlSink sink(opt.out_path);
        // The compiled engines are built inside the runner constructor, so
        // the JIT telemetry sink (jit_compile / jit_cache_hit /
        // jit_fallback under GAIP_JIT=1) must be attached first; detached
        // before the sink dies.
        gates::jit::set_trace_sink(&sink);
        gates::BatchGateRunner runner(spec.fn, {params});
        gates::jit::set_trace_sink(nullptr);
        runner.set_lane_preset(0, opt.preset);
        runner.set_lane_sink(0, &sink);
        std::unique_ptr<trace::VcdWriter> vcd;
        if (!opt.vcd_path.empty()) {
            vcd = std::make_unique<trace::VcdWriter>(opt.vcd_path);
            runner.add_vcd(vcd.get(), {0});
        }
        const std::vector<gates::BatchLaneResult> res = runner.run();
        sink.flush();
        std::printf("lane 0: best=%u cand=%u gens=%u, %llu events -> %s\n",
                    res[0].best_fitness, res[0].best_candidate, res[0].generations,
                    static_cast<unsigned long long>(sink.events_written()),
                    opt.out_path.c_str());
        return 0;
    }

    system::GaSystemConfig cfg;
    cfg.params = params;
    cfg.preset = opt.preset;
    // A preset run is the Table IV init-failure scenario: the pins alone
    // carry the run, no handshake (as gacli and the gate lanes run it).
    cfg.skip_initialization = opt.preset != 0;
    cfg.internal_fems = {spec.fn};
    cfg.keep_populations = false;
    cfg.trace_path = opt.out_path;
    cfg.vcd_path = opt.vcd_path;
    cfg.use_gate_level_core = opt.backend == "gates";
    system::GaSystem sys(cfg);
    const core::RunResult res = sys.run();
    std::printf("%s: best=%u cand=%u evals=%llu cycles=%llu -> %s%s%s\n",
                opt.backend.c_str(), res.best_fitness, res.best_candidate,
                static_cast<unsigned long long>(res.evaluations),
                static_cast<unsigned long long>(sys.ga_cycles()), opt.out_path.c_str(),
                opt.vcd_path.empty() ? "" : " + ", opt.vcd_path.c_str());
    return 0;
}

int cmd_filter(const std::string& path, const std::vector<std::string>& kinds,
               std::uint64_t limit) {
    const std::vector<trace::TraceEvent> events = trace::load_jsonl(path);
    const std::vector<trace::TraceEvent> kept = trace::filter_events(events, kinds);
    std::uint64_t n = 0;
    for (const trace::TraceEvent& e : kept) {
        if (limit != 0 && n >= limit) break;
        std::printf("%s\n", trace::to_json_line(e).c_str());
        ++n;
    }
    return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             const trace::DiffOptions& opt) {
    const std::vector<trace::TraceEvent> a = trace::load_jsonl(path_a);
    const std::vector<trace::TraceEvent> b = trace::load_jsonl(path_b);
    const std::optional<trace::Divergence> d = trace::first_divergence(a, b, opt);
    if (!d.has_value()) {
        std::printf("match: %zu vs %zu events%s\n", a.size(), b.size(),
                    opt.kinds.empty() ? "" : " (filtered)");
        return 0;
    }
    std::printf("diverge at event %zu:\n", d->index);
    std::printf("  a: %s\n",
                d->missing_a ? "<stream ended>" : trace::to_json_line(d->a).c_str());
    std::printf("  b: %s\n",
                d->missing_b ? "<stream ended>" : trace::to_json_line(d->b).c_str());
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage();
        return 0;
    }

    try {
        cli::Args args(argc, argv, 2);
        if (cmd == "record") {
            RecordOptions opt;
            while (args.more()) {
                const std::string& a = args.next();
                if (opt.job.take(args)) continue;
                if (a == "--preset") {
                    opt.preset = static_cast<std::uint8_t>(args.number(0, 3));
                } else if (a == "--backend") {
                    opt.backend = args.value();
                    if (opt.backend != "rtl" && opt.backend != "gates" && opt.backend != "lanes")
                        throw cli::UsageError("unknown backend '" + opt.backend + "'");
                } else if (a == "--flip") {
                    opt.flip = args.flip();
                    opt.local_only = a;
                } else if (a == "--daemon") {
                    opt.daemon_socket = args.value();
                } else if (a == "-o" || a == "--out") {
                    opt.out_path = args.value();
                } else if (a == "--vcd") {
                    opt.vcd_path = args.value();
                    opt.local_only = a;
                } else {
                    args.unknown();
                }
            }
            return cmd_record(opt);
        }

        if (cmd == "filter") {
            std::string path;
            std::vector<std::string> kinds;
            std::uint64_t limit = 0;
            while (args.more()) {
                const std::string& a = args.next();
                if (a == "--kind") kinds = cli::split_csv(args.value());
                else if (a == "--limit") limit = args.number();
                else if (!a.empty() && a[0] != '-' && path.empty()) path = a;
                else args.unknown();
            }
            if (path.empty()) throw cli::UsageError("filter needs an input file");
            return cmd_filter(path, kinds, limit);
        }

        if (cmd == "diff") {
            std::vector<std::string> paths;
            trace::DiffOptions opt;
            while (args.more()) {
                const std::string& a = args.next();
                if (a == "--kind") {
                    opt.kinds = cli::split_csv(args.value());
                } else if (a == "--ignore") {
                    opt.ignore_keys = cli::split_csv(args.value());
                } else if (a == "--strict") {
                    opt.compare_time = true;
                    opt.compare_cycle = true;
                } else if (!a.empty() && a[0] != '-') {
                    paths.push_back(a);
                } else {
                    args.unknown();
                }
            }
            if (paths.size() != 2) throw cli::UsageError("diff needs exactly two files");
            return cmd_diff(paths[0], paths[1], opt);
        }

        std::fprintf(stderr, "gaip-trace: unknown command '%s'\n", cmd.c_str());
        usage();
        return 2;
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "gaip-trace: %s\n", ex.what());
        return 2;
    }
}
