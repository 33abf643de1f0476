// gaip-supervise — run a GA job under the mission supervisor
// (src/supervisor/): cycle-budget watchdog, retry/backoff ladder, in-place
// restart, PRESET degradation, optional N-modular redundancy, and
// generation checkpoints with rollback.
//
//   gaip-supervise run --fitness mBF6_2 --pop 32 --gens 64
//   gaip-supervise run --flip state:2:200 --retries 1 --fallback 1 -o sup.jsonl
//   gaip-supervise run --nmr 3 --flip eff_pop:6:50 --checkpoint-every 8
//
// `--flip REG:BIT:CYC` plants one SEU into replica 0's primary attempt (at
// the first scan-safe cycle >= CYC, the SEU injector's convention) so the
// recovery ladder can be watched end to end; `-o` streams every supervisor
// decision (watchdog_trip / sup_* events) as JSONL for gaip-trace.
//
// Exit status: 0 = ok, 3 = ok-degraded (PRESET fallback delivered),
//              1 = aborted (structured), 2 = usage or internal error.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "supervisor/supervisor.hpp"
#include "tools/cli.hpp"
#include "trace/jsonl.hpp"

namespace {

using namespace gaip;

void usage() {
    std::printf(
        "usage: gaip-supervise run [options]\n"
        "\n"
        "  job:\n"
        "%s"
        "    --backend B          rtl | behavioral | lanes (default rtl)\n"
        "\n"
        "  supervision:\n"
        "    --watchdog-factor N  watchdog = N x expected cycles (default 4)\n"
        "    --expected-cycles N  override the formula cycle estimate\n"
        "    --retries N          backoff retries after the primary (default 2)\n"
        "    --backoff F          budget growth per retry (default 2.0)\n"
        "    --reseed             derive a fresh seed per from-scratch retry\n"
        "    --no-restart         skip the in-place request_restart() rung\n"
        "    --fallback M         PRESET fallback mode 1..3, 0 = off (default 1)\n"
        "    --checkpoint-every N snapshot every N generations (default 0 = off)\n"
        "    --nmr N              N-modular redundant replicas (default 1)\n"
        "    --seeds S1,S2,...    per-replica seeds (nmr entries)\n"
        "\n"
        "  fault demo / output:\n"
        "    --flip REG:BIT:CYC   plant an SEU into replica 0's primary attempt\n"
        "    --daemon SOCKET      run supervised through a gaipd daemon (thin client)\n"
        "    -o PATH              stream supervisor decisions as JSONL\n"
        "\n"
        "exit status: 0 = ok, 3 = ok-degraded, 1 = aborted, 2 = error\n"
        "             with --daemon also: 4 = cannot connect, 5 = malformed response\n",
        cli::job_flag_help(cli::JobFlags::local_defaults(), 4, 25).c_str());
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
    if (cmd != "run") {
        std::fprintf(stderr, "gaip-supervise: unknown command '%s'\n", cmd.c_str());
        usage();
        return 2;
    }

    try {
        supervisor::SupervisorConfig cfg;
        cli::JobFlags job = cli::JobFlags::local_defaults();
        std::optional<fault::FaultSite> flip;
        std::string out_path;
        std::string daemon_socket;
        std::string local_only;  ///< last flag a daemon job cannot carry

        cli::Args args(argc, argv, 2);
        while (args.more()) {
            const std::string& a = args.next();
            if (job.take(args)) continue;
            if (a == "--backend") {
                const std::string b = args.value();
                const std::optional<core::Substrate> sub =
                    b == "lanes" ? core::Substrate::kGates : core::parse_substrate(b);
                if (!sub) throw cli::UsageError("unknown backend '" + b + "'");
                cfg.backend = *sub;
                continue;
            }
            if (a == "--daemon") {
                daemon_socket = args.value();
                continue;
            }
            if (a == "-o" || a == "--out") {
                out_path = args.value();
                continue;
            }
            // Every other flag configures the local supervisor only.
            local_only = a;
            if (a == "--watchdog-factor") {
                cfg.watchdog_factor = static_cast<unsigned>(args.number(0, UINT32_MAX));
            } else if (a == "--expected-cycles") {
                cfg.expected_cycles = args.number();
            } else if (a == "--retries") {
                cfg.ladder.max_retries = static_cast<unsigned>(args.number(0, UINT32_MAX));
            } else if (a == "--backoff") {
                cfg.ladder.backoff_factor = args.real();
            } else if (a == "--reseed") {
                cfg.ladder.reseed_on_retry = true;
            } else if (a == "--no-restart") {
                cfg.ladder.restart_recovery = false;
            } else if (a == "--fallback") {
                cfg.ladder.fallback_preset = static_cast<std::uint8_t>(args.number(0, 3));
            } else if (a == "--checkpoint-every") {
                cfg.ladder.checkpoint_every =
                    static_cast<std::uint32_t>(args.number(0, UINT32_MAX));
            } else if (a == "--nmr") {
                cfg.nmr = static_cast<unsigned>(args.number(0, UINT32_MAX));
            } else if (a == "--seeds") {
                for (const std::string& item : cli::split_csv(args.value())) {
                    std::uint64_t sv = 0;
                    if (!cli::parse_unsigned(item, sv))
                        throw cli::UsageError("bad seed '" + item + "' in --seeds");
                    cfg.replica_seeds.push_back(static_cast<std::uint16_t>(sv));
                }
            } else if (a == "--flip") {
                flip = args.flip();
            } else {
                args.unknown();
            }
        }
        const service::JobSpec spec = job.spec();
        cfg.fn = spec.fn;
        cfg.params = job.handshake();

        if (flip.has_value() && cfg.backend != core::Substrate::kRtl)
            throw cli::UsageError("--flip requires the rtl backend");
        if (!daemon_socket.empty() && !local_only.empty())
            throw cli::UsageError("--daemon cannot forward " + local_only);
        std::unique_ptr<trace::JsonlSink> sink;
        if (!out_path.empty()) {
            cli::require_writable(out_path, "output file");
            sink = std::make_unique<trace::JsonlSink>(out_path);
            cfg.sink = sink.get();
        }

        // Thin-client mode: the daemon's MissionSupervisor runs the job
        // under the daemon's supervision policy; sup_* events stream back
        // into -o.
        if (!daemon_socket.empty()) {
            service::JobSpec remote = spec;
            remote.supervise = true;
            remote.backend = cfg.backend;
            const auto render = [&](const service::Frame& res) {
                if (sink) sink->flush();
                const std::string status = res.str("status", "ok");
                std::printf("status=%s best=%llu cand=%llu gens=%llu rollbacks=%llu retries=%llu"
                            " [daemon job %llu]\n",
                            status.c_str(),
                            static_cast<unsigned long long>(res.u64("best_fitness")),
                            static_cast<unsigned long long>(res.u64("best_candidate")),
                            static_cast<unsigned long long>(res.u64("generations")),
                            static_cast<unsigned long long>(res.u64("rollbacks")),
                            static_cast<unsigned long long>(res.u64("retries")),
                            static_cast<unsigned long long>(res.u64("id")));
                return status == "ok-degraded" ? 3 : 0;
            };
            return cli::run_on_daemon("gaip-supervise", daemon_socket, remote, render,
                                      [&](const trace::TraceEvent& e) {
                                          if (sink) sink->on_event(e);
                                      });
        }

        // SEU demo: one poke-backend flip into replica 0's primary attempt,
        // at the first scan-safe cycle >= the requested one (the SEU
        // injector's convention), so the ladder has something to recover.
        bool injected = false;
        if (flip.has_value()) cfg.hook = supervisor::flip_hook(*flip, injected);

        supervisor::MissionSupervisor sup(cfg);
        const supervisor::SupervisorReport rep = sup.run();

        std::printf("status=%s rung=%s best=%u cand=%u gens=%u cycles=%llu\n",
                    supervisor::status_name(rep.status), supervisor::rung_name(rep.final_rung),
                    rep.best_fitness, rep.best_candidate, rep.generations,
                    static_cast<unsigned long long>(rep.total_cycles));
        std::printf("trips=%u retries=%u restarts=%u rollbacks=%u checkpoints=%u fallbacks=%u\n",
                    rep.watchdog_trips, rep.retries, rep.restarts, rep.rollbacks,
                    rep.checkpoints, rep.fallbacks);
        if (rep.voted)
            std::printf("nmr: agree=%u/%u replaced=%u\n", rep.vote_agree, cfg.nmr,
                        rep.replicas_replaced);
        for (const supervisor::AttemptRecord& at : rep.attempts)
            std::printf("  attempt r%u#%u %s/%s: %s%s\n", at.replica, at.attempt,
                        supervisor::rung_name(at.rung),
                        core::substrate_name(at.backend),
                        supervisor::attempt_outcome_name(at.outcome),
                        at.resumed ? (" (resumed gen " + std::to_string(at.resumed_gen) + ")")
                                         .c_str()
                                   : "");
        if (rep.status == supervisor::Status::kAborted)
            std::printf("abort: %s\n", rep.abort_reason.c_str());
        if (sink) sink->flush();

        switch (rep.status) {
            case supervisor::Status::kOk: return 0;
            case supervisor::Status::kOkDegraded: return 3;
            case supervisor::Status::kAborted: return 1;
        }
        return 2;
    } catch (const service::RemoteError& ex) {
        // An aborted daemon job fails like a local abort.
        std::fprintf(stderr, "gaip-supervise: %s\n", ex.what());
        return 1;
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "gaip-supervise: %s\n", ex.what());
        return 2;
    }
}
