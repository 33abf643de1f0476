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
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ga_core.hpp"
#include "fault/fault_model.hpp"
#include "fitness/functions.hpp"
#include "service/client.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/jsonl.hpp"

namespace {

using namespace gaip;

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
        "usage: gaip-supervise run [options]\n"
        "\n"
        "  job:\n"
        "    --fitness NAME       BF6 F2 F3 mBF6_2 mBF7_2 mShubert2D OneMax RoyalRoad\n"
        "    --pop N --gens N     population / generations (defaults 32/32)\n"
        "    --xover T --mut T    crossover / mutation thresholds (0..15)\n"
        "    --seed S             RNG seed (decimal or 0x hex)\n"
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
        "             with --daemon also: 4 = cannot connect, 5 = malformed response\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
    try {
        std::size_t used = 0;
        out = std::stoull(s, &used, 0);
        return used == std::strlen(s) && used > 0;
    } catch (...) {
        return false;
    }
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!item.empty()) out.push_back(item);
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return out;
}

bool validate_writable(const std::string& path, const char* what) {
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::fprintf(stderr, "gaip-supervise: cannot open %s '%s' for writing\n", what,
                     path.c_str());
        return false;
    }
    return true;
}

/// Thin-client mode: submit the job with supervise=1 and let the daemon's
/// MissionSupervisor run it under the daemon's supervision policy; sup_*
/// events stream back into -o. --flip/--nmr/--seeds are local-only and
/// rejected by the caller.
int run_via_daemon(const supervisor::SupervisorConfig& cfg, const std::string& socket,
                   const std::string& out_path) {
    try {
        service::JobSpec spec;
        spec.fn = cfg.fn;
        spec.params = core::resolve_parameters(0, cfg.params);
        spec.supervise = true;
        spec.backend = cfg.backend;
        std::unique_ptr<trace::JsonlSink> sink;
        if (!out_path.empty()) {
            if (!validate_writable(out_path, "output file")) return 2;
            sink = std::make_unique<trace::JsonlSink>(out_path);
        }
        service::RetryPolicy policy;
        policy.attempts = 3;  // backoff dial keeps a dead daemon fast to diagnose
        service::Client client = service::Client::dial(socket, policy);
        const service::Frame res = client.run_job(spec, [&](const trace::TraceEvent& e) {
            if (sink) sink->on_event(e);
        });
        if (sink) sink->flush();
        const std::string status = res.str("status", "ok");
        std::printf("status=%s best=%llu cand=%llu gens=%llu rollbacks=%llu retries=%llu"
                    " [daemon job %llu]\n",
                    status.c_str(), static_cast<unsigned long long>(res.u64("best_fitness")),
                    static_cast<unsigned long long>(res.u64("best_candidate")),
                    static_cast<unsigned long long>(res.u64("generations")),
                    static_cast<unsigned long long>(res.u64("rollbacks")),
                    static_cast<unsigned long long>(res.u64("retries")),
                    static_cast<unsigned long long>(res.u64("id")));
        return status == "ok-degraded" ? 3 : 0;
    } catch (const service::ConnectError& e) {
        std::fprintf(stderr, "gaip-supervise: %s\n", e.what());
        return 4;
    } catch (const service::MalformedResponse& e) {
        std::fprintf(stderr, "gaip-supervise: %s\n", e.what());
        return 5;
    } catch (const service::RemoteError& e) {
        // An aborted supervised job surfaces as a failed job (exit 1, same
        // as a local abort).
        std::fprintf(stderr, "gaip-supervise: %s\n", e.what());
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gaip-supervise: %s\n", e.what());
        return 2;
    }
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
        auto need_value = [&](int& i) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gaip-supervise: %s needs a value\n", argv[i]);
                return nullptr;
            }
            return argv[++i];
        };
        auto need_u64 = [&](int& i, std::uint64_t& v) -> bool {
            const char* flag = argv[i];
            const char* s = need_value(i);
            if (s == nullptr) return false;
            if (!parse_u64(s, v)) {
                std::fprintf(stderr, "gaip-supervise: %s wants a number, got '%s'\n", flag, s);
                return false;
            }
            return true;
        };

        supervisor::SupervisorConfig cfg;
        cfg.params = {.pop_size = 32, .n_gens = 32, .xover_threshold = 10,
                      .mut_threshold = 1, .seed = 0x2961};
        std::optional<fault::FaultSite> flip;
        std::string out_path;
        std::string daemon_socket;

        for (int i = 2; i < argc; ++i) {
            const std::string a = argv[i];
            std::uint64_t v = 0;
            if (a == "--fitness") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                const auto it = fitness_by_name().find(s);
                if (it == fitness_by_name().end()) {
                    std::fprintf(stderr, "gaip-supervise: unknown fitness '%s'\n", s);
                    return 2;
                }
                cfg.fn = it->second;
            } else if (a == "--pop") {
                if (!need_u64(i, v)) return 2;
                cfg.params.pop_size = core::clamp_pop_size(static_cast<std::uint32_t>(v));
            } else if (a == "--gens") {
                if (!need_u64(i, v)) return 2;
                cfg.params.n_gens = static_cast<std::uint32_t>(v);
            } else if (a == "--xover") {
                if (!need_u64(i, v)) return 2;
                cfg.params.xover_threshold = static_cast<std::uint8_t>(v & 0xF);
            } else if (a == "--mut") {
                if (!need_u64(i, v)) return 2;
                cfg.params.mut_threshold = static_cast<std::uint8_t>(v & 0xF);
            } else if (a == "--seed") {
                if (!need_u64(i, v)) return 2;
                cfg.params.seed = static_cast<std::uint16_t>(v);
            } else if (a == "--backend") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                const std::string b = s;
                const std::optional<core::Substrate> sub =
                    b == "lanes" ? core::Substrate::kGates : core::parse_substrate(b);
                if (!sub) {
                    std::fprintf(stderr, "gaip-supervise: unknown backend '%s'\n", s);
                    return 2;
                }
                cfg.backend = *sub;
            } else if (a == "--watchdog-factor") {
                if (!need_u64(i, v)) return 2;
                cfg.watchdog_factor = static_cast<unsigned>(v);
            } else if (a == "--expected-cycles") {
                if (!need_u64(i, v)) return 2;
                cfg.expected_cycles = v;
            } else if (a == "--retries") {
                if (!need_u64(i, v)) return 2;
                cfg.ladder.max_retries = static_cast<unsigned>(v);
            } else if (a == "--backoff") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                try {
                    cfg.ladder.backoff_factor = std::stod(s);
                } catch (...) {
                    std::fprintf(stderr, "gaip-supervise: --backoff wants a number, got '%s'\n",
                                 s);
                    return 2;
                }
            } else if (a == "--reseed") {
                cfg.ladder.reseed_on_retry = true;
            } else if (a == "--no-restart") {
                cfg.ladder.restart_recovery = false;
            } else if (a == "--fallback") {
                if (!need_u64(i, v)) return 2;
                if (v > 3) {
                    std::fprintf(stderr, "gaip-supervise: --fallback wants a mode 0..3\n");
                    return 2;
                }
                cfg.ladder.fallback_preset = static_cast<std::uint8_t>(v);
            } else if (a == "--checkpoint-every") {
                if (!need_u64(i, v)) return 2;
                cfg.ladder.checkpoint_every = static_cast<std::uint32_t>(v);
            } else if (a == "--nmr") {
                if (!need_u64(i, v)) return 2;
                cfg.nmr = static_cast<unsigned>(v);
            } else if (a == "--seeds") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                for (const std::string& item : split_csv(s)) {
                    std::uint64_t sv = 0;
                    if (!parse_u64(item.c_str(), sv)) {
                        std::fprintf(stderr, "gaip-supervise: bad seed '%s' in --seeds\n",
                                     item.c_str());
                        return 2;
                    }
                    cfg.replica_seeds.push_back(static_cast<std::uint16_t>(sv));
                }
            } else if (a == "--flip") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                const std::string spec = s;
                const std::size_t c1 = spec.find(':');
                const std::size_t c2 = spec.find(':', c1 + 1);
                std::uint64_t bit = 0, cyc = 0;
                if (c1 == std::string::npos || c2 == std::string::npos ||
                    !parse_u64(spec.substr(c1 + 1, c2 - c1 - 1).c_str(), bit) ||
                    !parse_u64(spec.substr(c2 + 1).c_str(), cyc)) {
                    std::fprintf(stderr, "gaip-supervise: --flip wants REG:BIT:CYCLE\n");
                    return 2;
                }
                flip = fault::FaultSite{spec.substr(0, c1), static_cast<unsigned>(bit), cyc};
            } else if (a == "--daemon") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                daemon_socket = s;
            } else if (a == "-o" || a == "--out") {
                const char* s = need_value(i);
                if (s == nullptr) return 2;
                out_path = s;
            } else {
                std::fprintf(stderr, "gaip-supervise: unknown option '%s'\n", a.c_str());
                return 2;
            }
        }

        if (flip.has_value() && cfg.backend != core::Substrate::kRtl) {
            std::fprintf(stderr, "gaip-supervise: --flip requires the rtl backend\n");
            return 2;
        }
        if (!daemon_socket.empty()) {
            if (flip.has_value() || cfg.nmr != 1 || !cfg.replica_seeds.empty()) {
                std::fprintf(stderr,
                             "gaip-supervise: --daemon does not support "
                             "--flip/--nmr/--seeds\n");
                return 2;
            }
            return run_via_daemon(cfg, daemon_socket, out_path);
        }
        std::unique_ptr<trace::JsonlSink> sink;
        if (!out_path.empty()) {
            if (!validate_writable(out_path, "output file")) return 2;
            sink = std::make_unique<trace::JsonlSink>(out_path);
            cfg.sink = sink.get();
        }

        // SEU demo: one poke-backend flip into replica 0's primary attempt,
        // at the first scan-safe cycle >= the requested one (the SEU
        // injector's convention), so the ladder has something to recover.
        bool injected = false;
        if (flip.has_value()) {
            const fault::FaultSite site = *flip;
            cfg.hook = [&injected, site](system::GaSystem& sys,
                                         const supervisor::AttemptInfo& info,
                                         std::uint64_t cycle) {
                if (injected || info.in_init || info.replica != 0 || info.attempt != 0) return;
                if (cycle >= site.cycle && fault::scan_safe_state(sys.core().state())) {
                    rtl::ScanChain& chain = sys.core().scan_chain();
                    chain.flip(chain.position_of(site.reg, site.bit));
                    sys.core().input_changed();
                    injected = true;
                }
            };
        }

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
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "gaip-supervise: %s\n", ex.what());
        return 2;
    }
}
