// gaipd — the GA IP core daemon: accepts GA job requests over a Unix-domain
// socket (newline-delimited JSON, docs/GAIPD.md) and schedules them onto a
// pool of worker threads, packing independent gate-level jobs as lanes of a
// shared compiled-netlist lane block.
//
//   gaipd --socket gaipd.sock --workers 4 --metrics gaipd_metrics.jsonl
//
// Runs in the foreground until SIGINT/SIGTERM or a `shutdown` verb; SIGHUP
// compacts + reopens the journal (log-rotation discipline).
// Exit status: 0 on clean shutdown, 1 on socket errors, 2 on bad arguments.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "service/server.hpp"
#include "tools/cli.hpp"

namespace {

using namespace gaip;

/// Touched from signal handlers: atomic so the store in main() is never
/// torn/reordered against a concurrently delivered signal.
std::atomic<service::Server*> g_server{nullptr};

void on_signal(int sig) {
    service::Server* s = g_server.load(std::memory_order_acquire);
    if (s == nullptr) return;
    // Both paths are async-signal-safe: flag + one pipe write.
    if (sig == SIGHUP) s->request_rotate();
    else s->stop();
}

void usage() {
    std::printf(
        "usage: gaipd [options]\n"
        "  --socket PATH      Unix-domain socket to listen on (default gaipd.sock)\n"
        "  --workers N        worker threads (default 1)\n"
        "  --max-queue N      admission-control queue bound (default 1024)\n"
        "  --max-batch N      lane ceiling of one gate block (default 256)\n"
        "  --gate-backend K   auto | interp | jit (gate-lane evaluation engine)\n"
        "  --metrics PATH     append job lifecycle metrics as JSONL\n"
        "  --journal DIR      write-ahead job journal; replayed on boot (crash\n"
        "                     recovery: finished jobs restored, interrupted re-run)\n"
        "  --max-conns N      total connection cap (default 256; 0 = unlimited)\n"
        "  --max-conns-per-client N  per-client (pid) cap (default 32; 0 = unlimited)\n"
        "  --max-outbox BYTES per-connection write buffer; a consumer further\n"
        "                     behind is evicted (default 1048576)\n"
        "  --quiet            do not announce the socket on stderr\n");
}

}  // namespace

int main(int argc, char** argv) {
    try {
        service::ServerConfig cfg;
        cfg.announce = true;
        cli::Args args(argc, argv, 1);
        while (args.more()) {
            const std::string& a = args.next();
            if (a == "--help" || a == "-h") {
                usage();
                return 0;
            } else if (a == "--socket") {
                cfg.socket_path = args.value();
            } else if (a == "--workers") {
                cfg.scheduler.workers = static_cast<unsigned>(args.number(1, UINT32_MAX));
            } else if (a == "--max-queue") {
                cfg.scheduler.max_queue = args.number(1, UINT32_MAX);
            } else if (a == "--max-batch") {
                cfg.scheduler.max_batch_lanes = static_cast<unsigned>(args.number(1, UINT32_MAX));
            } else if (a == "--gate-backend") {
                const std::string s = args.value();
                if (s == "auto") cfg.scheduler.gate_backend = gates::Backend::kAuto;
                else if (s == "interp") cfg.scheduler.gate_backend = gates::Backend::kInterp;
                else if (s == "jit") cfg.scheduler.gate_backend = gates::Backend::kJit;
                else throw cli::UsageError("unknown gate backend '" + s + "'");
            } else if (a == "--metrics") {
                cfg.metrics_path = args.value();
            } else if (a == "--journal") {
                cfg.journal_dir = args.value();
            } else if (a == "--max-conns") {
                cfg.max_conns = args.number(0, UINT32_MAX);
            } else if (a == "--max-conns-per-client") {
                cfg.max_conns_per_client = args.number(0, UINT32_MAX);
            } else if (a == "--max-outbox") {
                cfg.max_outbox_bytes = args.number(1, UINT32_MAX);
            } else if (a == "--quiet") {
                cfg.announce = false;
            } else {
                usage();
                args.unknown();
            }
        }

        service::Server server(std::move(cfg));
        g_server.store(&server, std::memory_order_release);
        struct sigaction sa{};
        sa.sa_handler = on_signal;
        ::sigaction(SIGINT, &sa, nullptr);
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGHUP, &sa, nullptr);
        server.run();
        g_server.store(nullptr, std::memory_order_release);
        return 0;
    } catch (const cli::UsageError& e) {
        std::fprintf(stderr, "gaipd: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gaipd: %s\n", e.what());
        return 1;
    }
}
