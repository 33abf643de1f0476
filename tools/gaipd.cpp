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
#include <cstring>
#include <string>

#include "service/server.hpp"

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

bool parse_u32(const char* s, std::uint32_t& out) {
    try {
        out = static_cast<std::uint32_t>(std::stoul(s, nullptr, 0));
        return true;
    } catch (...) {
        return false;
    }
}

}  // namespace

int main(int argc, char** argv) {
    service::ServerConfig cfg;
    cfg.announce = true;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gaipd: %s needs a value\n", a.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        std::uint32_t v = 0;
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--socket") {
            const char* s = need_value();
            if (s == nullptr) return 2;
            cfg.socket_path = s;
        } else if (a == "--workers") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v) || v == 0) {
                std::fprintf(stderr, "gaipd: --workers wants a number >= 1\n");
                return 2;
            }
            cfg.scheduler.workers = v;
        } else if (a == "--max-queue") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v) || v == 0) {
                std::fprintf(stderr, "gaipd: --max-queue wants a number >= 1\n");
                return 2;
            }
            cfg.scheduler.max_queue = v;
        } else if (a == "--max-batch") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v) || v == 0) {
                std::fprintf(stderr, "gaipd: --max-batch wants a number >= 1\n");
                return 2;
            }
            cfg.scheduler.max_batch_lanes = v;
        } else if (a == "--gate-backend") {
            const char* s = need_value();
            if (s == nullptr) return 2;
            if (std::strcmp(s, "auto") == 0) cfg.scheduler.gate_backend = gates::Backend::kAuto;
            else if (std::strcmp(s, "interp") == 0)
                cfg.scheduler.gate_backend = gates::Backend::kInterp;
            else if (std::strcmp(s, "jit") == 0) cfg.scheduler.gate_backend = gates::Backend::kJit;
            else {
                std::fprintf(stderr, "gaipd: unknown gate backend '%s'\n", s);
                return 2;
            }
        } else if (a == "--metrics") {
            const char* s = need_value();
            if (s == nullptr) return 2;
            cfg.metrics_path = s;
        } else if (a == "--journal") {
            const char* s = need_value();
            if (s == nullptr) return 2;
            cfg.journal_dir = s;
        } else if (a == "--max-conns") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) {
                std::fprintf(stderr, "gaipd: --max-conns wants a number\n");
                return 2;
            }
            cfg.max_conns = v;
        } else if (a == "--max-conns-per-client") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v)) {
                std::fprintf(stderr, "gaipd: --max-conns-per-client wants a number\n");
                return 2;
            }
            cfg.max_conns_per_client = v;
        } else if (a == "--max-outbox") {
            const char* s = need_value();
            if (s == nullptr || !parse_u32(s, v) || v == 0) {
                std::fprintf(stderr, "gaipd: --max-outbox wants a number >= 1\n");
                return 2;
            }
            cfg.max_outbox_bytes = v;
        } else if (a == "--quiet") {
            cfg.announce = false;
        } else {
            std::fprintf(stderr, "gaipd: unknown option '%s'\n", a.c_str());
            usage();
            return 2;
        }
    }

    try {
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
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gaipd: %s\n", e.what());
        return 1;
    }
}
