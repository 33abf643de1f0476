// Service-plane throughput bench: jobs/s and aggregate generations/s the
// gaipd scheduler sustains at 1 / 8 / 64 / 256 concurrent jobs, driven
// through the REAL socket stack (in-process Daemon + a Client per batch, the
// same code path gaipctl exercises). Every job is an identical small gates-
// backend OneMax run, so the headline series isolates the control plane +
// lane-packing overhead: at 64+ concurrent jobs the scheduler packs whole
// batches as SIMD lanes of one shared compiled netlist, so aggregate gens/s
// must GROW from the 1-job baseline (the monotone gate, mirroring
// bench_island_scaling's).
//
// A recovery-time measurement rides along (the durability cost headline):
// submit a burst of journaled jobs to a FORKED daemon, SIGKILL it, restart
// on the same journal, and time how long until every job is terminal
// again (`recovery_*` keys).
//
// Results land in bench_out/BENCH_service.json for CI trend tracking.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

using namespace gaip;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

service::JobSpec job_spec() {
    service::JobSpec spec;
    spec.fn = fitness::FitnessId::kOneMax;
    spec.params = core::resolve_parameters(
        0, {.pop_size = 16, .n_gens = 12, .xover_threshold = 10, .mut_threshold = 1,
            .seed = bench::kPaperSeeds[0]});
    spec.backend = core::Substrate::kGates;
    return spec;
}

struct Level {
    unsigned jobs;
    double wall_s;
    double jobs_per_s;
    double gens_per_s;
};

/// Submit `n` identical jobs in one burst, then stream each to completion.
/// Submission happens before any stream attaches, so the scheduler sees the
/// whole burst queued and can pack it into lane batches.
Level run_level(const std::string& socket, unsigned n, std::uint32_t gens) {
    service::Client c(socket);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    const service::JobSpec spec = job_spec();
    for (unsigned i = 0; i < n; ++i) ids.push_back(c.submit(spec));
    for (const std::uint64_t id : ids) c.stream(id);
    const double wall = seconds_since(t0);
    return {n, wall, n / wall, static_cast<double>(n) * gens / wall};
}

struct Recovery {
    unsigned jobs;
    double submit_s;       ///< burst submission wall time (journaled admits)
    double recover_wall_s; ///< restart -> every job terminal again
    std::uint64_t restored;
    std::uint64_t readmitted;
    bool all_terminal;
};

/// Crash-recovery timing: fork a journaled daemon, submit `n` jobs,
/// SIGKILL it mid-flight, restart on the same journal in-process, and
/// time until every job id reports a terminal state.
Recovery run_recovery(unsigned n, unsigned workers) {
    const std::string dir = "bench_gaipd_recovery.j";
    const std::string socket = "bench_gaipd_rec.sock";
    std::filesystem::remove_all(dir);

    const pid_t pid = ::fork();
    if (pid == 0) {
        service::ServerConfig cfg;
        cfg.socket_path = socket;
        cfg.journal_dir = dir;
        cfg.scheduler.workers = workers;
        cfg.scheduler.max_queue = 4096;
        service::Server server(std::move(cfg));
        server.run();
        _exit(0);
    }

    Recovery r{};
    r.jobs = n;
    service::RetryPolicy policy;
    policy.base_ms = 20;
    policy.max_ms = 200;
    if (!service::ping_wait(socket, 30.0, policy)) {
        std::fprintf(stderr, "recovery: forked daemon never came up\n");
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return r;
    }

    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    {
        service::Client c = service::Client::dial(socket, policy);
        const service::JobSpec spec = job_spec();
        const auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < n; ++i) ids.push_back(c.submit(spec));
        r.submit_s = seconds_since(t0);
    }
    ::kill(pid, SIGKILL);  // mid-flight: some done, some running, most queued
    ::waitpid(pid, nullptr, 0);

    const auto t0 = std::chrono::steady_clock::now();
    service::ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.journal_dir = dir;
    cfg.scheduler.workers = workers;
    cfg.scheduler.max_queue = 4096;
    service::Daemon daemon(cfg);
    service::Client c(daemon.socket_path());
    r.all_terminal = true;
    for (const std::uint64_t id : ids) {
        for (;;) {
            const std::string st = c.status(id).str("state");
            if (st != "queued" && st != "running") break;
            if (seconds_since(t0) > 300.0) {
                r.all_terminal = false;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    r.recover_wall_s = seconds_since(t0);
    const service::ServiceStats stats = daemon.scheduler().stats();
    r.restored = stats.restored;
    r.readmitted = stats.readmitted;
    daemon.stop();
    return r;
}

}  // namespace

int main() {
    bench::banner("Service throughput",
                  "gaipd control plane: concurrent GA jobs over the socket stack");

    const unsigned workers = std::max(2u, std::thread::hardware_concurrency() / 2);

    // Recovery first: fork() must happen while this process is still
    // single-threaded (the in-process Daemon spawns worker threads).
    const Recovery rec = run_recovery(64, workers);
    std::printf("recovery: %u jobs, submit %.3fs, kill -9, all-terminal again in %.3fs "
                "(%llu restored, %llu re-run)\n",
                rec.jobs, rec.submit_s, rec.recover_wall_s,
                static_cast<unsigned long long>(rec.restored),
                static_cast<unsigned long long>(rec.readmitted));
    service::ServerConfig cfg;
    cfg.socket_path = "bench_gaipd.sock";
    cfg.scheduler.workers = workers;
    cfg.scheduler.max_queue = 4096;
    service::Daemon daemon(cfg);

    bench::JsonReport report;
    bench::env_block(report, 0, workers, "", "gates");

    // Warmup: pay the per-worker netlist compilation outside the timed runs.
    run_level(cfg.socket_path, workers * 2, job_spec().params.n_gens);

    std::printf("%-8s %-10s %-12s %-14s\n", "jobs", "wall_s", "jobs/s", "gens/s");
    std::vector<Level> levels;
    for (const unsigned n : {1u, 8u, 64u, 256u}) {
        const Level lv = run_level(cfg.socket_path, n, job_spec().params.n_gens);
        std::printf("%-8u %-10.3f %-12.1f %-14.1f\n", lv.jobs, lv.wall_s, lv.jobs_per_s,
                    lv.gens_per_s);
        const std::string p = "jobs" + std::to_string(n) + "_";
        report.set(p + "wall_s", lv.wall_s)
            .set(p + "jobs_per_s", lv.jobs_per_s)
            .set(p + "gens_per_s", lv.gens_per_s);
        levels.push_back(lv);
    }

    // Monotone gate: lane packing + worker parallelism must make aggregate
    // throughput grow from 1 job to 64 concurrent jobs.
    const bool monotone = levels[0].gens_per_s < levels[1].gens_per_s &&
                          levels[1].gens_per_s < levels[2].gens_per_s;
    report.set("throughput_monotone_1_to_64", static_cast<std::uint64_t>(monotone ? 1 : 0));
    std::printf("monotone gens/s 1 -> 8 -> 64: %s\n", monotone ? "yes" : "NO");

    report.set("recovery_jobs", std::uint64_t{rec.jobs})
        .set("recovery_submit_s", rec.submit_s)
        .set("recovery_wall_s", rec.recover_wall_s)
        .set("recovery_restored", rec.restored)
        .set("recovery_readmitted", rec.readmitted)
        .set("recovery_all_terminal", std::uint64_t{rec.all_terminal ? 1u : 0u});

    const service::ServiceStats stats = daemon.scheduler().stats();
    report.set("total_done", stats.done)
        .set("total_failed", stats.failed)
        .set("gate_batches", stats.gate_batches)
        .set("gate_lanes", stats.gate_lanes)
        .set("lanes_per_batch",
             stats.gate_batches == 0
                 ? 0.0
                 : static_cast<double>(stats.gate_lanes) / stats.gate_batches);

    report.write(bench::out_path("BENCH_service.json"));
    daemon.stop();
    return monotone && stats.failed == 0 && rec.all_terminal ? 0 : 1;
}
