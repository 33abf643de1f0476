// Mission-supervisor recovery bench: drives a stratified SEU sample (every
// scan-chain register, several bits, several cycle points) through the
// supervised run loop and measures (a) the recovered-run rate — how many
// watchdog-tripping upsets the retry/restart/fallback ladder converts into
// a correct delivered result — and (b) the wall-clock overhead supervision
// adds to clean (fault-free) runs. Results land in
// bench_out/BENCH_supervisor.json for CI trend tracking.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "fault/seu_injector.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"

namespace {

using namespace gaip;

core::GaParameters bench_params() {
    return {.pop_size = 8, .n_gens = 8, .xover_threshold = 12, .mut_threshold = 1,
            .seed = 0x2961};
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
    bench::banner("Mission-supervisor recovery",
                  "Sec. III-C fault tolerance: watchdog + retry ladder + Table IV fallback");

    fault::InjectorConfig icfg;
    icfg.fn = fitness::FitnessId::kMBf6_2;
    icfg.params = bench_params();
    const fault::SeuInjector inj(icfg);
    const fault::GoldenRun& golden = inj.golden();
    std::printf("golden: best=%u cand=%u cycles=%llu\n", golden.best_fitness,
                golden.best_candidate, static_cast<unsigned long long>(golden.ga_cycles));

    // --- stratified site sample ------------------------------------------
    std::vector<fault::FaultSite> sample;
    for (const auto& [reg, width] : inj.layout()) {
        std::vector<unsigned> bits = {0u};
        if (width / 2 != 0) bits.push_back(width / 2);
        if (width - 1 != 0 && width - 1 != width / 2) bits.push_back(width - 1);
        for (const unsigned bit : bits)
            for (const std::uint64_t cyc :
                 {std::uint64_t{10}, golden.ga_cycles * 4 / 10, golden.ga_cycles * 7 / 10})
                sample.push_back({reg, bit, cyc});
    }

    std::uint64_t disruptive = 0, converted_ok = 0, converted_degraded = 0, aborted = 0;
    std::uint64_t supervised_cycles = 0, supervised_attempts = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const fault::FaultSite& site : sample) {
        const fault::FaultRecord probe = inj.run_rtl(site, fault::InjectBackend::kPoke);
        if (probe.outcome != fault::FaultOutcome::kRecovered &&
            probe.outcome != fault::FaultOutcome::kHang)
            continue;
        ++disruptive;

        supervisor::SupervisorConfig cfg;
        cfg.fn = icfg.fn;
        cfg.params = bench_params();
        cfg.expected_cycles = golden.ga_cycles;
        cfg.ladder.max_retries = 1;
        cfg.ladder.checkpoint_every = 2;
        cfg.ladder.fallback_preset = 1;
        bool fired = false;
        cfg.hook = supervisor::flip_hook(site, fired);
        const supervisor::SupervisorReport rep = supervisor::MissionSupervisor(cfg).run();
        supervised_cycles += rep.total_cycles;
        supervised_attempts += rep.attempts.size();
        const bool exact = rep.best_fitness == golden.best_fitness &&
                           rep.best_candidate == golden.best_candidate;
        switch (rep.status) {
            case supervisor::Status::kOk: converted_ok += exact ? 1 : 0; break;
            case supervisor::Status::kOkDegraded: ++converted_degraded; break;
            case supervisor::Status::kAborted: ++aborted; break;
        }
    }
    const double sweep_s = seconds_since(t0);
    const double recovered_rate =
        disruptive == 0 ? 1.0
                        : static_cast<double>(converted_ok + converted_degraded) /
                              static_cast<double>(disruptive);
    std::printf(
        "sample=%zu disruptive=%llu -> ok=%llu degraded=%llu aborted=%llu "
        "(recovered rate %.3f) in %.2fs\n",
        sample.size(), static_cast<unsigned long long>(disruptive),
        static_cast<unsigned long long>(converted_ok),
        static_cast<unsigned long long>(converted_degraded),
        static_cast<unsigned long long>(aborted), recovered_rate, sweep_s);

    // --- clean-run supervision overhead ----------------------------------
    constexpr unsigned kCleanRuns = 20;
    const auto tb = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < kCleanRuns; ++i) {
        system::GaSystemConfig scfg;
        scfg.params = bench_params();
        scfg.internal_fems = {icfg.fn};
        scfg.keep_populations = false;
        system::GaSystem sys(scfg);
        (void)sys.run();
    }
    const double bare_s = seconds_since(tb);
    const auto ts = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < kCleanRuns; ++i) {
        supervisor::SupervisorConfig cfg;
        cfg.fn = icfg.fn;
        cfg.params = bench_params();
        cfg.expected_cycles = golden.ga_cycles;
        (void)supervisor::MissionSupervisor(cfg).run();
    }
    const double sup_s = seconds_since(ts);
    const double overhead = bare_s == 0.0 ? 0.0 : (sup_s - bare_s) / bare_s;
    std::printf("clean runs x%u: bare %.3fs, supervised %.3fs (overhead %+.1f%%)\n",
                kCleanRuns, bare_s, sup_s, overhead * 100.0);

    bench::JsonReport report;
    report.set("bench", std::string("supervisor_recovery"))
        .set("fitness", std::string("mBF6_2"))
        .set("pop_size", std::uint64_t(bench_params().pop_size))
        .set("n_gens", std::uint64_t(bench_params().n_gens))
        .set("golden_ga_cycles", golden.ga_cycles)
        .set("sites_sampled", std::uint64_t(sample.size()))
        .set("disruptive", disruptive)
        .set("converted_ok", converted_ok)
        .set("converted_degraded", converted_degraded)
        .set("aborted", aborted)
        .set("recovered_rate", recovered_rate)
        .set("supervised_cycles", supervised_cycles)
        .set("supervised_attempts", supervised_attempts)
        .set("sweep_wall_seconds", sweep_s)
        .set("clean_runs", std::uint64_t(kCleanRuns))
        .set("bare_wall_seconds", bare_s)
        .set("supervised_wall_seconds", sup_s)
        .set("clean_overhead_fraction", overhead);
    bench::env_block(report);
    report.write(bench::out_path("BENCH_supervisor.json"));

    // Recovery is the contract: every disruptive upset must end recovered
    // or as a structured abort (counted above) — a silent wrong answer
    // escaping the ladder fails the bench.
    if (converted_ok + converted_degraded + aborted != disruptive) {
        std::printf("\nFAIL: %llu disruptive faults left unaccounted\n",
                    static_cast<unsigned long long>(disruptive - converted_ok -
                                                    converted_degraded - aborted));
        return 1;
    }
    return 0;
}
