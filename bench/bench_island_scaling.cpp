// Island-scaling bench: the two headline tables of the N-core island
// system, taken on the gate-level SIMD lane block (the substrate whose
// cycle accounting models a real N-core fabric — per-lane clock gating at
// the barriers, stalls included in the makespan).
//
//   speedup-vs-cores     a fixed 128-member total population split over
//                        N in {1, 2, 4, 8} islands; makespan in GA cycles
//                        shrinks superlinearly with N because the core's
//                        per-generation handshake cost grows with the
//                        subpopulation size — the paper's Sec. V scaling
//                        argument applied to the multi-core extension;
//   quality-vs-topology  isolated vs ring vs star ensembles over the
//                        paper seed schedule: what the migration
//                        interconnect buys in delivered best fitness.
//
// Results land in bench_out/BENCH_islands.json for CI trend tracking.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "gates/compiled.hpp"
#include "island/island.hpp"
#include "supervisor/supervisor.hpp"

namespace {

using namespace gaip;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

island::IslandConfig scaling_cfg(unsigned islands) {
    island::IslandConfig cfg;
    cfg.base.pop_size = static_cast<std::uint8_t>(128 / islands);
    cfg.base.n_gens = 16;
    cfg.base.seed = bench::kPaperSeeds[0];
    cfg.islands = islands;
    cfg.migration.interval = 4;
    cfg.migration.count = 2;
    cfg.backend = core::Substrate::kGates;
    return cfg;
}

}  // namespace

int main() {
    bench::banner("Island-model scaling",
                  "multi-core extension: N GA engines + cycle-level migration interconnect");

    bench::JsonReport report;
    bench::env_block(report);

    // --- speedup vs cores -------------------------------------------------
    std::printf("%-6s %-10s %-12s %-10s %-10s %-10s %s\n", "N", "pop/core", "makespan",
                "speedup", "best", "stall_max", "wall_s");
    std::uint64_t base_makespan = 0;
    bool monotone = true;
    std::uint64_t prev = 0;
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        const auto t0 = std::chrono::steady_clock::now();
        const island::IslandResult r = island::run_island_system(scaling_cfg(n));
        const double wall = seconds_since(t0);
        if (n == 1) base_makespan = r.makespan_cycles;
        if (prev != 0 && r.makespan_cycles >= prev) monotone = false;
        prev = r.makespan_cycles;
        std::uint64_t stall_max = 0;
        for (const island::IslandStats& s : r.islands)
            stall_max = std::max(stall_max, s.stall_cycles);
        const double speedup =
            static_cast<double>(base_makespan) / static_cast<double>(r.makespan_cycles);
        std::printf("%-6u %-10u %-12llu %-10.2f %-10u %-10llu %.2f\n", n, 128 / n,
                    static_cast<unsigned long long>(r.makespan_cycles), speedup,
                    r.best_fitness, static_cast<unsigned long long>(stall_max), wall);
        const std::string p = "scaling_n" + std::to_string(n) + "_";
        report.set(p + "makespan_cycles", r.makespan_cycles)
            .set(p + "speedup", speedup)
            .set(p + "best_fitness", static_cast<std::uint64_t>(r.best_fitness))
            .set(p + "stall_max_cycles", stall_max)
            .set(p + "wall_s", wall);
    }
    report.set("scaling_monotone", static_cast<std::uint64_t>(monotone ? 1 : 0));
    std::printf("monotone speedup: %s\n\n", monotone ? "yes" : "NO");

    // --- quality vs topology ----------------------------------------------
    std::printf("%-8s %-10s %-10s %-10s\n", "seed", "isolated", "ring", "star");
    std::uint64_t sum_iso = 0, sum_ring = 0, sum_star = 0;
    for (const std::uint16_t seed : bench::kPaperSeeds) {
        std::uint16_t best[3] = {0, 0, 0};
        for (int t = 0; t < 3; ++t) {
            island::IslandConfig cfg;
            cfg.base.pop_size = 16;
            cfg.base.n_gens = 24;
            cfg.base.seed = seed;
            cfg.islands = 4;
            cfg.migration.interval = t == 0 ? 0 : 8;
            cfg.migration.count = 2;
            cfg.topology = t == 2 ? island::Topology::kStar : island::Topology::kRing;
            cfg.backend = core::Substrate::kGates;
            best[t] = island::run_island_system(cfg).best_fitness;
        }
        sum_iso += best[0];
        sum_ring += best[1];
        sum_star += best[2];
        std::printf("0x%04X   %-10u %-10u %-10u\n", seed, best[0], best[1], best[2]);
    }
    const double n_seeds = static_cast<double>(bench::kPaperSeeds.size());
    report.set("quality_isolated_mean", static_cast<double>(sum_iso) / n_seeds)
        .set("quality_ring_mean", static_cast<double>(sum_ring) / n_seeds)
        .set("quality_star_mean", static_cast<double>(sum_star) / n_seeds);
    std::printf("mean     %-10.1f %-10.1f %-10.1f\n", sum_iso / n_seeds, sum_ring / n_seeds,
                sum_star / n_seeds);

    report.write(bench::out_path("BENCH_islands.json"));
    return monotone ? 0 : 1;
}
