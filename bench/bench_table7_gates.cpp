// Table VII, entirely at gate level: the 24 hardware parameter settings
// (6 paper seeds x pop {32,64} x XR {10,12}, mutation 1/16, 64 generations)
// of the mBF6_2 sweep run as 24 LANES of ONE bit-parallel simulation of the
// complete gate-level GA core + RNG module (BatchGateRunner), instead of 24
// sequential scalar netlist simulations. Every lane's best fitness is
// cross-checked against the RT-level GaSystem result for the same setting.
#include <chrono>
#include <cstdio>

#include "bench/bench_tables7_9_common.hpp"
#include "gates/batch_runner.hpp"

int main() {
    using namespace gaip;
    bench::banner("Table VII at GATE LEVEL — mBF6_2, batched 24-lane simulation",
                  "Sec. IV experiments re-run on the flattened netlist; one lane per setting");

    const fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;

    // Lane k = seed index * 4 + cell index (kSweepCells order).
    std::vector<core::GaParameters> lanes;
    for (const std::uint16_t seed : bench::kPaperSeeds)
        for (const bench::SweepCell& c : bench::kSweepCells)
            lanes.push_back({.pop_size = c.pop, .n_gens = 64, .xover_threshold = c.xr,
                             .mut_threshold = 1, .seed = seed});

    gates::BatchGateRunner runner(fn, lanes);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<gates::BatchLaneResult> batch = runner.run();
    const double t_batch =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    // RT-level reference grid for the same settings (the acceptance check).
    unsigned mismatches = 0;
    std::vector<std::uint16_t> rtl_best(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        const core::RunResult r = bench::run_hw(fn, lanes[k], /*keep_populations=*/false);
        rtl_best[k] = r.best_fitness;
        if (!batch[k].finished || batch[k].best_fitness != r.best_fitness ||
            batch[k].best_candidate != r.best_candidate)
            ++mismatches;
    }

    util::TextTable table({"Seed(hex)", "P32/XR10", "P32/XR12", "P64/XR10", "P64/XR12",
                           "rtl(P32/10)", "rtl(P32/12)", "rtl(P64/10)", "rtl(P64/12)"});
    unsigned best_overall = 0;
    for (std::size_t s = 0; s < bench::kPaperSeeds.size(); ++s) {
        const std::size_t base = s * bench::kSweepCells.size();
        for (std::size_t i = 0; i < 4; ++i)
            best_overall = std::max<unsigned>(best_overall, batch[base + i].best_fitness);
        table.add(util::hex16(bench::kPaperSeeds[s]), batch[base + 0].best_fitness,
                  batch[base + 1].best_fitness, batch[base + 2].best_fitness,
                  batch[base + 3].best_fitness, rtl_best[base + 0], rtl_best[base + 1],
                  rtl_best[base + 2], rtl_best[base + 3]);
    }
    table.print();
    table.write_csv(bench::out_path("table7_gates.csv"));

    const auto opt = fitness::grid_optimum(fn);
    std::printf("\nbest over all 24 gate-level settings: %u   optimum: %u (%s)\n",
                best_overall, opt.best_value,
                bench::vs_paper(best_overall, opt.best_value).c_str());
    std::printf("gate-vs-RTL agreement: %zu/%zu lanes bit-exact (fitness + candidate)\n",
                lanes.size() - mismatches, lanes.size());

    // Throughput: the batched simulation advanced 24 full GA runs per pass.
    const double gate_cycles = static_cast<double>(runner.cycles());
    std::printf("\nbatched gate simulation: %zu lanes, %.0f GA cycles, %.2f s wall "
                "(%.0f cycles/s; %.0f lane-cycles/s run-equivalent)\n",
                lanes.size(), gate_cycles, t_batch, gate_cycles / t_batch,
                gate_cycles * static_cast<double>(lanes.size()) / t_batch);
    std::printf("CSV: %s\n", bench::out_path("table7_gates.csv").c_str());

    if (mismatches > 0) {
        std::printf("ERROR: gate-level lanes diverge from the RT-level reference!\n");
        return 1;
    }
    return 0;
}
