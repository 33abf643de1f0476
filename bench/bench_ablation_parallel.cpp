// Ablation: parallel configurations (Sec. II-B's acceleration direction).
// Compares, at EQUAL total evaluation budget, three runs of the RT-level
// island system (one engine and one cycle origin, start_GA, for every row):
//   * one big population (a single island),
//   * K seed-parallel engines, best-of (migration off; also reports the
//     wall-clock advantage: K engines run concurrently),
//   * K islands with ring migration.
// Exits nonzero if the 1-thread and 4-thread simulations of the migrating
// array disagree anywhere in the result.
#include <chrono>
#include <thread>

#include "bench/common.hpp"
#include "fitness/functions.hpp"
#include "island/island.hpp"

namespace {

using namespace gaip;

const std::vector<std::uint16_t> kSeeds = {0x2961, 0x061F, 0xB342, 0xAAAA};

island::IslandConfig rtl_array(fitness::FitnessId fn, std::uint8_t pop, std::uint32_t gens,
                               std::vector<std::uint16_t> seeds, std::uint16_t interval) {
    island::IslandConfig cfg;
    cfg.fn = fn;
    cfg.base = {.pop_size = pop, .n_gens = gens, .xover_threshold = 10, .mut_threshold = 1};
    cfg.islands = static_cast<unsigned>(seeds.size());
    cfg.seeds = std::move(seeds);
    cfg.migration.interval = interval;
    cfg.migration.count = 1;
    cfg.backend = core::Substrate::kRtl;
    return cfg;
}

unsigned long long total_evaluations(const island::IslandResult& r) {
    unsigned long long evals = 0;
    for (const island::IslandStats& s : r.islands) evals += s.evaluations;
    return evals;
}

/// Host wall-clock of one IslandSystem::run with a given worker pool size.
double timed_run_ms(island::IslandConfig cfg, unsigned threads, island::IslandResult& out) {
    cfg.threads = threads;
    island::IslandSystem sys(std::move(cfg));
    const auto t0 = std::chrono::steady_clock::now();
    out = sys.run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
    bench::banner("Ablation — parallel GA configurations",
                  "single population vs seed-parallel engines vs islands with migration");

    const auto fns = {fitness::FitnessId::kMBf6_2, fitness::FitnessId::kMShubert2D,
                      fitness::FitnessId::kBf6};

    for (const auto fn : fns) {
        std::printf("\n%s (total budget ~4096 evaluations):\n",
                    fitness::fitness_name(fn).c_str());
        util::TextTable table({"Configuration", "Best fitness", "Evaluations",
                               "HW cycles (wall)", "Note"});
        auto add_row = [&](const char* label, const island::IslandResult& r,
                           const std::string& note) {
            table.add(label, r.best_fitness, total_evaluations(r),
                      static_cast<unsigned long long>(r.makespan_cycles), note);
        };

        // Single population: pop 64 x 64 gens.
        add_row("1 engine, pop 64, 64 gens",
                island::IslandSystem(rtl_array(fn, 64, 64, {0x2961}, 0)).run(), "baseline");

        // Four parallel engines: pop 32 x 32 gens each (same total evals),
        // each with its own seed; they run CONCURRENTLY so the wall-clock
        // cycle count is a fraction of the sequential equivalent.
        const island::IslandResult par =
            island::IslandSystem(rtl_array(fn, 32, 32, kSeeds, 0)).run();
        add_row("4 engines, pop 32, 32 gens, best-of", par,
                "engine " + std::to_string(par.best_island) + " won");

        // The same four engines with ring migration (a second BRAM port in HW).
        const island::IslandResult ring =
            island::IslandSystem(rtl_array(fn, 32, 32, kSeeds, 8)).run();
        add_row("4 islands, ring migration every 8 gens", ring,
                "island " + std::to_string(ring.best_island) + " won");

        table.print();
        table.write_csv(bench::out_path(std::string("ablation_parallel_") +
                                        fitness::fitness_name(fn) + ".csv"));
    }

    // Host-side threading ablation: the migrating 4-island array simulated
    // by a 1-thread pool vs a 4-thread pool. Barrier-to-barrier segments
    // are independent per island, so on a multi-core host the speedup
    // approaches the island count — and the result must not change a bit.
    bool identical = false;
    {
        std::printf("\nHost simulation threading (4 islands, ring migration every 8 gens, "
                    "pop 32 x 32 gens, mBF6_2):\n");
        util::TextTable table({"Worker threads", "Wall ms", "Speedup", "Best fitness",
                               "Identical results"});
        const island::IslandConfig cfg =
            rtl_array(fitness::FitnessId::kMBf6_2, 32, 32, kSeeds, 8);

        island::IslandResult seq, pooled;
        const double ms1 = timed_run_ms(cfg, 1, seq);
        const double ms4 = timed_run_ms(cfg, 4, pooled);
        identical = seq == pooled;
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx", ms1 / ms4);
        table.add("1 (sequential)", static_cast<unsigned long long>(ms1), "1.00x",
                  seq.best_fitness, "-");
        table.add("4 (pool)", static_cast<unsigned long long>(ms4), speedup,
                  pooled.best_fitness, identical ? "yes" : "NO (BUG)");
        table.print();
        table.write_csv(bench::out_path("ablation_parallel_threads.csv"));
        std::printf("(speedup is bounded by the host's core count: "
                    "hardware_concurrency=%u)\n",
                    std::thread::hardware_concurrency());
    }

    std::cout << "\nReadings: at equal budget, the four concurrent engines finish in a\n"
                 "fraction of the single population's wall-clock cycles — the cheapest use\n"
                 "of the core's programmable seed. Migration adds the barrier stalls to\n"
                 "the makespan.\n";
    return identical ? 0 : 1;
}
