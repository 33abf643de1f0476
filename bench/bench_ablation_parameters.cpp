// Ablation: the design choices DESIGN.md calls out — elitism, crossover
// rate, mutation rate, and population sizing — quantified on the behavioral
// model (bit-exact with the RTL, so conclusions transfer). This is the
// experimental backing for the paper's programmability argument: no single
// setting dominates across functions.
#include "bench/common.hpp"
#include "fitness/functions.hpp"

namespace {

using gaip::core::GaParameters;
using gaip::fitness::FitnessId;

double mean_best(FitnessId fn, const GaParameters& base, bool elitism) {
    double sum = 0.0;
    for (const std::uint16_t seed : gaip::bench::kPaperSeeds) {
        GaParameters p = base;
        p.seed = seed;
        const auto r = gaip::core::run_behavioral_ga(p, gaip::core::rom_fitness(fn),
                                                     gaip::prng::RngKind::kCellularAutomaton,
                                                     /*keep_populations=*/false, elitism);
        sum += r.best_fitness;
    }
    return sum / static_cast<double>(gaip::bench::kPaperSeeds.size());
}

}  // namespace

int main() {
    using namespace gaip;
    bench::banner("Ablation — GA parameter design choices",
                  "elitism / crossover threshold / mutation threshold / population size");

    const GaParameters base{.pop_size = 32, .n_gens = 32, .xover_threshold = 10,
                            .mut_threshold = 1, .seed = 0};
    const auto fns = {FitnessId::kMBf6_2, FitnessId::kMShubert2D, FitnessId::kRoyalRoad};

    // 1. Elitism on/off (the core is always elitist; this shows why).
    {
        util::TextTable t({"Function", "mean best WITH elitism", "mean best WITHOUT", "delta"});
        for (const auto fn : fns) {
            const double with = mean_best(fn, base, true);
            const double without = mean_best(fn, base, false);
            t.add(fitness::fitness_name(fn), with, without, with - without);
        }
        t.print();
        t.write_csv(bench::out_path("ablation_elitism.csv"));
    }

    // 2. Crossover threshold sweep.
    {
        std::printf("\nCrossover-threshold sweep (mean best over 6 seeds):\n");
        util::TextTable t({"Function", "XR=0", "XR=4", "XR=8", "XR=10", "XR=12", "XR=15"});
        for (const auto fn : fns) {
            std::vector<std::string> row{fitness::fitness_name(fn)};
            for (const std::uint8_t xr : {0, 4, 8, 10, 12, 15}) {
                GaParameters p = base;
                p.xover_threshold = xr;
                row.push_back(util::TextTable::to_cell(mean_best(fn, p, true)));
            }
            t.add_row(std::move(row));
        }
        t.print();
        t.write_csv(bench::out_path("ablation_xover.csv"));
    }

    // 3. Mutation threshold sweep.
    {
        std::printf("\nMutation-threshold sweep (mean best over 6 seeds):\n");
        util::TextTable t({"Function", "MT=0", "MT=1", "MT=2", "MT=4", "MT=8", "MT=15"});
        for (const auto fn : fns) {
            std::vector<std::string> row{fitness::fitness_name(fn)};
            for (const std::uint8_t mt : {0, 1, 2, 4, 8, 15}) {
                GaParameters p = base;
                p.mut_threshold = mt;
                row.push_back(util::TextTable::to_cell(mean_best(fn, p, true)));
            }
            t.add_row(std::move(row));
        }
        t.print();
        t.write_csv(bench::out_path("ablation_mutation.csv"));
    }

    // 4. Population size at a fixed evaluation budget (pop x gens ~ 2048):
    // the real hardware trade (bigger pop = longer selection scans too).
    {
        std::printf("\nPopulation size at fixed evaluation budget (~2048 evals):\n");
        util::TextTable t({"Function", "P=8/G=256", "P=16/G=128", "P=32/G=64", "P=64/G=32",
                           "P=128/G=16"});
        for (const auto fn : fns) {
            std::vector<std::string> row{fitness::fitness_name(fn)};
            for (const auto& [pop, gens] : {std::pair<int, int>{8, 256}, {16, 128}, {32, 64},
                                           {64, 32}, {128, 16}}) {
                GaParameters p = base;
                p.pop_size = static_cast<std::uint8_t>(pop);
                p.n_gens = static_cast<std::uint32_t>(gens);
                row.push_back(util::TextTable::to_cell(mean_best(fn, p, true)));
            }
            t.add_row(std::move(row));
        }
        t.print();
        t.write_csv(bench::out_path("ablation_population.csv"));
    }

    std::cout << "\nReadings: elitism is uniformly positive (Rudolph's convergence argument);\n"
                 "the best crossover/mutation thresholds differ BY FUNCTION — the empirical\n"
                 "core of the paper's case for run-time-programmable parameters.\n";
    return 0;
}
