// Property tests of the GA operators and the behavioral optimization cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <utility>

#include "core/behavioral.hpp"
#include "fitness/functions.hpp"

namespace gaip::core {
namespace {

// ------------------------------------------------------------ selection --

std::vector<std::uint32_t> prefix_of(const std::vector<Member>& pop) {
    std::vector<std::uint32_t> prefix;
    std::uint32_t cum = 0;
    for (const Member& m : pop) prefix.push_back(cum += m.fitness);
    return prefix;
}

// The reference scan's pick, after checking that the prefix-sum closed form
// the engine uses picks the same member.
std::size_t select_both(const std::vector<Member>& pop, std::uint32_t fit_sum, std::uint16_t r) {
    const std::size_t scan = proportionate_select(pop, fit_sum, r);
    EXPECT_EQ(select_from_prefix(prefix_of(pop), fit_sum, r), scan)
        << "P " << pop.size() << " fit_sum " << fit_sum << " r " << r;
    return scan;
}

TEST(ProportionateSelect, PicksTheMemberCrossingTheThreshold) {
    const std::vector<Member> pop = {{0xA, 10}, {0xB, 20}, {0xC, 30}, {0xD, 40}};
    const std::uint32_t sum = 100;
    // r = 0 -> threshold 0 -> first member with nonzero fitness wins.
    EXPECT_EQ(select_both(pop, sum, 0), 0u);
    // threshold = (100 * r) >> 16; choose r so threshold = 25: member 1
    // makes cum 30 > 25.
    const std::uint16_t r25 = static_cast<std::uint16_t>((25u << 16) / 100u + 1);
    EXPECT_EQ(select_both(pop, sum, r25), 1u);
    // threshold just below the full sum lands on the last member.
    EXPECT_EQ(select_both(pop, sum, 0xFFFF), 3u);
}

TEST(ProportionateSelect, ZeroFitnessMembersAreSkipped) {
    const std::vector<Member> pop = {{0xA, 0}, {0xB, 0}, {0xC, 5}};
    EXPECT_EQ(select_both(pop, 5, 0), 2u);
}

TEST(ProportionateSelect, AllZeroFallsBackAfterTwoPasses) {
    const std::vector<Member> pop = {{1, 0}, {2, 0}, {3, 0}};
    // Fitness sum 0: the scan can never terminate naturally; the 2P-read
    // fallback must select deterministically instead of hanging.
    const std::size_t idx = select_both(pop, 0, 0x1234);
    EXPECT_LT(idx, pop.size());
}

TEST(ProportionateSelect, SelectionFrequencyTracksFitness) {
    // Statistical property: over the full threshold range, each member is
    // chosen with probability ~ fitness / fitness_sum.
    const std::vector<Member> pop = {{0, 10}, {1, 40}, {2, 30}, {3, 20}};
    const std::uint32_t sum = 100;
    std::map<std::size_t, int> counts;
    for (std::uint32_t r = 0; r <= 0xFFFF; r += 7) counts[select_both(pop, sum, r)]++;
    const double total = 65536.0 / 7.0;
    EXPECT_NEAR(counts[0] / total, 0.10, 0.02);
    EXPECT_NEAR(counts[1] / total, 0.40, 0.02);
    EXPECT_NEAR(counts[2] / total, 0.30, 0.02);
    EXPECT_NEAR(counts[3] / total, 0.20, 0.02);
}

TEST(SelectFromPrefix, MatchesTheScanOnRandomPopulations) {
    // Seeded search over P, fitness shape, r and the fit_sum register: true,
    // stale below the population's sum (a poke raised it), stale above it
    // (a poke lowered it, so the scan wraps into its second pass) and above
    // twice it (the 2P-read cap ends the scan).
    std::mt19937 gen(0x5E1EC7u);
    auto uniform = [&](std::uint32_t lo, std::uint32_t hi) {
        return std::uniform_int_distribution<std::uint32_t>(lo, hi)(gen);
    };
    constexpr int kCases = 120'000;
    for (int c = 0; c < kCases; ++c) {
        std::vector<Member> pop(uniform(1, 128));
        const std::uint32_t shape = uniform(0, 3);
        for (Member& m : pop) {
            m.candidate = static_cast<std::uint16_t>(uniform(0, 0xFFFF));
            std::uint32_t f = 0;  // shape 1: all zero
            if (shape == 0) f = uniform(0, 0xFFFF);
            if (shape == 2 && uniform(0, 7) == 0) f = uniform(1, 2);  // near zero
            if (shape == 3 && uniform(0, 1) == 0) f = uniform(1, 300);  // half zero
            m.fitness = static_cast<std::uint16_t>(f);
        }
        const std::uint32_t total = prefix_of(pop).back();
        std::uint32_t fit_sum = total;
        switch (uniform(0, 3)) {
            case 0: break;
            case 1: fit_sum = total == 0 ? 0 : uniform(0, total - 1); break;
            case 2: fit_sum = uniform(total, 2 * total + 1); break;
            default: fit_sum = uniform(2 * total + 1, 8 * total + 64); break;
        }
        std::uint16_t r = 0;
        switch (uniform(0, 2)) {
            case 0: r = 0; break;
            case 1: r = 0xFFFF; break;
            default: r = static_cast<std::uint16_t>(uniform(0, 0xFFFF));
        }
        ASSERT_EQ(select_from_prefix(prefix_of(pop), fit_sum, r),
                  proportionate_select(pop, fit_sum, r))
            << "case " << c << " P " << pop.size() << " total " << total << " fit_sum "
            << fit_sum << " r " << r;
    }
}

TEST(SelectFromPrefix, StaleSumPastTheTotalWrapsLikeTheScan) {
    // fit_sum 100 over a population summing to 40: thresholds 40..99 are
    // found on the scan's second pass, and from 80 on it hits the 2P-read
    // cap at the last slot.
    const std::vector<Member> pop = {{0xA, 10}, {0xB, 0}, {0xC, 30}};
    EXPECT_EQ(select_both(pop, 100, static_cast<std::uint16_t>((45u << 16) / 100u + 1)), 0u);
    EXPECT_EQ(select_both(pop, 100, static_cast<std::uint16_t>((55u << 16) / 100u + 1)), 2u);
    EXPECT_EQ(select_both(pop, 100, static_cast<std::uint16_t>((85u << 16) / 100u + 1)), 2u);
}

TEST(SelectFromPrefix, RejectsAnEmptyPopulation) {
    EXPECT_THROW(select_from_prefix({}, 0, 0), std::invalid_argument);
}

// ------------------------------------------------------------ crossover --

class CrossoverCutSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CrossoverCutSweep, OffspringMixHalvesExactlyAtCut) {
    const unsigned cut = GetParam();
    const std::uint16_t p1 = 0xAAAA, p2 = 0x5555;
    const auto [o1, o2] = crossover_pair(p1, p2, cut);
    for (unsigned b = 0; b < 16; ++b) {
        const bool from_p1 = b < cut;
        EXPECT_EQ((o1 >> b) & 1, ((from_p1 ? p1 : p2) >> b) & 1) << "cut " << cut << " bit " << b;
        EXPECT_EQ((o2 >> b) & 1, ((from_p1 ? p2 : p1) >> b) & 1) << "cut " << cut << " bit " << b;
    }
}

TEST_P(CrossoverCutSweep, PreservesMultisetOfBits) {
    // At every bit position, {o1, o2} holds the same pair of values as
    // {p1, p2} — crossover only exchanges material, never invents it.
    const unsigned cut = GetParam();
    const std::uint16_t p1 = 0xBEEF, p2 = 0x1234;
    const auto [o1, o2] = crossover_pair(p1, p2, cut);
    EXPECT_EQ(o1 ^ o2, p1 ^ p2);
    EXPECT_EQ(o1 & o2, p1 & p2);
}

INSTANTIATE_TEST_SUITE_P(AllCuts, CrossoverCutSweep, ::testing::Range(0u, 16u));

TEST(Crossover, CutZeroSwapsParents) {
    const auto [o1, o2] = crossover_pair(0xBEEF, 0x1234, 0);
    EXPECT_EQ(o1, 0x1234);
    EXPECT_EQ(o2, 0xBEEF);
}

// ------------------------------------------------------ optimization cycle --

fitness::FitnessId const kFns[] = {fitness::FitnessId::kOneMax, fitness::FitnessId::kMBf6_2,
                                   fitness::FitnessId::kMShubert2D};

TEST(BehavioralGa, DeterministicForSameSeed) {
    const GaParameters p{.pop_size = 32, .n_gens = 16, .xover_threshold = 10,
                         .mut_threshold = 2, .seed = 0xB342};
    auto fn = [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kMBf6_2, x); };
    const RunResult a = run_behavioral_ga(p, fn);
    const RunResult b = run_behavioral_ga(p, fn);
    EXPECT_EQ(a.best_candidate, b.best_candidate);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g)
        EXPECT_EQ(a.history[g].population, b.history[g].population);
}

TEST(BehavioralGa, DifferentSeedsExploreDifferently) {
    const GaParameters base{.pop_size = 32, .n_gens = 8, .xover_threshold = 10,
                            .mut_threshold = 1, .seed = 0x2961};
    GaParameters other = base;
    other.seed = 0x061F;
    auto fn = [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kBf6, x); };
    const RunResult a = run_behavioral_ga(base, fn);
    const RunResult b = run_behavioral_ga(other, fn);
    EXPECT_NE(a.history[0].population, b.history[0].population);
}

TEST(BehavioralGa, ElitismMakesBestFitnessMonotone) {
    for (const auto id : kFns) {
        const GaParameters p{.pop_size = 24, .n_gens = 24, .xover_threshold = 12,
                             .mut_threshold = 4, .seed = 0xAAAA};
        const RunResult r =
            run_behavioral_ga(p, [&](std::uint16_t x) { return fitness::fitness_u16(id, x); });
        for (std::size_t g = 1; g < r.history.size(); ++g) {
            EXPECT_GE(r.history[g].best_fit, r.history[g - 1].best_fit)
                << fitness::fitness_name(id) << " gen " << g;
        }
    }
}

TEST(BehavioralGa, EliteMemberPresentInEveryGeneration) {
    const GaParameters p{.pop_size = 16, .n_gens = 12, .xover_threshold = 12,
                         .mut_threshold = 8, .seed = 7};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kOneMax, x); });
    for (std::size_t g = 1; g < r.history.size(); ++g) {
        const auto& pop = r.history[g].population;
        ASSERT_FALSE(pop.empty());
        // The elite is copied at the START of generation g, so slot 0 holds
        // the best-ever member as of the end of generation g-1.
        EXPECT_EQ(pop[0].fitness, r.history[g - 1].best_fit)
            << "slot 0 must hold the elite at generation " << g;
    }
}

TEST(BehavioralGa, FitSumMatchesPopulation) {
    const GaParameters p{.pop_size = 20, .n_gens = 10, .xover_threshold = 10,
                         .mut_threshold = 2, .seed = 99};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kF3, x); });
    for (const GenerationStats& s : r.history) {
        std::uint32_t sum = 0;
        for (const Member& m : s.population) sum += m.fitness;
        EXPECT_EQ(sum, s.fit_sum) << "gen " << s.gen;
    }
}

TEST(BehavioralGa, EvaluationCountIsPopTimesGensPlusInitial) {
    const GaParameters p{.pop_size = 32, .n_gens = 10, .xover_threshold = 10,
                         .mut_threshold = 1, .seed = 5};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kOneMax, x); });
    // Initial pop evaluates pop_size; each generation evaluates pop_size - 1
    // offspring (the elite is copied, not re-evaluated).
    EXPECT_EQ(r.evaluations, 32u + 10u * 31u);
}

TEST(BehavioralGa, SolvesOneMax) {
    const GaParameters p{.pop_size = 64, .n_gens = 64, .xover_threshold = 12,
                         .mut_threshold = 2, .seed = 0x2961};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kOneMax, x); });
    EXPECT_EQ(r.best_candidate, 0xFFFF);
}

TEST(BehavioralGa, MutationRateZeroNeverFlipsBits) {
    // With crossover off and mutation off, the population can only contain
    // copies of initial individuals.
    const GaParameters p{.pop_size = 16, .n_gens = 8, .xover_threshold = 0,
                         .mut_threshold = 0, .seed = 0x1111};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kOneMax, x); });
    const auto& initial = r.history[0].population;
    for (const Member& m : r.history.back().population) {
        const bool found = std::any_of(initial.begin(), initial.end(), [&](const Member& i) {
            return i.candidate == m.candidate;
        });
        EXPECT_TRUE(found) << "0x" << std::hex << m.candidate << " not in the initial population";
    }
}

TEST(BehavioralGa, HistoryCoversEveryGeneration) {
    const GaParameters p{.pop_size = 8, .n_gens = 5, .xover_threshold = 10,
                         .mut_threshold = 1, .seed = 3};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kF2, x); });
    ASSERT_EQ(r.history.size(), 6u);  // gen 0 (initial) .. gen 5
    for (std::size_t g = 0; g < r.history.size(); ++g) EXPECT_EQ(r.history[g].gen, g);
}

TEST(BehavioralGa, KeepPopulationsFalseDropsSnapshots) {
    const GaParameters p{.pop_size = 8, .n_gens = 3, .xover_threshold = 10,
                         .mut_threshold = 1, .seed = 3};
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kF2, x); },
        prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
    for (const GenerationStats& s : r.history) EXPECT_TRUE(s.population.empty());
    EXPECT_GT(r.best_fitness, 0u);
}


// A scan-driven copy of BehavioralEngine's generation loop, written out
// from the algorithm: parents drawn with the reference proportionate_select.
struct ScanReference {
    ScanReference(const GaParameters& p, FitnessFn fitness)
        : params(p), fitness(std::move(fitness)), rng(p.seed), pop(p.pop_size) {
        for (Member& m : pop) {
            m.candidate = rng.next16();
            m.fitness = this->fitness(m.candidate);
            fit_sum += m.fitness;
            offer(m);
        }
    }

    void offer(const Member& m) {
        if (m.fitness > best.fitness) best = m;
    }

    std::uint16_t mutate(std::uint16_t off) {
        const std::uint16_t rn = rng.next16();
        if ((rn & 0xF) < params.mut_threshold)
            off ^= static_cast<std::uint16_t>(1u << ((rn >> 4) & 0xF));
        return off;
    }

    void step() {
        std::vector<Member> next = {best};
        std::uint32_t sum = best.fitness;
        while (next.size() < pop.size()) {
            const std::size_t i1 = proportionate_select(pop, fit_sum, rng.next16());
            const std::size_t i2 = proportionate_select(pop, fit_sum, rng.next16());
            const std::uint16_t rx = rng.next16();
            std::uint16_t off[2] = {pop[i1].candidate, pop[i2].candidate};
            if ((rx & 0xF) < params.xover_threshold)
                std::tie(off[0], off[1]) = crossover_pair(off[0], off[1], (rx >> 4) & 0xF);
            for (int k = 0; k < 2 && next.size() < pop.size(); ++k) {
                const std::uint16_t c = mutate(off[k]);
                next.push_back({c, fitness(c)});
                sum += next.back().fitness;
                offer(next.back());
            }
        }
        pop = std::move(next);
        fit_sum = sum;
    }

    GaParameters params;
    FitnessFn fitness;
    RngState rng;
    std::vector<Member> pop;
    std::uint32_t fit_sum = 0;
    Member best;
};

TEST(BehavioralEngine, PokedRunMatchesScanReferenceEveryGeneration) {
    // The island migration path: members poked between generations leave
    // fit_sum stale, both below and above the bank's true sum. The engine's
    // prefix-sum selection must still pick what the scan picks.
    const FitnessFn fn = rom_fitness(fitness::FitnessId::kMBf6_2);
    for (const std::uint8_t pop : {std::uint8_t{3}, std::uint8_t{16}, std::uint8_t{33},
                                   std::uint8_t{128}}) {
        const GaParameters p{.pop_size = pop, .n_gens = 40, .xover_threshold = 11,
                             .mut_threshold = 3, .seed = static_cast<std::uint16_t>(0x2961 + pop)};
        BehavioralEngine eng(p, fn, prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
        ScanReference ref(eng.params(), fn);
        std::mt19937 gen(pop);
        while (!eng.done()) {
            // Poke up to 4 slots: zero-fitness members (the scan runs into its
            // second pass) or members far fitter than the bank (fit_sum short).
            const std::size_t n = ref.pop.size();
            for (unsigned k = 0; k < std::min<std::size_t>(4, n); ++k) {
                const std::size_t slot = gen() % n;
                const Member m{static_cast<std::uint16_t>(gen()),
                               static_cast<std::uint16_t>(gen() % 2 == 0 ? 0 : gen())};
                eng.poke_member(slot, m);
                ref.pop[slot] = m;
            }
            eng.step_generation();
            ref.step();
            ASSERT_EQ(eng.population(), ref.pop)
                << "P " << unsigned{pop} << " gen " << eng.generation();
            ASSERT_EQ(eng.fit_sum(), ref.fit_sum) << "gen " << eng.generation();
            ASSERT_EQ(eng.best_fitness(), ref.best.fitness) << "gen " << eng.generation();
            ASSERT_EQ(eng.best_candidate(), ref.best.candidate) << "gen " << eng.generation();
        }
    }
}

TEST(RomFitness, EqualsTheClosedFormEverywhere) {
    for (std::size_t i = 0; i < fitness::kNumFitnessIds; ++i) {
        const auto id = static_cast<fitness::FitnessId>(i);
        const FitnessFn rom = rom_fitness(id);
        for (std::uint32_t c = 0; c <= 0xFFFF; ++c) {
            const auto x = static_cast<std::uint16_t>(c);
            ASSERT_EQ(rom(x), fitness::fitness_u16(id, x)) << fitness::fitness_name(id) << " " << c;
        }
    }
}

TEST(BehavioralGaSoak, PresetThreeSizedRunStaysSane) {
    // The largest Table IV preset (pop 128 x 4096 generations = 524k
    // evaluations) on the behavioral model: completes, stays monotone, and
    // solves OneMax exactly. This is the scale the hardware presets are
    // specified for; the RTL equivalent is covered at smaller sizes by the
    // lockstep equivalence tests.
    GaParameters p = preset_parameters(3);
    p.seed = 0x2961;
    const RunResult r = run_behavioral_ga(
        p, [](std::uint16_t x) { return fitness::fitness_u16(fitness::FitnessId::kOneMax, x); },
        prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
    EXPECT_EQ(r.evaluations, 128u + 4096u * 127u);
    EXPECT_EQ(r.best_candidate, 0xFFFF);
    for (std::size_t g = 1; g < r.history.size(); ++g)
        ASSERT_GE(r.history[g].best_fit, r.history[g - 1].best_fit) << g;
}

}  // namespace
}  // namespace gaip::core
