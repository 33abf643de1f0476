// Behavioral model of the GA core: the same algorithm the RTL FSM executes,
// without timing. This mirrors the paper's design flow, where a behavioral
// VHDL model was written first and the synthesized RT-level netlist was
// verified against it. Here the two models share the exact RNG-consumption
// order, so for identical parameters and seed the behavioral run and the
// RTL simulation produce bit-identical populations, statistics, and best
// individuals — the strongest cross-verification available to the tests.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "prng/rng_module.hpp"

namespace gaip::core {

/// One population member as stored in GA memory.
struct Member {
    std::uint16_t candidate = 0;
    std::uint16_t fitness = 0;

    friend bool operator==(const Member&, const Member&) = default;
};

/// Snapshot taken at each generation boundary (what the RTL monitor taps
/// export at the kGenCheck pulse). gen == 0 is the initial population.
struct GenerationStats {
    std::uint32_t gen = 0;
    std::uint16_t best_fit = 0;
    std::uint16_t best_ind = 0;
    std::uint32_t fit_sum = 0;
    std::vector<Member> population;

    double mean_fitness() const {
        if (population.empty()) return 0.0;
        return static_cast<double>(fit_sum) / static_cast<double>(population.size());
    }
};

struct RunResult {
    std::uint16_t best_candidate = 0;
    std::uint16_t best_fitness = 0;
    std::uint64_t evaluations = 0;
    std::vector<GenerationStats> history;  ///< one entry per generation, 0..n_gens
};

using FitnessFn = std::function<std::uint16_t(std::uint16_t)>;

/// The fitness function `id` as the FEMs compute it: a read of the cached
/// lookup ROM (fitness::fitness_rom), which holds fitness_u16(id, c) at
/// address c. Same values as the closed form, at the cost of one load.
FitnessFn rom_fitness(fitness::FitnessId id);

/// Deterministic 16-bit generator state shared with the RTL RNG module.
class RngState {
public:
    explicit RngState(std::uint16_t seed, prng::RngKind kind = prng::RngKind::kCellularAutomaton)
        : state_(seed == 0 ? 1 : seed), kind_(kind) {}

    std::uint16_t next16() noexcept {
        state_ = prng::rng_step(kind_, state_);
        return state_;
    }

    std::uint16_t state() const noexcept { return state_; }

private:
    std::uint16_t state_;
    prng::RngKind kind_;
};

/// Proportionate (roulette) selection exactly as the core's scan implements
/// it: threshold = (fit_sum * r) >> 16, wrap-around scan, 2P-read fallback.
/// This is the reference scan, O(P) per draw; BehavioralEngine draws through
/// select_from_prefix instead, which returns the same index.
std::size_t proportionate_select(const std::vector<Member>& pop, std::uint32_t fit_sum,
                                 std::uint16_t r);

/// Closed form of proportionate_select in O(log P). `prefix[i]` is the sum
/// of the fitness values of members 0..i (inclusive) and `fit_sum` the
/// register the threshold is taken from, which may be stale. With
/// total = prefix.back() and thresh = (fit_sum * r) >> 16:
///   * thresh < total: the scan's first pass stops at the first i with
///     prefix[i] > thresh;
///   * otherwise its second pass carries cum = total and stops at the first
///     i with prefix[i] > thresh - total, and its 2P-read cap stops it at
///     slot P-1 when there is no such i (thresh >= 2 * total, or every
///     fitness zero).
/// So the result equals the scan for every fit_sum, stale ones included.
std::size_t select_from_prefix(const std::vector<std::uint32_t>& prefix, std::uint32_t fit_sum,
                               std::uint16_t r);

/// Single-point crossover via the bit-mask construction of Fig. 3.
std::pair<std::uint16_t, std::uint16_t> crossover_pair(std::uint16_t p1, std::uint16_t p2,
                                                       unsigned cut);

/// Resumable form of the behavioral model: the same algorithm, one
/// generation at a time, with the current population exposed between
/// steps. This is the software analog of parking the RTL core at the
/// kGenCheck boundary and poking GA memory through the simulator backdoor —
/// what the island interconnect does to apply migration. The semantics
/// mirror the hardware exactly:
///   * poke_member() rewrites a slot of the CURRENT population bank only;
///     the running fitness sum (`fit_sum`) is a register loaded at the
///     previous kGenEnd and stays STALE until the next generation completes
///     (the next selection threshold uses the pre-poke sum, while the scan
///     reads the poked fitness values — identical to the RTL timing);
///   * the best-ever tracker is a register too: a poked member enters it
///     only once an offspring evaluation beats it, never retroactively.
/// Each generation draws its parents with select_from_prefix over prefix
/// sums of the current bank, rebuilt when the generation starts (so pokes
/// are included), which makes a generation O(P log P) instead of the
/// scan's O(P^2) with bit-identical picks.
/// run_behavioral_ga() is a thin wrapper over this class; the
/// behavioral-vs-RTL equivalence tests pin both to the same bit pattern.
class BehavioralEngine {
public:
    BehavioralEngine(const GaParameters& params, FitnessFn fitness,
                     prng::RngKind rng_kind = prng::RngKind::kCellularAutomaton,
                     bool keep_populations = true, bool elitism = true);

    /// Resolved parameters actually run (preset 0 resolution applied).
    const GaParameters& params() const noexcept { return params_; }
    /// Completed generations so far (0 = initial population only).
    std::uint32_t generation() const noexcept { return gen_; }
    bool done() const noexcept { return gen_ >= params_.n_gens; }

    /// Evolve one generation (throws std::logic_error when done()).
    void step_generation();
    /// Evolve until `gen` generations have completed (no-op if past it).
    void run_to(std::uint32_t gen) {
        while (gen_ < gen && !done()) step_generation();
    }

    // --- inter-generation state access (the island migration backdoor) ---
    const std::vector<Member>& population() const noexcept { return cur_; }
    /// Overwrite one slot of the current bank. Leaves fit_sum() and the
    /// best-ever registers untouched (see class comment).
    void poke_member(std::size_t slot, Member m);
    /// The stale fitness-sum register the NEXT generation's selection uses.
    std::uint32_t fit_sum() const noexcept { return fit_sum_cur_; }

    std::uint16_t best_fitness() const noexcept { return best_fit_; }
    std::uint16_t best_candidate() const noexcept { return best_ind_; }
    std::uint64_t evaluations() const noexcept { return evaluations_; }
    const std::vector<GenerationStats>& history() const noexcept { return history_; }

    /// Assemble the RunResult a completed (or truncated) run delivers.
    RunResult result() const;

private:
    void offer_best(std::uint16_t candidate, std::uint16_t fitness) noexcept {
        if (fitness > best_fit_) {  // strict: first-seen wins ties, like the RTL
            best_fit_ = fitness;
            best_ind_ = candidate;
        }
    }
    void snapshot();

    GaParameters params_;
    FitnessFn fitness_;
    RngState rng_;
    bool keep_populations_;
    bool elitism_;

    std::vector<Member> cur_;
    std::vector<Member> next_;
    std::vector<std::uint32_t> prefix_;  ///< inclusive fitness prefix sums of cur_
    std::uint32_t fit_sum_cur_ = 0;
    std::uint32_t gen_ = 0;
    std::uint16_t best_fit_ = 0;
    std::uint16_t best_ind_ = 0;
    std::uint64_t evaluations_ = 0;
    std::vector<GenerationStats> history_;
};

/// Run the full optimization cycle. `keep_populations` controls whether the
/// per-generation history stores full population snapshots (needed by the
/// convergence-scatter benches) or only the scalar statistics. `elitism`
/// exists for the ablation bench only — the hardware core is always elitist
/// (its convergence guarantee rests on it, Rudolph [17]); disabling it here
/// quantifies what that design choice buys.
RunResult run_behavioral_ga(const GaParameters& params, const FitnessFn& fitness,
                            prng::RngKind rng_kind = prng::RngKind::kCellularAutomaton,
                            bool keep_populations = true, bool elitism = true);

}  // namespace gaip::core
