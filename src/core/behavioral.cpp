#include "core/behavioral.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fitness/rom_builder.hpp"
#include "util/bits.hpp"

namespace gaip::core {

std::size_t proportionate_select(const std::vector<Member>& pop, std::uint32_t fit_sum,
                                 std::uint16_t r) {
    if (pop.empty()) throw std::invalid_argument("proportionate_select: empty population");
    const std::uint32_t thresh =
        static_cast<std::uint32_t>((static_cast<std::uint64_t>(fit_sum) * r) >> 16);
    std::uint32_t cum = 0;
    std::size_t idx = 0;
    for (std::size_t reads = 0;; ++reads) {
        const std::uint16_t fit = pop[idx].fitness;
        if (cum + fit > thresh || reads + 1 >= 2 * pop.size()) return idx;
        cum += fit;
        idx = (idx + 1) % pop.size();
    }
}

std::size_t select_from_prefix(const std::vector<std::uint32_t>& prefix, std::uint32_t fit_sum,
                               std::uint16_t r) {
    if (prefix.empty()) throw std::invalid_argument("select_from_prefix: empty population");
    const std::uint32_t thresh =
        static_cast<std::uint32_t>((static_cast<std::uint64_t>(fit_sum) * r) >> 16);
    const std::uint32_t total = prefix.back();
    const std::uint32_t t = thresh < total ? thresh : thresh - total;
    // upper_bound with a select in place of the branch: the thresholds are
    // random, so a branching search mispredicts about half its steps. The
    // answer (first i with prefix[i] > t, or P) stays in [lo, lo + n].
    std::size_t lo = 0;
    for (std::size_t n = prefix.size(); n > 1; n -= n / 2)
        lo = prefix[lo + n / 2] <= t ? lo + n / 2 : lo;
    const std::size_t first = lo + (prefix[lo] <= t ? 1 : 0);
    return std::min(first, prefix.size() - 1);
}

FitnessFn rom_fitness(fitness::FitnessId id) {
    return [rom = fitness::fitness_rom(id)](std::uint16_t c) { return rom->words()[c]; };
}

std::pair<std::uint16_t, std::uint16_t> crossover_pair(std::uint16_t p1, std::uint16_t p2,
                                                       unsigned cut) {
    const std::uint16_t mask = util::crossover_mask(cut);
    const auto off1 = static_cast<std::uint16_t>((p1 & mask) | (p2 & ~mask));
    const auto off2 = static_cast<std::uint16_t>((p2 & mask) | (p1 & ~mask));
    return {off1, off2};
}

namespace {

std::uint16_t mutate(std::uint16_t off, std::uint16_t rn, std::uint8_t mut_thresh) noexcept {
    if ((rn & 0xF) < mut_thresh) off ^= static_cast<std::uint16_t>(1u << ((rn >> 4) & 0xF));
    return off;
}

}  // namespace

BehavioralEngine::BehavioralEngine(const GaParameters& raw_params, FitnessFn fitness,
                                   prng::RngKind rng_kind, bool keep_populations, bool elitism)
    : params_(resolve_parameters(0, raw_params)),
      fitness_(std::move(fitness)),
      rng_(params_.seed, rng_kind),
      keep_populations_(keep_populations),
      elitism_(elitism) {
    // --- initial population ---
    cur_.resize(params_.pop_size);
    next_.resize(params_.pop_size);
    prefix_.resize(params_.pop_size);
    for (Member& m : cur_) {
        m.candidate = rng_.next16();
        m.fitness = fitness_(m.candidate);
        ++evaluations_;
        fit_sum_cur_ += m.fitness;
        offer_best(m.candidate, m.fitness);
    }
    snapshot();
}

void BehavioralEngine::snapshot() {
    GenerationStats s;
    s.gen = gen_;
    s.best_fit = best_fit_;
    s.best_ind = best_ind_;
    s.fit_sum = fit_sum_cur_;
    if (keep_populations_) s.population = cur_;
    history_.push_back(std::move(s));
}

void BehavioralEngine::poke_member(std::size_t slot, Member m) {
    if (slot >= cur_.size())
        throw std::invalid_argument("BehavioralEngine::poke_member: slot out of range");
    cur_[slot] = m;
}

void BehavioralEngine::step_generation() {
    if (done()) throw std::logic_error("BehavioralEngine: run already complete");

    std::uint32_t cum = 0;
    for (std::size_t i = 0; i < cur_.size(); ++i) prefix_[i] = cum += cur_[i].fitness;

    std::uint32_t fit_sum_new = 0;
    std::size_t idx = 0;
    if (elitism_) {
        // Elitism: the best-ever member occupies slot 0 of the new bank.
        next_[0] = {best_ind_, best_fit_};
        fit_sum_new = best_fit_;
        idx = 1;
    }

    while (idx < params_.pop_size) {
        const std::uint16_t r1 = rng_.next16();
        const std::size_t i1 = select_from_prefix(prefix_, fit_sum_cur_, r1);
        const std::uint16_t r2 = rng_.next16();
        const std::size_t i2 = select_from_prefix(prefix_, fit_sum_cur_, r2);

        const std::uint16_t rx = rng_.next16();
        std::uint16_t off1 = cur_[i1].candidate;
        std::uint16_t off2 = cur_[i2].candidate;
        if ((rx & 0xF) < params_.xover_threshold) {
            std::tie(off1, off2) = crossover_pair(off1, off2, (rx >> 4) & 0xF);
        }

        off1 = mutate(off1, rng_.next16(), params_.mut_threshold);
        const std::uint16_t f1 = fitness_(off1);
        ++evaluations_;
        next_[idx] = {off1, f1};
        fit_sum_new += f1;
        offer_best(off1, f1);
        ++idx;
        if (idx >= params_.pop_size) break;  // second offspring dropped (core skips Mu2)

        off2 = mutate(off2, rng_.next16(), params_.mut_threshold);
        const std::uint16_t f2 = fitness_(off2);
        ++evaluations_;
        next_[idx] = {off2, f2};
        fit_sum_new += f2;
        offer_best(off2, f2);
        ++idx;
    }

    cur_.swap(next_);
    fit_sum_cur_ = fit_sum_new;
    ++gen_;
    snapshot();
}

RunResult BehavioralEngine::result() const {
    RunResult r;
    r.best_candidate = best_ind_;
    r.best_fitness = best_fit_;
    r.evaluations = evaluations_;
    r.history = history_;
    return r;
}

RunResult run_behavioral_ga(const GaParameters& raw_params, const FitnessFn& fitness,
                            prng::RngKind rng_kind, bool keep_populations, bool elitism) {
    BehavioralEngine eng(raw_params, fitness, rng_kind, keep_populations, elitism);
    while (!eng.done()) eng.step_generation();
    RunResult result = eng.result();
    return result;
}

}  // namespace gaip::core
