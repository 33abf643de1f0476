#include "fault/fault_model.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/behavioral.hpp"
#include "prng/rng_module.hpp"

namespace gaip::fault {

std::uint64_t watchdog_budget(std::uint64_t ga_cycles, std::uint64_t factor) {
    constexpr std::uint64_t kSlack = 64;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    if (factor != 0 && ga_cycles > (kMax - kSlack) / factor) {
        throw std::overflow_error(
            "watchdog_budget: ga_cycles (" + std::to_string(ga_cycles) + ") * watchdog_factor (" +
            std::to_string(factor) +
            ") + 64 overflows uint64 — pathological eff_ngens / cycle count; refusing to arm a "
            "wrapped (too short) watchdog");
    }
    return ga_cycles * factor + kSlack;
}

GoldenRun preset_baseline(fitness::FitnessId fn, std::uint8_t preset) {
    const unsigned mode = preset & 0x3u;
    if (mode == 0)
        throw std::invalid_argument("preset_baseline: preset must be a preset mode (1..3)");
    static std::array<std::optional<GoldenRun>, fitness::kNumFitnessIds * 3> cache;
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    std::optional<GoldenRun>& slot = cache.at(static_cast<std::size_t>(fn) * 3 + (mode - 1));
    if (!slot) {
        core::GaParameters pp = core::preset_parameters(preset);
        pp.seed = prng::RngModule::effective_seed(preset, 0);
        const core::RunResult pr =
            core::run_behavioral_ga(pp, core::rom_fitness(fn), prng::RngKind::kCellularAutomaton,
                                    /*keep_populations=*/false);
        slot = GoldenRun{.best_fitness = pr.best_fitness,
                         .best_candidate = pr.best_candidate,
                         .generations = pp.n_gens};
    }
    return *slot;
}

std::vector<RegisterVulnerability> aggregate_by_register(
    const std::vector<FaultRecord>& records) {
    std::vector<RegisterVulnerability> out;
    for (const FaultRecord& r : records) {
        auto it = std::find_if(out.begin(), out.end(),
                               [&](const RegisterVulnerability& v) { return v.reg == r.site.reg; });
        if (it == out.end()) {
            out.push_back(RegisterVulnerability{.reg = r.site.reg});
            it = out.end() - 1;
        }
        it->width = std::max(it->width, r.site.bit + 1);
        ++it->injections;
        switch (r.outcome) {
            case FaultOutcome::kMasked: ++it->masked; break;
            case FaultOutcome::kWrongAnswer: ++it->wrong; break;
            case FaultOutcome::kHang: ++it->hang; break;
            case FaultOutcome::kRecovered: ++it->recovered; break;
        }
    }
    return out;
}

}  // namespace gaip::fault
