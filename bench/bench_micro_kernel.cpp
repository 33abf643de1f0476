// google-benchmark microbenchmarks: throughput of the simulation kernel and
// the GA building blocks. These quantify the model's own cost (simulated
// cycles per host second), not the paper's hardware.
#include <benchmark/benchmark.h>

#include "core/behavioral.hpp"
#include "core/dual_core.hpp"
#include "gates/ga_core_gates.hpp"
#include "fitness/rom_builder.hpp"
#include "island/island.hpp"
#include "prng/ca_prng.hpp"
#include "prng/lfsr.hpp"
#include "swga/software_ga.hpp"
#include "system/ga_system.hpp"

namespace {

using namespace gaip;

void BM_CaPrngStep(benchmark::State& state) {
    prng::CaPrng g(1);
    for (auto _ : state) benchmark::DoNotOptimize(g.next16());
}
BENCHMARK(BM_CaPrngStep);

void BM_Lfsr16Step(benchmark::State& state) {
    prng::Lfsr16 g(1);
    for (auto _ : state) benchmark::DoNotOptimize(g.next16());
}
BENCHMARK(BM_Lfsr16Step);

void BM_FitnessLookup(benchmark::State& state) {
    const auto rom = fitness::fitness_rom(fitness::FitnessId::kMBf6_2);
    std::uint16_t x = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rom->read(x));
        x = static_cast<std::uint16_t>(x + 257);
    }
}
BENCHMARK(BM_FitnessLookup);

void BM_FitnessClosedForm(benchmark::State& state) {
    std::uint16_t x = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fitness::fitness_u16(fitness::FitnessId::kMShubert2D, x));
        x = static_cast<std::uint16_t>(x + 257);
    }
}
BENCHMARK(BM_FitnessClosedForm);

void BM_BehavioralGaGeneration(benchmark::State& state) {
    const core::GaParameters p{.pop_size = static_cast<std::uint8_t>(state.range(0)),
                               .n_gens = 16, .xover_threshold = 10, .mut_threshold = 1,
                               .seed = 0x2961};
    const auto rom = fitness::fitness_rom(fitness::FitnessId::kMBf6_2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::run_behavioral_ga(
            p, [&](std::uint16_t x) { return rom->read(x); },
            prng::RngKind::kCellularAutomaton, false));
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_BehavioralGaGeneration)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

/// A telemetry sink nobody reads: the tap tracks its edges, builds nothing.
class QuietSink final : public trace::TraceSink {
public:
    void on_event(const trace::TraceEvent&) override {}
    bool wants_events() const override { return false; }
};

void BM_RtlSystemRun(benchmark::State& state) {
    // Full-system RTL simulation throughput: one complete small run per
    // iteration. Reports simulated 50 MHz cycles per second as a counter,
    // and module ticks per GA edge. Arg 1 binds the SystemTap to a quiet
    // sink (wants_events() false), as for a gaipd job nobody streams.
    system::GaSystemConfig cfg;
    cfg.params = {.pop_size = 16, .n_gens = 8, .xover_threshold = 10, .mut_threshold = 1,
                  .seed = 0x2961};
    cfg.internal_fems = {fitness::FitnessId::kMBf6_2};
    cfg.keep_populations = false;
    QuietSink quiet;
    if (state.range(0) != 0) cfg.trace_sink = &quiet;
    system::GaSystem sys(cfg);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        sys.run();
        cycles += sys.ga_cycles();
    }
    state.counters["sim_cycles_per_s"] =
        benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.counters["ticks_per_cycle"] =
        benchmark::Counter(static_cast<double>(sys.kernel().stats().module_ticks) /
                           static_cast<double>(sys.ga_clock().edges()));
}
BENCHMARK(BM_RtlSystemRun)->Arg(0)->Arg(1)->ArgName("tap");

void BM_RtlSystemScheduler(benchmark::State& state) {
    // Event-driven (arg 0) vs evaluate-everything sweep (arg 1) on the same
    // full-system run. The kernel's stats counters expose how much work the
    // dirty-tracking scheduler avoids: module eval() calls per simulated
    // time point and modules skipped per settle. ticks_per_cycle and
    // commits_per_cycle are module ticks and register commits per GA clock
    // edge: deterministic counts for each scheduler (the sweep also ticks
    // every module at every edge; the default skips idle pure ticks).
    const bool full_settle = state.range(0) != 0;
    system::GaSystemConfig cfg;
    cfg.params = {.pop_size = 16, .n_gens = 8, .xover_threshold = 10, .mut_threshold = 1,
                  .seed = 0x2961};
    cfg.internal_fems = {fitness::FitnessId::kMBf6_2};
    cfg.keep_populations = false;
    system::GaSystem sys(cfg);
    sys.kernel().set_full_settle(full_settle);
    for (auto _ : state) sys.run();
    const rtl::KernelStats s = sys.kernel().stats();  // last run's counters
    state.counters["evals_per_cycle"] = benchmark::Counter(s.evals_per_time_point());
    state.counters["settle_passes"] = benchmark::Counter(static_cast<double>(s.settle_passes));
    state.counters["module_evals"] = benchmark::Counter(static_cast<double>(s.module_evals));
    state.counters["skipped"] = benchmark::Counter(static_cast<double>(s.modules_skipped));
    const double ga_edges = static_cast<double>(sys.ga_clock().edges());
    state.counters["ticks_per_cycle"] =
        benchmark::Counter(static_cast<double>(s.module_ticks) / ga_edges);
    state.counters["commits_per_cycle"] =
        benchmark::Counter(static_cast<double>(s.register_commits) / ga_edges);
}
BENCHMARK(BM_RtlSystemScheduler)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("full_settle");

void BM_RtlIslandArrayRun(benchmark::State& state) {
    // 4-engine RT-level array, migration off; arg = worker threads (1 =
    // sequential). On a multi-core host the pooled run is near-linearly
    // faster; the results are bit-identical either way (asserted in
    // IslandDifferential.ThreadCountInvariant).
    island::IslandConfig cfg;
    cfg.fn = fitness::FitnessId::kMBf6_2;
    cfg.base = {.pop_size = 16, .n_gens = 8, .xover_threshold = 10, .mut_threshold = 1};
    cfg.seeds = {0x2961, 0x061F, 0xB342, 0xAAAA};
    cfg.islands = 4;
    cfg.backend = core::Substrate::kRtl;
    cfg.threads = static_cast<unsigned>(state.range(0));
    island::IslandSystem sys(cfg);
    for (auto _ : state) benchmark::DoNotOptimize(sys.run());
    state.counters["threads"] = benchmark::Counter(static_cast<double>(cfg.threads));
    state.counters["engines"] = benchmark::Counter(static_cast<double>(cfg.islands));
}
BENCHMARK(BM_RtlIslandArrayRun)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DualCoreRun(benchmark::State& state) {
    core::DualGaConfig cfg;
    cfg.pop_size = 16;
    cfg.n_gens = 8;
    cfg.fitness = [](std::uint32_t x) { return fitness::onemax32(x); };
    core::DualGaSystem sys(cfg);
    for (auto _ : state) benchmark::DoNotOptimize(sys.run());
}
BENCHMARK(BM_DualCoreRun);

void BM_GateNetlistEval(benchmark::State& state) {
    // One combinational sweep of the full gate-level core (~10.7k gates).
    const auto g = gates::build_ga_core_netlist();
    for (auto _ : state) {
        g->nl.eval();
        benchmark::DoNotOptimize(g->nl.value(0));
    }
    state.counters["gates_per_s"] = benchmark::Counter(
        static_cast<double>(g->nl.stats().logic_gates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GateNetlistEval);

void BM_SoftwareGa(benchmark::State& state) {
    const core::GaParameters p{.pop_size = 32, .n_gens = 32, .xover_threshold = 10,
                               .mut_threshold = 1, .seed = 0x2961};
    const auto rom = fitness::fitness_rom(fitness::FitnessId::kMBf6_2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(swga::run_software_ga(p, rom));
    }
}
BENCHMARK(BM_SoftwareGa);

}  // namespace

BENCHMARK_MAIN();
