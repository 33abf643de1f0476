// Layer probes of the traced run: each times direct calls into one layer's
// public API with fixed inputs, so a layer's number can be read next to the
// end-to-end number it should move.
#include <filesystem>

#include "bench/gate_batch_runner.hpp"
#include "core/behavioral.hpp"
#include "gates/compiled.hpp"
#include "gates/ga_core_gates.hpp"
#include "gates/jit.hpp"
#include "gates/rng_gates.hpp"
#include "island/island.hpp"
#include "service/journal.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gaip;
namespace fs = std::filesystem;

namespace {

core::GaParameters params(unsigned pop, std::uint32_t gens, std::uint16_t seed) {
    return core::resolve_parameters(0, {.pop_size = static_cast<std::uint8_t>(pop), .n_gens = gens,
                                        .xover_threshold = 12, .mut_threshold = 1, .seed = seed});
}

/// The GA module's two compiled netlists, built exactly as the lane
/// harness and the fault campaign build them.
struct GateEngines {
    std::unique_ptr<gates::GaCoreNetlist> core_src = gates::build_ga_core_netlist();
    std::unique_ptr<gates::RngNetlist> rng_src = gates::build_rng_netlist();
    gates::CompiledNetlist core;
    gates::CompiledNetlist rng;

    GateEngines(unsigned words, gates::Backend backend)
        : core(core_src->nl, {.words = words, .cse = true, .prune = true,
                              .keep = core_src->observable_port_nets(), .backend = backend}),
          rng(rng_src->nl, {.words = words, .cse = true, .prune = true,
                            .keep = rng_src->observable_port_nets(), .backend = backend}) {}

    /// Median ns of one GA cycle's gate work: both netlists evaluated and
    /// clocked once.
    double cycle_ns() {
        Samples s;
        for (int rep = 0; rep < 7; ++rep) {
            constexpr int kCycles = 500;
            const auto t0 = Clock::now();
            for (int i = 0; i < kCycles; ++i) {
                core.eval();
                rng.eval();
                core.clock();
                rng.clock();
            }
            s.add(ms_between(t0, Clock::now()) * 1e6 / kCycles);
        }
        return s.median();
    }
};

void gate_probes(const std::vector<GateBatch>& batches, Report& rep) {
    const gates::jit::Stats j0 = gates::jit::stats();
    gates::jit::clear_module_registry();
    const auto l0 = Clock::now();
    GateEngines w8(kCampaignWords, gates::Backend::kJit);
    const double load_ms = ms_between(l0, Clock::now());
    const gates::jit::Stats j1 = gates::jit::stats();
    const double w8_ns = w8.cycle_ns();
    rep.add_layer("gates.cycle_ns.w8.jit", w8_ns, "ns");
    const double instrs =
        static_cast<double>(w8.core.instruction_count() + w8.rng.instruction_count());
    rep.add_layer("gates.lane_evals_per_s.w8.jit", instrs * 64.0 * kCampaignWords / (w8_ns * 1e-9),
                  "1/s");
    rep.add_layer("jit.load_ms", load_ms, "ms");
    rep.add_layer("jit.disk_hits", static_cast<double>(j1.disk_hits - j0.disk_hits), "count");
    rep.add_layer("jit.fallbacks", static_cast<double>(j1.fallbacks), "count");

    // Lane harness: replay the workload's batch compositions (or a fixed
    // 16-lane batch) on one-word interpreter blocks, as the daemon runs them.
    std::vector<GateBatch> replay;
    for (const GateBatch& b : batches)
        if (b.lanes.size() <= 64) replay.push_back(b);
    if (replay.empty()) {
        GateBatch b{fitness::FitnessId::kOneMax, {}};
        for (std::uint16_t s = 1; s <= 16; ++s) b.lanes.push_back(params(16, 8, s));
        replay.push_back(b);
    }
    // Three compositions around the median lane count bound the probe's time.
    std::sort(replay.begin(), replay.end(),
              [](const GateBatch& a, const GateBatch& b) { return a.lanes.size() < b.lanes.size(); });
    const std::size_t mid = replay.size() / 2;
    const std::size_t lo = mid > 0 ? mid - 1 : 0;
    // The harness share is a difference of two timings, so each replay is
    // bracketed by gate-only measurements on the same one-word engines.
    GateEngines w1(1, gates::Backend::kInterp);
    Samples gate_ns, step_ns, harness_ns, cycles;
    double before = w1.cycle_ns();
    gate_ns.add(before);
    for (std::size_t k = lo; k < std::min(replay.size(), lo + 3); ++k) {
        bench::BatchGateRunner runner(replay[k].fn, replay[k].lanes, 1, gates::Backend::kInterp);
        const auto t0 = Clock::now();
        runner.run();
        const double step = ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(runner.cycles());
        const double after = w1.cycle_ns();
        gate_ns.add(after);
        step_ns.add(step);
        harness_ns.add(step - 0.5 * (before + after));
        cycles.add(static_cast<double>(runner.cycles()));
        before = after;
    }
    rep.add_layer("gates.cycle_ns.w1.interp", gate_ns.median(), "ns", gate_ns.size());
    rep.add_layer("lanes.step_ns_per_cycle", step_ns.median(), "ns", step_ns.size());
    rep.add_layer("lanes.cycles_per_batch", cycles.mean(), "count", cycles.size());
    rep.add_layer("lanes.harness_ns_per_cycle", harness_ns.median(), "ns", harness_ns.size());
}

void engine_probes(Report& rep) {
    // core: one generation with the std::function fitness the scheduler builds.
    for (unsigned pop : {16u, 128u}) {
        const fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
        core::BehavioralEngine eng(
            params(pop, 1'000'000, 0x2961),
            [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
            prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
        Samples s;
        for (int g = 0; g < (pop == 16 ? 2000 : 200); ++g) {
            const auto t0 = Clock::now();
            eng.step_generation();
            s.add(ms_between(t0, Clock::now()) * 1e3);
        }
        rep.add_layer("core.gen_us.p" + std::to_string(pop), s.median(), "us", s.size());
    }

    // system: RT-level GaSystem runs.
    {
        Samples ms;
        double cycles = 0, ns = 0;
        for (std::uint16_t seed : {0x2961, 0x061F, 0xB342, 0xAAAA, 0xA0A0}) {
            system::GaSystemConfig cfg;
            cfg.params = params(24, 12, seed);
            cfg.internal_fems = {fitness::FitnessId::kMBf6_2};
            cfg.keep_populations = false;
            system::GaSystem sys(cfg);
            const auto t0 = Clock::now();
            sys.run();
            const double dt = ms_between(t0, Clock::now());
            ms.add(dt);
            cycles += static_cast<double>(sys.ga_cycles());
            ns += dt * 1e6;
        }
        rep.add_layer("system.job_ms_p50", ms.median(), "ms", ms.size());
        rep.add_layer("system.ga_cycles", cycles / static_cast<double>(ms.size()), "count");
        rep.add_layer("system.ns_per_cycle", ns / cycles, "ns");
    }

    // island: a four-island RT-level ring.
    {
        island::IslandConfig ic;
        ic.fn = fitness::FitnessId::kOneMax;
        ic.base = params(16, 12, 0x2961);
        ic.islands = 4;
        ic.backend = supervisor::BackendKind::kRtl;
        ic.migration.interval = 4;
        ic.migration.count = 2;
        Samples ms;
        std::uint64_t makespan = 0;
        for (int k = 0; k < 3; ++k) {
            const auto t0 = Clock::now();
            makespan = island::run_island_system(ic).makespan_cycles;
            ms.add(ms_between(t0, Clock::now()));
        }
        rep.add_layer("island.job_ms_p50", ms.median(), "ms", ms.size());
        rep.add_layer("island.makespan_cycles", static_cast<double>(makespan), "count");
    }

    // supervisor: fault-free supervised RT-level jobs.
    {
        Samples ms;
        std::size_t attempts = 0;
        for (int k = 0; k < 3; ++k) {
            supervisor::SupervisorConfig sc;
            sc.fn = fitness::FitnessId::kMBf6_2;
            sc.params = params(16, 12, 0x061F);
            supervisor::MissionSupervisor sup(sc);
            const auto t0 = Clock::now();
            const supervisor::SupervisorReport r = sup.run();
            ms.add(ms_between(t0, Clock::now()));
            attempts += r.attempts.size();
            rep.check(r.ok(), "supervisor probe aborted: " + r.abort_reason);
        }
        rep.add_layer("supervisor.job_ms_p50", ms.median(), "ms", ms.size());
        rep.add_layer("supervisor.attempts", static_cast<double>(attempts) / 3.0, "count");
    }
}

void journal_probes(const Options& o, const std::string& workload_journal, Report& rep) {
    const std::string dir = o.out_dir + "/journal_append";
    fs::remove_all(dir);
    Samples append_us;
    {
        service::Journal j(dir);
        service::JobRecord rec;
        rec.spec.backend = service::JobBackend::kBehavioral;
        const auto timed = [&append_us](auto&& fn) {
            const auto t0 = Clock::now();
            fn();
            append_us.add(ms_between(t0, Clock::now()) * 1e3);
        };
        for (std::uint64_t id = 1; id <= 300; ++id) {
            rec.id = id;
            rec.state = service::JobState::kQueued;
            rec.submitted = Clock::now();
            timed([&] { j.record_submit(rec); });
            timed([&] { j.record_start(id); });
            rec.state = service::JobState::kDone;
            timed([&] { j.record_terminal(rec); });
        }
    }
    rep.add_layer("journal.append_p50_us", append_us.median(), "us", append_us.size());

    const std::string replay_dir = workload_journal.empty() ? dir : workload_journal;
    Samples replay_ms;
    std::uint64_t lines = 0;
    for (int k = 0; k < 3; ++k) {
        const auto t0 = Clock::now();
        const service::JournalReplay r = service::replay_journal(replay_dir);
        replay_ms.add(ms_between(t0, Clock::now()));
        lines = r.lines_total;
        rep.check(r.lines_skipped == 0, "journal replay skipped lines");
    }
    rep.add_layer("journal.replay_ms", replay_ms.median(), "ms", replay_ms.size());
    rep.add_info("journal.replayed_lines", static_cast<double>(lines), "count");
}

}  // namespace

void run_layer_probes(const Options& o, const std::vector<GateBatch>& batches,
                      const std::string& journal_dir, Report& rep) {
    gate_probes(batches, rep);
    engine_probes(rep);
    journal_probes(o, journal_dir, rep);
}

bool warm_jit() {
    try {
        GateEngines w8(kCampaignWords, gates::Backend::kJitForce);
        return gates::jit::stats().fallbacks == 0;
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: JIT warm-up failed: %s\n", ex.what());
        return false;
    }
}

}  // namespace perfbench
