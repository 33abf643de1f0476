// SEU fault-injection campaign over the gate-level GA core (scan-chain
// fault model). Enumerates every scan-chain flip-flop x a coarse injection
// cycle grid (405 bits x 25 points = 10125 faults for the default config),
// runs them (64 x words - 1)-per-batch on the compiled lane-block gate
// simulator (8-word / 512-lane blocks by default here, batches fanned out
// across all cores), and classifies each as masked / wrong-answer / hang /
// recovered.
//
// Cross-validation baked into the run:
//   * lane 0 of every batch must reproduce the RT-level golden run bit- and
//     cycle-exactly (checked inside FaultCampaign);
//   * a stratified sample of records is replayed on the RT-level model via
//     both the scan-chain read-modify-write backend and the register-poke
//     backend — all three backends must agree on the classification;
//   * sampled "recovered" faults are driven through the mission
//     supervisor's PRESET fallback rung (preset pins + start_GA pulse, no
//     reset) and must land on the preset mode's exact behavioral result.
//
// Usage:
//   bench_fault_campaign                 full campaign (~10k injections)
//   bench_fault_campaign --quick        strided subsample (~400 injections)
//   bench_fault_campaign --stride N      keep every N-th site
//   bench_fault_campaign --max-sites N   cap the site count
//   bench_fault_campaign --words N       lane-block width (1/2/4/8 u64 words)
//   bench_fault_campaign --threads N     worker threads (0 = all cores)
//   bench_fault_campaign --backend B     gate engine: interp (default) or jit
//   bench_fault_campaign --replay REG BIT CYCLE
//                                        rerun one fault on all 3 backends
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "fault/campaign.hpp"
#include "gates/compiled_kernels.hpp"
#include "gates/jit.hpp"
#include "supervisor/supervisor.hpp"
#include "util/worker_pool.hpp"

namespace {

using namespace gaip;
using fault::FaultOutcome;
using fault::FaultRecord;
using fault::FaultSite;
using fault::InjectBackend;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void print_record(const char* tag, const FaultRecord& r) {
    std::printf("  %-10s %s[%u] @%llu  inject=%llu  outcome=%-12s", tag, r.site.reg.c_str(),
                r.site.bit, static_cast<unsigned long long>(r.site.cycle),
                static_cast<unsigned long long>(r.inject_cycle), fault::outcome_name(r.outcome));
    if (r.finished)
        std::printf("  fit=%u cand=0x%04X cycles=%llu", r.best_fitness, r.best_candidate,
                    static_cast<unsigned long long>(r.ga_cycles));
    else
        std::printf("  final_state=%u", r.final_state);
    std::printf("\n");
}

int replay_one(fault::FaultCampaign& campaign, const FaultSite& site) {
    std::printf("replaying %s[%u] @ cycle %llu on all three backends\n", site.reg.c_str(),
                site.bit, static_cast<unsigned long long>(site.cycle));
    const FaultRecord scan = campaign.run_rtl(site, InjectBackend::kScan);
    const FaultRecord poke = campaign.run_rtl(site, InjectBackend::kPoke);
    const auto gate_res = campaign.run_gate({site});
    if (gate_res.records.size() != 1) {
        std::printf("FAIL: gate backend returned %zu records\n", gate_res.records.size());
        return 1;
    }
    const FaultRecord& gate = gate_res.records[0];
    print_record("scan", scan);
    print_record("poke", poke);
    print_record("lane-mask", gate);
    const bool agree = scan.outcome == poke.outcome && poke.outcome == gate.outcome &&
                       scan.inject_cycle == poke.inject_cycle &&
                       poke.inject_cycle == gate.inject_cycle &&
                       scan.best_fitness == poke.best_fitness &&
                       poke.best_fitness == gate.best_fitness;
    std::printf("backends %s\n", agree ? "AGREE" : "DISAGREE");
    return agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace gaip;
    bench::banner("SEU fault-injection campaign (scan-chain fault model)",
                  "Section V scan-chain testability + Table II scan pins, as a "
                  "fault-injection harness");

    fault::CampaignConfig cfg;
    // Bench defaults differ from the library defaults (1 word, 1 thread):
    // the campaign is the throughput showcase, so take the widest block and
    // every core unless told otherwise. Results are bit-identical across
    // widths/threads (tests/fault/test_campaign.cpp pins this).
    cfg.lane_words = 8;
    cfg.threads = 0;
    FaultSite replay_site;
    bool replay = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            cfg.stride = 23;  // coprime with the 25-point cycle grid
        } else if (std::strcmp(argv[i], "--stride") == 0 && i + 1 < argc) {
            cfg.stride = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--max-sites") == 0 && i + 1 < argc) {
            cfg.max_sites = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--words") == 0 && i + 1 < argc) {
            cfg.lane_words = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            cfg.threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
        } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
            const char* b = argv[++i];
            if (std::strcmp(b, "interp") == 0) {
                cfg.backend = gates::Backend::kInterp;
            } else if (std::strcmp(b, "jit") == 0) {
                cfg.backend = gates::Backend::kJit;
            } else {
                std::printf("unknown --backend: %s (expected interp or jit)\n", b);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--replay") == 0 && i + 3 < argc) {
            replay_site.reg = argv[++i];
            replay_site.bit = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
            replay_site.cycle = std::strtoull(argv[++i], nullptr, 0);
            replay = true;
        } else {
            std::printf("unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    fault::FaultCampaign campaign(cfg);
    const fault::GoldenRun& golden = campaign.golden();
    std::printf("golden run: mBF6_2 pop=%u gens=%u -> fit=%u cand=0x%04X in %llu cycles\n",
                cfg.params.pop_size, cfg.params.n_gens, golden.best_fitness,
                golden.best_candidate, static_cast<unsigned long long>(golden.ga_cycles));
    std::printf("scan chain: %u flip-flops in %zu registers\n", campaign.injector().chain_length(),
                campaign.injector().layout().size());

    if (replay) return replay_one(campaign, replay_site);

    const std::vector<FaultSite> sites = campaign.enumerate_sites();
    std::printf("fault space: %zu sites (%u cycle points, stride %llu)\n", sites.size(),
                cfg.cycle_points, static_cast<unsigned long long>(cfg.stride));
    const gates::Backend resolved = gates::resolve_backend(cfg.backend);
    const unsigned threads_used =
        gaip::util::resolve_threads(cfg.threads, (sites.size() + cfg.lane_words * 64 - 2) /
                                                     (cfg.lane_words * 64 - 1));
    std::printf("gate backend: %s engine, %u-word lane blocks (%u lanes: 1 golden + %u "
                "injections per batch), %u worker thread(s)\n\n",
                gates::backend_name(resolved), cfg.lane_words, cfg.lane_words * 64,
                cfg.lane_words * 64 - 1, threads_used);
    gates::jit::reset_stats();

    const double t0 = now_s();
    std::size_t last_pct = 0;
    fault::CampaignResult res = campaign.run_gate(sites, [&](std::size_t done, std::size_t total) {
        const std::size_t pct = done * 100 / total;
        if (pct >= last_pct + 10 || done == total) {
            std::printf("  %zu/%zu injections (%zu%%)\n", done, total, pct);
            std::fflush(stdout);
            last_pct = pct;
        }
    });
    const double dt = now_s() - t0;

    std::printf("\ncampaign: %zu injections in %.1fs (%zu batches, %.2fM gate cycles, "
                "%.0f injections/s)\n",
                res.records.size(), dt, res.batches, res.gate_cycles / 1e6,
                res.records.size() / dt);
    std::printf("  masked    %6llu (%.1f%%)\n", static_cast<unsigned long long>(res.masked),
                100.0 * res.masked / res.records.size());
    std::printf("  wrong     %6llu (%.1f%%)\n", static_cast<unsigned long long>(res.wrong),
                100.0 * res.wrong / res.records.size());
    std::printf("  hang      %6llu (%.1f%%)\n", static_cast<unsigned long long>(res.hang),
                100.0 * res.hang / res.records.size());
    std::printf("  recovered %6llu (%.1f%%)\n\n", static_cast<unsigned long long>(res.recovered),
                100.0 * res.recovered / res.records.size());

    // Per-register vulnerability table, most vulnerable first.
    std::vector<fault::RegisterVulnerability> vuln = fault::aggregate_by_register(res.records);
    std::sort(vuln.begin(), vuln.end(),
              [](const auto& a, const auto& b) { return a.vulnerability() > b.vulnerability(); });
    util::TextTable table({"register", "bits", "inj", "masked", "wrong", "hang", "recov", "vuln"});
    for (const auto& v : vuln) {
        char pct[16];
        std::snprintf(pct, sizeof(pct), "%.1f%%", 100.0 * v.vulnerability());
        table.add(v.reg, v.width, v.injections, v.masked, v.wrong, v.hang, v.recovered, pct);
    }
    table.print();

    // Stratified cross-check: replay sampled records from every outcome
    // class on both RT-level backends; classifications must agree.
    std::map<FaultOutcome, std::vector<const FaultRecord*>> by_outcome;
    for (const FaultRecord& r : res.records) {
        auto& bucket = by_outcome[r.outcome];
        if (bucket.size() < 3) bucket.push_back(&r);
    }
    std::printf("\ncross-backend check (gate lane-mask vs RTL scan vs RTL poke):\n");
    std::size_t checked = 0, disagreements = 0;
    for (const auto& [outcome, bucket] : by_outcome) {
        for (const FaultRecord* rec : bucket) {
            const FaultRecord scan = campaign.run_rtl(rec->site, InjectBackend::kScan);
            const FaultRecord poke = campaign.run_rtl(rec->site, InjectBackend::kPoke);
            const bool agree = scan.outcome == rec->outcome && poke.outcome == rec->outcome &&
                               scan.best_fitness == rec->best_fitness &&
                               poke.best_fitness == rec->best_fitness;
            ++checked;
            if (!agree) {
                ++disagreements;
                print_record("gate", *rec);
                print_record("scan", scan);
                print_record("poke", poke);
            }
        }
    }
    std::printf("  %zu records checked, %zu disagreements\n", checked, disagreements);

    // PRESET fallback demonstration on sampled recovered faults: the
    // mission supervisor, cut down to its fallback rung (no retry, no
    // restart, the campaign's watchdog budget), re-drives the tripped system
    // in place (preset pins + start pulse, no reset) and must land on the
    // preset mode's exact behavioral result despite the corrupted state.
    const fault::GoldenRun& preset = campaign.injector().preset_baseline();
    std::size_t fb_checked = 0, fb_failed = 0;
    for (const FaultRecord& r : res.records) {
        if (r.outcome != FaultOutcome::kRecovered || fb_checked >= 3) continue;
        ++fb_checked;
        supervisor::SupervisorConfig sc;
        sc.fn = cfg.fn;
        sc.params = cfg.params;
        sc.watchdog_factor = cfg.watchdog_factor;
        sc.expected_cycles = golden.ga_cycles;
        sc.ladder.max_retries = 0;
        sc.ladder.restart_recovery = false;
        sc.ladder.fallback_preset = cfg.fallback_preset;
        bool fired = false;
        sc.hook = supervisor::flip_hook(r.site, fired);
        const supervisor::SupervisorReport rep = supervisor::MissionSupervisor(sc).run();
        if (rep.status != supervisor::Status::kOkDegraded ||
            rep.final_rung != supervisor::Rung::kPresetFallback ||
            rep.best_fitness != preset.best_fitness ||
            rep.best_candidate != preset.best_candidate) {
            ++fb_failed;
            std::printf("  fallback   %s[%u] @%llu  status=%s rung=%s best=%u cand=%u\n",
                        r.site.reg.c_str(), r.site.bit,
                        static_cast<unsigned long long>(r.site.cycle),
                        supervisor::status_name(rep.status), supervisor::rung_name(rep.final_rung),
                        rep.best_fitness, rep.best_candidate);
        }
    }
    std::printf("  %zu recovered faults re-driven through PRESET fallback, %zu failed\n",
                fb_checked, fb_failed);

    // Machine-readable outputs.
    const std::string csv_path = bench::out_path("faults_records.csv");
    {
        std::ofstream csv(csv_path);
        csv << "reg,bit,cycle,inject_cycle,outcome,finished,best_fitness,best_candidate,"
               "ga_cycles,final_state\n";
        for (const FaultRecord& r : res.records)
            csv << r.site.reg << ',' << r.site.bit << ',' << r.site.cycle << ','
                << r.inject_cycle << ',' << fault::outcome_name(r.outcome) << ','
                << (r.finished ? 1 : 0) << ',' << r.best_fitness << ',' << r.best_candidate
                << ',' << r.ga_cycles << ',' << unsigned(r.final_state) << '\n';
    }
    std::printf("CSV:  %s\n", csv_path.c_str());

    bench::JsonReport report;
    report.set("bench", std::string("fault_campaign"))
        .set("backend", std::string(gates::backend_name(resolved)))
        .set("fitness", std::string("mBF6_2"))
        .set("pop_size", std::uint64_t(cfg.params.pop_size))
        .set("n_gens", std::uint64_t(cfg.params.n_gens))
        .set("chain_bits", std::uint64_t(campaign.injector().chain_length()))
        .set("cycle_points", std::uint64_t(cfg.cycle_points))
        .set("injections", std::uint64_t(res.records.size()))
        .set("masked", res.masked)
        .set("wrong_answer", res.wrong)
        .set("hang", res.hang)
        .set("recovered", res.recovered)
        .set("masked_fraction", double(res.masked) / res.records.size())
        .set("golden_best_fitness", std::uint64_t(golden.best_fitness))
        .set("golden_ga_cycles", golden.ga_cycles)
        .set("gate_cycles", res.gate_cycles)
        .set("lane_words", std::uint64_t(cfg.lane_words))
        .set("lanes_per_batch", std::uint64_t(cfg.lane_words) * 64)
        .set("threads", std::uint64_t(cfg.threads))
        .set("batches", std::uint64_t(res.batches))
        .set("wall_seconds", dt)
        .set("injections_per_second", res.records.size() / dt)
        .set("crosscheck_records", std::uint64_t(checked))
        .set("crosscheck_disagreements", std::uint64_t(disagreements))
        .set("fallback_checked", std::uint64_t(fb_checked))
        .set("fallback_failed", std::uint64_t(fb_failed));
    if (resolved == gates::Backend::kJit || resolved == gates::Backend::kJitForce) {
        const gates::jit::Stats js = gates::jit::stats();
        report.set("jit_compiles", js.compiles)
            .set("jit_compile_ms_total", js.compile_ms_total)
            .set("jit_disk_hits", js.disk_hits)
            .set("jit_memory_hits", js.memory_hits)
            .set("jit_fallbacks", js.fallbacks);
        std::printf("  jit cache: %llu compile(s) (%.0f ms), %llu disk hit(s), %llu"
                    " in-process hit(s), %llu fallback(s)\n",
                    static_cast<unsigned long long>(js.compiles), js.compile_ms_total,
                    static_cast<unsigned long long>(js.disk_hits),
                    static_cast<unsigned long long>(js.memory_hits),
                    static_cast<unsigned long long>(js.fallbacks));
    }
    bench::env_block(report, cfg.lane_words, threads_used,
                     gates::kernels::selected_name(cfg.lane_words),
                     gates::backend_name(resolved));
    report.write(bench::out_path("BENCH_faults.json"));

    if (disagreements != 0 || fb_failed != 0) {
        std::printf("\nFAIL: backend disagreement or fallback failure\n");
        return 1;
    }
    return 0;
}
