// FaultCampaign: enumerates the SEU fault space of the GA core — every
// scan-chain flip-flop x a coarse grid of injection cycles — and classifies
// each fault on the gate-level lane harness (gates::BatchGateRunner, an
// N-word lane block of 64 x lane_words lanes per batch): lane 0 of every
// batch is the fault-free golden reference, each remaining lane carries one
// independent upset (BatchGateRunner::flip_register_bit), so one batched
// simulation retires up to 64 x lane_words - 1 injections. Batches are
// independent simulations and fan out across `threads` workers; records,
// counts and cycle totals are deterministic regardless of width/threads.
//
// The golden lane doubles as a determinism detector: every batch requires
// lane 0 to reproduce the RT-level golden run bit- and cycle-exactly, so a
// "masked" fault that somehow leaked into the shared simulation state would
// fail the campaign loudly instead of skewing the statistics.
//
// Cross-checking: any record's site can be replayed on the RT-level model
// through SeuInjector (scan or poke backend); classifications must agree —
// the campaign bench samples records from every outcome class and verifies.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_model.hpp"
#include "fault/seu_injector.hpp"
#include "gates/compiled.hpp"

namespace gaip::fault {

struct CampaignConfig {
    fitness::FitnessId fn = fitness::FitnessId::kMBf6_2;
    /// Small-but-real run: every injection simulates the complete flow.
    core::GaParameters params{.pop_size = 16, .n_gens = 12, .xover_threshold = 12,
                              .mut_threshold = 1, .seed = 0x2961};
    /// Injection-cycle grid: `cycle_points` evenly spaced points covering
    /// [0, cycle_span x golden cycles). The span stays below 1.0 so every
    /// grid point has a scan-safe cycle at/after it before the run ends.
    unsigned cycle_points = 25;
    double cycle_span = 0.9;
    unsigned watchdog_factor = 4;
    std::uint8_t fallback_preset = 1;
    /// Site subsampling for smoke runs: keep every `stride`-th site of the
    /// full enumeration (1 = exhaustive), then at most `max_sites` (0 = all).
    std::uint64_t stride = 1;
    std::size_t max_sites = 0;
    /// Gate-backend lane-block width in u64 words (1, 2, 4 or 8): every
    /// batch simulates 64 x lane_words lanes — one golden reference plus up
    /// to 64 x lane_words - 1 injections retired per batched simulation.
    unsigned lane_words = 1;
    /// Worker threads for run_gate (0 = all hardware threads). Each worker
    /// owns one gate engine and batches are independent, so results are
    /// bit-identical at any thread count.
    unsigned threads = 1;
    /// Evaluation engine for the per-worker gate simulations: interpreted
    /// kernels or the host-compiled native backend (kAuto defers to the
    /// GAIP_JIT override and defaults to the interpreter). Fault records
    /// are bit-identical across backends; concurrent workers requesting
    /// the same artifact block on ONE compile (src/gates/jit.cpp registry).
    gates::Backend backend = gates::Backend::kAuto;
};

struct CampaignResult {
    GoldenRun golden;
    GoldenRun preset_baseline;
    std::vector<FaultRecord> records;
    std::uint64_t masked = 0;
    std::uint64_t wrong = 0;
    std::uint64_t hang = 0;
    std::uint64_t recovered = 0;
    std::uint64_t gate_cycles = 0;  ///< total simulated gate cycles
    std::size_t batches = 0;

    void count(const FaultRecord& r) {
        switch (r.outcome) {
            case FaultOutcome::kMasked: ++masked; break;
            case FaultOutcome::kWrongAnswer: ++wrong; break;
            case FaultOutcome::kHang: ++hang; break;
            case FaultOutcome::kRecovered: ++recovered; break;
        }
    }
};

class FaultCampaign {
public:
    explicit FaultCampaign(CampaignConfig cfg);

    const CampaignConfig& config() const noexcept { return cfg_; }
    const SeuInjector& injector() const noexcept { return injector_; }
    const GoldenRun& golden() const noexcept { return injector_.golden(); }

    /// The configured fault space: for each chain flip-flop (head first),
    /// one site per grid cycle, subsampled per cfg.stride / cfg.max_sites.
    std::vector<FaultSite> enumerate_sites() const;

    /// Run `sites` on the gate-level lane-block backend (64 x lane_words -
    /// 1 injections + 1 golden lane per batch, batches spread over
    /// cfg.threads workers). `progress`, when set, is called after each
    /// batch with (cumulative sites_done, sites_total); sites_done is
    /// monotone but reflects batch COMPLETION order when threaded. Throws
    /// if any golden lane deviates from the RT-level golden run.
    CampaignResult run_gate(const std::vector<FaultSite>& sites,
                            const std::function<void(std::size_t, std::size_t)>& progress = {});

    /// Replay one site on an RT-level backend (cross-check / --replay).
    FaultRecord run_rtl(const FaultSite& site, InjectBackend backend) const {
        return injector_.run_rtl(site, backend);
    }

private:
    CampaignConfig cfg_;
    SeuInjector injector_;
};

}  // namespace gaip::fault
