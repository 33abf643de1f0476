// Entry points of the four workloads and the traced run's layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/params.hpp"
#include "fitness/functions.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir;  ///< scratch directory inside the checkout
};

/// Fixed run-environment choices, echoed in the env block.
inline constexpr unsigned kDaemonWorkers = 2;
inline constexpr unsigned kClientConnections = 2;
inline constexpr unsigned kCampaignThreads = 4;
inline constexpr unsigned kCampaignWords = 8;
inline constexpr std::uint16_t kReferenceSeed = 0x2961;  ///< the committed campaign's GA seed

inline constexpr const char* kKindNames[5] = {"gates", "behavioral", "rtl", "island", "supervised"};

/// One packed gate batch as the scheduler ran it: its fitness function and
/// the parameters of each lane.
struct GateBatch {
    gaip::fitness::FitnessId fn{};
    std::vector<gaip::core::GaParameters> lanes;
};

/// Scheduler/service observations of a set of jobs (a workload's, or the
/// probe daemon's).
struct ServiceSample {
    Samples submit_rtt_us;
    Samples status_rtt_us;
    Samples overhead_ms;
    Samples queue_wait_ms;
    Samples run_ms[5];  ///< indexed like kKindNames
    std::uint64_t gate_batches = 0;
    double lanes_per_batch = 0;
    double lane_fill = 0;
    double journal_records_per_job = 0;
    std::vector<GateBatch> batches;
};

/// The fault layer's observations.
struct FaultSample {
    Samples batch_ms;    ///< intervals between run_gate progress callbacks
    Samples golden_ms;   ///< FaultCampaign construction (RT-level golden run)
    double batches = 0;  ///< per campaign
    double gate_cycles = 0;
    std::uint64_t masked = 0, wrong = 0, hang = 0, recovered = 0;  ///< seed 0x2961 campaign
};

/// What one measured phase of a workload leaves behind.
struct Phase {
    Samples setup_s;
    Samples latency_ms;     ///< every job's (or campaign's) latency
    /// The end-to-end figures: medians over parts of the run (20 equal
    /// slices of the service workloads' jobs, fault_campaign's campaigns),
    /// so a burst of host noise shorter than half the run does not move them.
    double throughput = 0;  ///< jobs/s or injections/s
    double p50_ms = 0;
    double p90_ms = 0;
    double rss_mb = 0;      ///< peak RSS at the end of the timed window
    Samples lag_ms;
    std::uint64_t jobs_sent = 0;
    bool service = false;
    ServiceSample svc;
    bool fault = false;
    FaultSample fs;
    std::string journal_dir;  ///< the daemon's journal (journaled workload only)
};

/// gates_open, small_jobs_journaled or substrate_mix against an in-process
/// gaipd daemon.
Phase run_service_workload(const Options& o, SpanLog& spans, Report& rep);

/// fault_campaign: back-to-back in-process FaultCampaigns.
Phase run_fault_workload(const Options& o, SpanLog& spans, Report& rep);

/// One full campaign at seed 0x2961 (the fault layer's numbers on
/// workloads that do not run campaigns).
FaultSample fault_probe(Report& rep);

/// The probe daemon's burst: pings plus one closed-loop job of each kind,
/// journal on.
ServiceSample service_probe(const Options& o, Report& rep, Samples& ping_rtt_us);

/// Direct-call probes of the engine, lane, gate, JIT and journal layers.
/// `batches` are replayed through the lane harness.
void run_layer_probes(const Options& o, const std::vector<GateBatch>& batches,
                      const std::string& journal_dir, Report& rep);

/// Builds every JIT artifact the workloads load, so measured runs never
/// compile. Returns false when the JIT cannot produce native code.
bool warm_jit();

}  // namespace perfbench
