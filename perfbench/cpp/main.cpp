// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   perfbench --warm-jit
//
// An untraced run (--trace 0) measures one workload for S seconds and
// reports the end-to-end metrics. A traced run (--trace 1) measures the
// workload twice, untraced and then with spans recorded around every call
// the benchmark makes into a layer, then runs the layer probes; it reports
// the per-layer metrics and the tracing overhead, and writes the spans to
// DIR/spans_<workload>.jsonl. Every run checks every result it got; the last
// stdout line is the JSON result, and the exit code is 1 when a check failed.
#include <sys/vfs.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "gates/compiled.hpp"
#include "gates/compiled_kernels.hpp"
#include "gates/jit.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr const char* kWorkloads[] = {"gates_open", "small_jobs_journaled", "substrate_mix",
                                      "fault_campaign"};

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR\n"
                 "       perfbench --warm-jit\n"
                 "workloads: gates_open small_jobs_journaled substrate_mix fault_campaign\n",
                 why);
    return 2;
}

Phase run_phase(const Options& o, SpanLog& spans, Report& rep) {
    if (o.workload == "fault_campaign") return run_fault_workload(o, spans, rep);
    return run_service_workload(o, spans, rep);
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// Filesystem under the journal: tmpfs would hide the fdatasync cost the
/// journaled workload measures.
std::string out_fs(const std::string& dir) {
    struct statfs st {};
    if (::statfs(dir.c_str(), &st) != 0) return "unknown";
    if (st.f_type == 0x01021994) return "tmpfs";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
    return buf;
}

void print_env(const Options& o) {
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "gcc " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    std::printf(
        "{\"env\":{\"compiler\":\"%s\",\"cxx_flags\":\"%s\",\"nproc\":%u,\"workload\":\"%s\","
        "\"seed\":%llu,\"seconds\":%s,\"daemon_workers\":%u,\"client_connections\":%u,"
        "\"daemon_gate_backend\":\"%s\",\"daemon_kernel\":\"%s\",\"campaign_threads\":%u,"
        "\"campaign_words\":%u,\"campaign_backend\":\"jit\",\"campaign_kernel\":\"%s\","
        "\"jit_cache\":\"%s\",\"out_fs\":\"%s\"}}\n",
        compiler, PERFBENCH_CXX_FLAGS, std::thread::hardware_concurrency(), o.workload.c_str(),
        static_cast<unsigned long long>(o.seed), json_number(o.seconds).c_str(), kDaemonWorkers,
        kClientConnections,
        gaip::gates::backend_name(gaip::gates::resolve_backend(gaip::gates::Backend::kAuto)),
        gaip::gates::kernels::selected_name(1), kCampaignThreads, kCampaignWords,
        gaip::gates::kernels::selected_name(kCampaignWords), gaip::gates::jit::cache_dir().c_str(),
        out_fs(o.out_dir).c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
        if (m.samples > 0)
            std::printf("  %-34s %14.6g %-8s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        else
            std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
}

void add_e2e(const Phase& ph, const Options& o, Report& rep) {
    const bool fault = o.workload == "fault_campaign";
    rep.add_e2e("setup_s", ph.setup_s.median(), "s", ph.setup_s.size());
    rep.add_e2e("throughput_per_s", ph.throughput, "1/s", ph.latency_ms.size());
    rep.add_e2e("latency_p50_ms", ph.p50_ms, "ms", ph.latency_ms.size());
    rep.add_e2e("latency_p90_ms", ph.p90_ms, "ms", ph.latency_ms.size());
    rep.add_e2e("peak_rss_mb", ph.rss_mb, "MB");
    // The same numbers under the names the workload's users know them by.
    if (fault) {
        rep.add_info("injections_per_s", ph.throughput, "1/s");
        rep.add_info("campaign_latency_p50_ms", ph.latency_ms.median(), "ms", ph.latency_ms.size());
    } else {
        rep.add_info("jobs_per_s", ph.throughput, "1/s");
        rep.add_info("job_latency_p50_ms", ph.latency_ms.median(), "ms", ph.latency_ms.size());
        rep.add_info("job_latency_p99_ms", ph.latency_ms.pct(99), "ms", ph.latency_ms.size());
    }
    rep.add_info("failed_frac",
                 rep.attempted > 0 ? static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)
                                   : 1.0,
                 "fraction", rep.attempted);
}

/// Per-layer metrics of a traced run: the traced phase's own observations
/// first, then the probes.
void add_layers(const Options& o, const Phase& base, const Phase& ph, const SpanLog& spans,
                Report& rep) {
    rep.add_layer("loadgen.lag_p99_ms", ph.lag_ms.pct(99), "ms", ph.lag_ms.size());
    rep.add_layer("loadgen.jobs_sent", static_cast<double>(ph.jobs_sent), "count");
    rep.add_layer("loadgen.flags", static_cast<double>(rep.flags), "count");
    rep.add_layer("trace.overhead_pct",
                  base.p50_ms > 0 ? 100.0 * (ph.p50_ms - base.p50_ms) / base.p50_ms : 0.0, "%");

    // Service and scheduler: the workload's jobs; the probe daemon's on the
    // fault workload, and for job kinds (or packed gate batches) the
    // workload does not run.
    Samples ping_us;
    const ServiceSample probe = service_probe(o, rep, ping_us);
    const ServiceSample& svc = ph.service ? ph.svc : probe;
    const Samples& status = ph.svc.status_rtt_us.empty() ? probe.status_rtt_us : ph.svc.status_rtt_us;
    rep.add_layer("service.ping_rtt_p50_us", ping_us.median(), "us", ping_us.size());
    rep.add_layer("service.submit_rtt_p50_us", svc.submit_rtt_us.median(), "us", svc.submit_rtt_us.size());
    rep.add_layer("service.status_rtt_p50_us", status.median(), "us", status.size());
    rep.add_layer("service.status_rtt_p99_us", status.pct(99), "us", status.size());
    rep.add_layer("service.overhead_p50_ms", svc.overhead_ms.median(), "ms", svc.overhead_ms.size());
    rep.add_layer("scheduler.queue_wait_p50_ms", svc.queue_wait_ms.median(), "ms", svc.queue_wait_ms.size());
    rep.add_layer("scheduler.queue_wait_p99_ms", svc.queue_wait_ms.pct(99), "ms", svc.queue_wait_ms.size());
    for (unsigned k = 0; k < 5; ++k) {
        const Samples& s = ph.svc.run_ms[k].size() >= 3 ? ph.svc.run_ms[k] : probe.run_ms[k];
        rep.add_layer(std::string("scheduler.run_p50_ms.") + kKindNames[k], s.median(), "ms", s.size());
    }
    const ServiceSample& packing = ph.svc.gate_batches > 0 ? ph.svc : probe;
    rep.add_layer("scheduler.gate_batches", static_cast<double>(packing.gate_batches), "count");
    rep.add_layer("scheduler.lanes_per_batch", packing.lanes_per_batch, "count");
    rep.add_layer("scheduler.lane_fill", packing.lane_fill, "fraction");
    rep.add_layer("journal.records_per_job",
                  ph.svc.journal_records_per_job > 0 ? ph.svc.journal_records_per_job
                                                     : probe.journal_records_per_job,
                  "count");

    run_layer_probes(o, packing.batches, ph.journal_dir, rep);

    const FaultSample fs = ph.fault ? ph.fs : fault_probe(rep);
    rep.add_layer("fault.batch_ms_p50", fs.batch_ms.median(), "ms", fs.batch_ms.size());
    rep.add_layer("fault.golden_ms", fs.golden_ms.median(), "ms", fs.golden_ms.size());
    rep.add_layer("fault.batches", fs.batches, "count");
    rep.add_layer("fault.gate_cycles", fs.gate_cycles, "count");
    rep.add_layer("fault.masked", static_cast<double>(fs.masked), "count");
    rep.add_layer("fault.wrong", static_cast<double>(fs.wrong), "count");
    rep.add_layer("fault.hang", static_cast<double>(fs.hang), "count");
    rep.add_layer("fault.recovered", static_cast<double>(fs.recovered), "count");

    // Self time per span name, per root span (job or campaign).
    const auto self = spans.self_times();
    std::uint64_t roots = 0;
    for (const auto& [name, v] : self)
        if (name == "job" || name == "campaign") roots += v.second;
    for (const auto& [name, v] : self)
        rep.add_info("self_ms_per_root." + name, roots > 0 ? v.first / static_cast<double>(roots) : 0,
                     "ms", v.second);
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    bool have_workload = false, warm = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--warm-jit") {
            warm = true;
        } else if (a == "--workload" && has_value) {
            o.workload = argv[++i];
            have_workload = true;
        } else if (a == "--seed" && has_value) {
            o.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (a == "--seconds" && has_value) {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--out" && has_value) {
            o.out_dir = argv[++i];
        } else {
            return usage(("unknown or incomplete option '" + a + "'").c_str());
        }
    }
    if (warm) return warm_jit() ? 0 : 1;
    bool known = false;
    for (const char* w : kWorkloads) known |= have_workload && o.workload == w;
    if (!known) return usage("missing or unknown --workload");
    if (!(o.seconds > 0)) return usage("--seconds wants a positive number");
    if (o.out_dir.empty()) return usage("--out is required");
    std::filesystem::create_directories(o.out_dir);

    print_env(o);
    Report rep;
    try {
        if (!o.trace) {
            SpanLog off(false);
            const Phase ph = run_phase(o, off, rep);
            add_e2e(ph, o, rep);
        } else {
            SpanLog off(false);
            Report base_rep;
            const Phase base = run_phase(o, off, base_rep);
            rep.check(base_rep.correct, "untraced phase of the traced run failed its checks");
            SpanLog spans(true);
            const Phase ph = run_phase(o, spans, rep);
            rep.attempted += base_rep.attempted;
            rep.failed += base_rep.failed;
            rep.flags += base_rep.flags;
            add_layers(o, base, ph, spans, rep);
            spans.write_jsonl(o.out_dir + "/spans_" + o.workload + ".jsonl");
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
    // A measured run never compiles: the cache is warmed before any run.
    const gaip::gates::jit::Stats js = gaip::gates::jit::stats();
    rep.check(js.compiles == 0 && js.misses == 0, "JIT compiled during a measured run");
    rep.check(js.fallbacks == 0, "JIT fell back to the interpreter");

    print_metrics(o.trace ? "per-layer metrics:" : "end-to-end metrics:", o.trace ? rep.layer : rep.e2e);
    print_metrics("details:", rep.info);
    std::string json = "{\"correct\": ";
    json += rep.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : o.trace ? rep.layer : rep.e2e) {
        if (!first) json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
                m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}
