// Shared plumbing of the benchmark program: clocks, sample statistics, the
// in-memory span log of traced runs, and the report every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Sample set with interpolated percentiles (numpy's default "linear" rule).
class Samples {
public:
    void add(double v) { v_.push_back(v); }
    void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    std::size_t size() const noexcept { return v_.size(); }
    bool empty() const noexcept { return v_.empty(); }
    double sum() const {
        double s = 0;
        for (double v : v_) s += v;
        return s;
    }
    double mean() const { return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size()); }
    /// p in [0, 100]. Empty sets read 0.
    double pct(double p) const {
        if (v_.empty()) return 0.0;
        std::vector<double> s = v_;
        std::sort(s.begin(), s.end());
        const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, s.size() - 1);
        return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
    }
    double median() const { return pct(50); }

private:
    std::vector<double> v_;
};

/// One reported metric. `samples` is the count the value was taken from
/// (printed next to it; 0 for plain counters).
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

/// What one workload run hands back to main().
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t flags = 0;  ///< open-loop honesty warnings
    std::vector<Metric> e2e;    ///< end-to-end metrics (untraced run)
    std::vector<Metric> layer;  ///< per-layer metrics (traced run)
    std::vector<Metric> info;   ///< printed for the reader, not part of the JSON result

    void check(bool ok, const std::string& what) {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
        }
    }
    void flag(const std::string& what) {
        ++flags;
        std::fprintf(stderr, "perfbench: FLAG: %s\n", what.c_str());
    }
    void add_e2e(std::string n, double v, std::string u, std::uint64_t s = 0) {
        e2e.push_back({std::move(n), v, std::move(u), s});
    }
    void add_layer(std::string n, double v, std::string u, std::uint64_t s = 0) {
        layer.push_back({std::move(n), v, std::move(u), s});
    }
    void add_info(std::string n, double v, std::string u, std::uint64_t s = 0) {
        info.push_back({std::move(n), v, std::move(u), s});
    }
};

/// One traced interval. Spans of one job share `job`; `parent` indexes the
/// span that caused this one (-1 for a root).
struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    std::uint64_t job = 0;
};

/// In-memory span log of a traced run: recorded around the benchmark's calls
/// into each layer, written out once at exit. Disabled logs record nothing.
class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    bool enabled() const noexcept { return enabled_; }

    std::int64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                     std::int64_t parent = -1, std::uint64_t job = 0) {
        if (!enabled_) return -1;
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back({std::move(name), start, end, parent, job});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    /// Per span name: total self time (duration minus the union of its
    /// children's intervals, clipped to the span) and the span count.
    std::map<std::string, std::pair<double, std::uint64_t>> self_times() const;

    /// One JSON object per line: name, start/end in ms from the first span,
    /// parent index, job id.
    void write_jsonl(const std::string& path) const;

private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Deterministic generator for everything a workload derives from --seed.
using Rng = std::mt19937_64;

inline unsigned uniform(Rng& r, unsigned lo, unsigned hi) {
    return std::uniform_int_distribution<unsigned>(lo, hi)(r);
}

}  // namespace perfbench
