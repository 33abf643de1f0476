#include "common.hpp"

#include <sys/resource.h>

#include <fstream>

namespace perfbench {

std::map<std::string, std::pair<double, std::uint64_t>> SpanLog::self_times() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

    std::map<std::string, std::pair<double, std::uint64_t>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (std::size_t c : children[i]) {
            const auto a = std::max(spans_[c].start, s.start);
            const auto b = std::min(spans_[c].end, s.end);
            if (a < b) iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0;
        Clock::time_point cur_a{}, cur_b{};
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open) covered += ms_between(cur_a, cur_b);
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open) covered += ms_between(cur_a, cur_b);
        auto& slot = out[s.name];
        slot.first += std::max(0.0, ms_between(s.start, s.end) - covered);
        slot.second += 1;
    }
    return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream f(path);
    if (spans_.empty()) return;
    Clock::time_point t0 = spans_.front().start;
    for (const Span& s : spans_) t0 = std::min(t0, s.start);
    char buf[256];
    for (const Span& s : spans_) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%lld,"
                      "\"job\":%llu}\n",
                      s.name.c_str(), ms_between(t0, s.start), ms_between(t0, s.end),
                      static_cast<long long>(s.parent), static_cast<unsigned long long>(s.job));
        f << buf;
    }
}

double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
