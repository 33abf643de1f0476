// Minimal work-stealing-free worker pool: parallel_for_n runs `count`
// index-addressed jobs on up to `threads` std::threads with an atomic
// fetch-add cursor, so IslandSystem's barrier-to-barrier segments,
// FaultCampaign batches and future sweeps share one audited implementation
// instead of growing copies.
//
// Guarantees:
//   * job(i) is invoked exactly once for each i in [0, count);
//   * threads == 1 (or count <= 1) degrades to a plain sequential loop on
//     the calling thread — bit-identical scheduling, no thread creation;
//   * exceptions are captured per worker and the FIRST one (by worker
//     index) is rethrown on the calling thread after all workers join, so
//     a throwing job cannot leak detached threads or torn state;
//   * determinism is the CALLER's job: jobs must write only to
//     index-owned slots (results[i]), never to shared accumulators.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace gaip::util {

/// Resolve a thread-count request against the machine: 0 means "all
/// hardware threads", anything is capped to `jobs` (no idle workers).
inline unsigned resolve_threads(unsigned requested, std::size_t jobs) noexcept {
    unsigned n = requested;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0) n = 1;
    }
    if (std::size_t{n} > jobs) n = static_cast<unsigned>(jobs == 0 ? 1 : jobs);
    return std::max(1u, n);
}

/// Run job(worker, i) for every i in [0, count) on up to `threads` workers.
/// `worker` is the executing worker's index (0 <= worker < resolved thread
/// count; worker 0 is the calling thread in the sequential degradation), so
/// callers can reuse ONE expensive per-worker context — e.g. a compiled
/// gate engine — across every job that worker picks up.
template <typename Job>
void parallel_for_workers(unsigned threads, std::size_t count, Job&& job) {
    threads = resolve_threads(threads, count);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i) job(0u, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            try {
                for (;;) {
                    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= count) break;
                    job(t, i);
                }
            } catch (...) {
                errors[t] = std::current_exception();
                // Drain the cursor so siblings stop picking up new jobs.
                next.store(count, std::memory_order_relaxed);
            }
        });
    }
    for (std::thread& w : workers) w.join();
    for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
}

/// Run job(i) for every i in [0, count) on up to `threads` workers.
/// `Job` is invoked as job(std::size_t index).
template <typename Job>
void parallel_for_n(unsigned threads, std::size_t count, Job&& job) {
    parallel_for_workers(threads, count, [&job](unsigned, std::size_t i) { job(i); });
}

}  // namespace gaip::util
