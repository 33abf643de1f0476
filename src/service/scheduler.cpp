#include "service/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "bench/gate_batch_runner.hpp"
#include "core/behavioral.hpp"
#include "island/island.hpp"
#include "island/supervised.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/jsonl.hpp"

namespace gaip::service {

namespace {

supervisor::BackendKind to_supervisor_backend(JobBackend b) noexcept {
    switch (b) {
        case JobBackend::kRtl: return supervisor::BackendKind::kRtl;
        case JobBackend::kBehavioral: return supervisor::BackendKind::kBehavioral;
        case JobBackend::kGates: return supervisor::BackendKind::kGateLane;
    }
    return supervisor::BackendKind::kBehavioral;
}

bool is_terminal(JobState s) noexcept {
    return s != JobState::kQueued && s != JobState::kRunning;
}

/// Gate jobs are packable when nothing job-specific escapes the lane:
/// plain single-engine, unsupervised runs.
bool batchable(const JobSpec& s) noexcept {
    return s.backend == JobBackend::kGates && s.islands == 0 && !s.supervise;
}

}  // namespace

/// One tracked job. Doubles as the job's live-stream hub: engines emit
/// trace events into it and it fans out to every attached client sink
/// (zero-cost when nobody subscribed — the emit sites check streaming()).
struct Scheduler::Job final : trace::TraceSink {
    JobRecord rec;
    Clock::time_point deadline{};  ///< zero when the job has none
    std::atomic<bool> cancel{false};

    std::mutex stream_mu;
    std::vector<trace::TraceSink*> sinks;
    std::vector<std::function<void(const JobRecord&)>> end_cbs;
    std::atomic<unsigned> sink_count{0};
    bool ended = false;  ///< end callbacks fired (guarded by stream_mu)

    bool streaming() const noexcept {
        return sink_count.load(std::memory_order_relaxed) != 0;
    }

    void on_event(const trace::TraceEvent& e) override {
        if (!streaming()) return;
        std::lock_guard<std::mutex> lk(stream_mu);
        for (trace::TraceSink* s : sinks) s->on_event(e);
    }
};

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg), started_(Clock::now()) {
    if (cfg_.workers == 0) cfg_.workers = 1;
    cfg_.max_batch_lanes =
        std::clamp<unsigned>(cfg_.max_batch_lanes, 1, bench::BatchGateRunner::kMaxLanes);
    runner_cache_.resize(cfg_.workers);
    workers_.reserve(cfg_.workers);
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this, w] { worker_main(w); });
}

Scheduler::~Scheduler() { stop(); }

bool Scheduler::past_deadline(const JobPtr& j) const {
    return j->deadline != Clock::time_point{} && Clock::now() > j->deadline;
}

void Scheduler::enqueue(const JobPtr& j) {
    queue_.push_back(j);
    if (batchable(j->rec.spec)) queued_gates_.fetch_add(1, std::memory_order_relaxed);
}

void Scheduler::note_dequeued(const JobPtr& j) {
    if (batchable(j->rec.spec)) queued_gates_.fetch_sub(1, std::memory_order_relaxed);
}

void Scheduler::mark_running(const JobPtr& j, Clock::time_point now) {
    j->rec.state = JobState::kRunning;
    j->rec.started = now;
    ++active_;
    if (cfg_.journal != nullptr) cfg_.journal->record_start(j->rec.id);
}

void Scheduler::emit_start(const JobPtr& j) {
    trace::TraceEvent e("job_start", 0, 0);
    e.add("id", j->rec.id);
    e.add("backend", job_backend_name(j->rec.spec.backend));
    emit_metric(std::move(e));
}

void Scheduler::left_worker() {
    std::lock_guard<std::mutex> lk(mu_);
    if (--active_ == 0) idle_cv_.notify_all();  // wait_idle / wait_drained
}

void Scheduler::emit_metric(trace::TraceEvent e) {
    if (cfg_.metrics == nullptr) return;
    std::lock_guard<std::mutex> lk(metrics_mu_);
    cfg_.metrics->on_event(e);
    cfg_.metrics->flush();
}

std::uint64_t Scheduler::submit(const JobSpec& spec) {
    JobPtr j;
    std::size_t full_depth = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ || draining_)
            throw ProtocolError(err::kShuttingDown,
                                draining_ ? "daemon is draining" : "daemon is shutting down");
        if (queue_.size() >= cfg_.max_queue) {
            ++counters_.rejected;
            full_depth = queue_.size();
        } else {
            j = std::make_shared<Job>();
            j->rec.id = next_id_++;
            j->rec.spec = spec;
            j->rec.submitted = Clock::now();
            if (spec.deadline_ms != 0)
                j->deadline = j->rec.submitted + std::chrono::milliseconds(spec.deadline_ms);
            // Write-ahead: the journal record lands before the job can run
            // (or be acknowledged), so a crash never loses an accepted job.
            if (cfg_.journal != nullptr) cfg_.journal->record_submit(j->rec);
            jobs_[j->rec.id] = j;
            enqueue(j);
            ++counters_.submitted;
        }
    }
    if (!j) {
        // Metrics are emitted (and flushed) outside mu_, like job_submit.
        trace::TraceEvent e("job_reject", 0, 0);
        e.add("queued", std::uint64_t{full_depth});
        emit_metric(std::move(e));
        throw ProtocolError(err::kQueueFull,
                            "queue full (" + std::to_string(cfg_.max_queue) + " jobs)");
    }
    cv_.notify_one();
    trace::TraceEvent e("job_submit", 0, 0);
    e.add("id", j->rec.id);
    e.add("fitness", fitness::fitness_name(spec.fn));
    e.add("backend", job_backend_name(spec.backend));
    if (spec.islands != 0) e.add("islands", std::uint64_t{spec.islands});
    if (spec.supervise) e.add("supervise", std::uint64_t{1});
    emit_metric(std::move(e));
    return j->rec.id;
}

CancelOutcome Scheduler::cancel(std::uint64_t id) {
    JobPtr queued_victim;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) return CancelOutcome::kNotFound;
        JobPtr j = it->second;
        if (is_terminal(j->rec.state)) return CancelOutcome::kTooLate;
        j->cancel.store(true, std::memory_order_relaxed);
        if (j->rec.state == JobState::kQueued) {
            queue_.erase(std::remove(queue_.begin(), queue_.end(), j), queue_.end());
            note_dequeued(j);
            queued_victim = std::move(j);
        }
    }
    if (queued_victim) finish(queued_victim, JobState::kCancelled, {});
    return CancelOutcome::kCancelled;
}

std::optional<JobRecord> Scheduler::status(std::uint64_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    return it->second->rec;
}

std::vector<JobRecord> Scheduler::list() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JobRecord> out;
    out.reserve(jobs_.size());
    for (const auto& [id, j] : jobs_) out.push_back(j->rec);
    std::sort(out.begin(), out.end(),
              [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
    return out;
}

void Scheduler::restore_terminal(const JobRecord& rec) {
    std::lock_guard<std::mutex> lk(mu_);
    auto j = std::make_shared<Job>();
    j->rec = rec;
    {
        std::lock_guard<std::mutex> slk(j->stream_mu);
        j->ended = true;
    }
    jobs_[rec.id] = std::move(j);
    next_id_ = std::max(next_id_, rec.id + 1);
    ++counters_.restored;
}

void Scheduler::readmit(const JobRecord& rec) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ || draining_) return;
        j = std::make_shared<Job>();
        j->rec.id = rec.id;
        j->rec.spec = rec.spec;
        j->rec.state = JobState::kQueued;
        j->rec.submitted = Clock::now();
        if (rec.spec.deadline_ms != 0)
            j->deadline = j->rec.submitted + std::chrono::milliseconds(rec.spec.deadline_ms);
        jobs_[j->rec.id] = j;
        enqueue(j);
        next_id_ = std::max(next_id_, rec.id + 1);
        ++counters_.submitted;
        ++counters_.readmitted;
    }
    cv_.notify_one();
    trace::TraceEvent e("job_readmit", 0, 0);
    e.add("id", rec.id);
    e.add("backend", job_backend_name(rec.spec.backend));
    emit_metric(std::move(e));
}

void Scheduler::begin_drain() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
    }
    cv_.notify_all();
}

bool Scheduler::draining() const {
    std::lock_guard<std::mutex> lk(mu_);
    return draining_;
}

void Scheduler::wait_drained() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return active_ == 0; });
}

std::size_t Scheduler::queue_depth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

std::uint64_t Scheduler::next_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return next_id_;
}

ServiceStats Scheduler::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s = counters_;
    s.queued = queue_.size();
    s.running = active_;
    s.uptime_s = std::chrono::duration<double>(Clock::now() - started_).count();
    return s;
}

bool Scheduler::attach_stream(std::uint64_t id, trace::TraceSink* sink,
                              std::function<void(const JobRecord&)> on_end) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) throw ProtocolError(err::kNotFound, "no such job");
        j = it->second;
    }
    std::lock_guard<std::mutex> lk(j->stream_mu);
    if (j->ended) return false;
    if (sink != nullptr) {
        j->sinks.push_back(sink);
        j->sink_count.store(static_cast<unsigned>(j->sinks.size()), std::memory_order_relaxed);
    }
    if (on_end) j->end_cbs.push_back(std::move(on_end));
    return true;
}

void Scheduler::detach_stream(std::uint64_t id, trace::TraceSink* sink) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) return;
        j = it->second;
    }
    std::lock_guard<std::mutex> lk(j->stream_mu);
    j->sinks.erase(std::remove(j->sinks.begin(), j->sinks.end(), sink), j->sinks.end());
    j->sink_count.store(static_cast<unsigned>(j->sinks.size()), std::memory_order_relaxed);
}

std::size_t Scheduler::expire_overdue() {
    std::vector<JobPtr> victims;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = queue_.begin(); it != queue_.end();) {
            const JobPtr& j = *it;
            if (j->deadline != Clock::time_point{} && Clock::now() > j->deadline) {
                victims.push_back(j);
                note_dequeued(j);
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const JobPtr& j : victims) finish(j, JobState::kExpired, {});
    return victims.size();
}

void Scheduler::wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
}

void Scheduler::stop() {
    std::vector<JobPtr> orphans;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ && workers_.empty()) return;
        stopping_ = true;
        if (!draining_) {
            // Drain mode preserves queued jobs: they stay journaled as
            // pending and are recovered (re-admitted) on the next boot.
            orphans.assign(queue_.begin(), queue_.end());
            queue_.clear();
            queued_gates_.store(0, std::memory_order_relaxed);
            for (const auto& [id, j] : jobs_)
                if (j->rec.state == JobState::kRunning)
                    j->cancel.store(true, std::memory_order_relaxed);
        }
    }
    cv_.notify_all();
    for (const JobPtr& j : orphans) finish(j, JobState::kCancelled, {});
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    idle_cv_.notify_all();
}

void Scheduler::finish(const JobPtr& j, JobState state, const JobOutcome& outcome,
                       const std::string& error) {
    JobRecord snapshot;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (is_terminal(j->rec.state)) return;
        j->rec.state = state;
        j->rec.outcome = outcome;
        j->rec.error = error;
        j->rec.finished = Clock::now();
        if (j->rec.started == Clock::time_point{}) j->rec.started = j->rec.finished;
        switch (state) {
            case JobState::kDone: {
                ++counters_.done;
                counters_.gens_total += outcome.generations;
                counters_.evals_total += outcome.evaluations;
                counters_.rollbacks_total += outcome.rollbacks;
                switch (j->rec.spec.backend) {
                    case JobBackend::kRtl: ++counters_.done_rtl; break;
                    case JobBackend::kBehavioral: ++counters_.done_behavioral; break;
                    case JobBackend::kGates: ++counters_.done_gates; break;
                }
                if (j->rec.spec.islands != 0) ++counters_.done_islands;
                if (j->rec.spec.supervise) ++counters_.done_supervised;
                break;
            }
            case JobState::kFailed: ++counters_.failed; break;
            case JobState::kCancelled: ++counters_.cancelled; break;
            case JobState::kExpired:
                ++counters_.expired;
                ++counters_.deadline_misses;
                break;
            default: break;
        }
        // Write-ahead: the terminal record is durable before the end
        // callbacks (and thus any client-visible ack) can observe it.
        if (cfg_.journal != nullptr) cfg_.journal->record_terminal(j->rec);
        snapshot = j->rec;
    }
    const char* metric_kind = "job_done";
    if (state == JobState::kFailed) metric_kind = "job_fail";
    if (state == JobState::kCancelled) metric_kind = "job_cancel";
    if (state == JobState::kExpired) metric_kind = "job_expire";
    trace::TraceEvent e(metric_kind, 0, 0);
    e.add("id", snapshot.id);
    e.add("backend", job_backend_name(snapshot.spec.backend));
    if (state == JobState::kDone) {
        e.add("best_fitness", std::uint64_t{outcome.best_fitness});
        e.add("generations", std::uint64_t{outcome.generations});
        if (!outcome.status.empty()) e.add("status", outcome.status);
    }
    if (!error.empty()) e.add("error", error);
    emit_metric(std::move(e));

    std::vector<std::function<void(const JobRecord&)>> cbs;
    {
        std::lock_guard<std::mutex> lk(j->stream_mu);
        j->ended = true;
        cbs.swap(j->end_cbs);
        j->sinks.clear();
        j->sink_count.store(0, std::memory_order_relaxed);
    }
    for (auto& cb : cbs) cb(snapshot);
}

void Scheduler::worker_main(unsigned worker_idx) {
    for (;;) {
        std::vector<JobPtr> batch;
        JobPtr single;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return stopping_ || draining_ || !queue_.empty(); });
            // Drain: leave queued jobs where they are (journaled pending).
            if (stopping_ || draining_) return;
            if (queue_.empty()) continue;
            JobPtr j = queue_.front();
            queue_.pop_front();
            const auto now = Clock::now();
            if (batchable(j->rec.spec)) {
                // The gates jobs right behind it, of any fitness function,
                // open the lane block with it; later ones refill its free
                // lanes while it runs (run_gate_batch).
                batch.push_back(std::move(j));
                while (!queue_.empty() && batch.size() < cfg_.max_batch_lanes &&
                       batchable(queue_.front()->rec.spec)) {
                    batch.push_back(queue_.front());
                    queue_.pop_front();
                }
                queued_gates_.fetch_sub(batch.size(), std::memory_order_relaxed);
                for (const JobPtr& t : batch) mark_running(t, now);
            } else {
                single = std::move(j);
                mark_running(single, now);
            }
        }
        if (single) {
            emit_start(single);
            run_single(single);
            left_worker();
        } else {
            for (const JobPtr& t : batch) emit_start(t);
            run_gate_batch(std::move(batch), worker_idx);
        }
    }
}

void Scheduler::run_single(const JobPtr& j) {
    try {
        if (j->cancel.load(std::memory_order_relaxed)) {
            finish(j, JobState::kCancelled, {});
            return;
        }
        if (past_deadline(j)) {
            finish(j, JobState::kExpired, {});
            return;
        }
        if (j->rec.spec.islands > 0) {
            run_island_job(j);
        } else if (j->rec.spec.supervise) {
            run_supervised_job(j);
        } else if (j->rec.spec.backend == JobBackend::kBehavioral) {
            run_behavioral_job(j);
        } else if (j->rec.spec.backend == JobBackend::kRtl) {
            run_rtl_job(j);
        } else {
            throw std::logic_error("plain gates jobs run as lanes of a gate block");
        }
    } catch (const std::exception& ex) {
        finish(j, JobState::kFailed, {}, ex.what());
    }
}

void Scheduler::run_behavioral_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    const fitness::FitnessId fn = spec.fn;
    core::BehavioralEngine eng(
        spec.params, [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
        prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
    while (!eng.done()) {
        if (j->cancel.load(std::memory_order_relaxed)) {
            finish(j, JobState::kCancelled, {});
            return;
        }
        if (past_deadline(j)) {
            finish(j, JobState::kExpired, {});
            return;
        }
        eng.step_generation();
        if (j->streaming()) {
            trace::TraceEvent e(trace::kind::kGeneration, 0, 0);
            e.add("gen", std::uint64_t{eng.generation()});
            e.add("best_fit", std::uint64_t{eng.best_fitness()});
            e.add("best_ind", std::uint64_t{eng.best_candidate()});
            j->on_event(e);
        }
    }
    JobOutcome out;
    out.best_fitness = eng.best_fitness();
    out.best_candidate = eng.best_candidate();
    out.generations = eng.generation();
    out.evaluations = eng.evaluations();
    if (j->streaming()) {
        trace::TraceEvent e(trace::kind::kDone, 0, 0);
        e.add("best_fit", std::uint64_t{out.best_fitness});
        e.add("best_ind", std::uint64_t{out.best_candidate});
        j->on_event(e);
    }
    finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
}

void Scheduler::run_rtl_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    system::GaSystemConfig cfg;
    cfg.params = spec.params;
    cfg.internal_fems = {spec.fn};
    cfg.fitfunc_select = 0;
    cfg.keep_populations = false;
    cfg.trace_sink = j.get();
    const core::RunResult r = system::run_ga_system(cfg);
    JobOutcome out;
    out.best_fitness = r.best_fitness;
    out.best_candidate = r.best_candidate;
    out.generations = spec.params.n_gens;
    out.evaluations = r.evaluations;
    if (j->cancel.load(std::memory_order_relaxed)) {
        finish(j, JobState::kCancelled, {});  // arrived mid-run; result discarded
    } else {
        finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
    }
}

void Scheduler::run_island_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    island::IslandConfig ic;
    ic.fn = spec.fn;
    ic.base = spec.params;
    ic.islands = spec.islands;
    ic.topology = spec.topology;
    ic.migration = spec.migration;
    ic.backend = to_supervisor_backend(spec.backend);
    ic.gate_backend = cfg_.gate_backend;
    ic.words = spec.words;
    ic.sink = j.get();
    JobOutcome out;
    if (spec.supervise) {
        island::SupervisedIslandConfig sc;
        sc.islands = ic;
        sc.sink = j.get();
        island::SupervisedIslandSystem sys(sc);
        const island::SupervisedIslandReport rep = sys.run();
        out.best_fitness = rep.best_fitness;
        out.best_candidate = rep.best_candidate;
        out.generations = spec.params.n_gens;
        out.rollbacks = rep.rollbacks;
        out.status = supervisor::status_name(rep.status);
        for (const island::IslandStats& is : rep.result.islands) out.evaluations += is.evaluations;
        if (rep.status == supervisor::Status::kAborted) {
            finish(j, JobState::kFailed, out, "supervisor abort: " + rep.abort_reason);
            return;
        }
    } else {
        const island::IslandResult r = island::run_island_system(ic);
        out.best_fitness = r.best_fitness;
        out.best_candidate = r.best_candidate;
        out.generations = spec.params.n_gens;
        for (const island::IslandStats& is : r.islands) out.evaluations += is.evaluations;
    }
    if (j->cancel.load(std::memory_order_relaxed)) {
        finish(j, JobState::kCancelled, {});
    } else {
        finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
    }
}

void Scheduler::run_supervised_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    supervisor::SupervisorConfig sc;
    sc.fn = spec.fn;
    sc.params = spec.params;
    sc.backend = to_supervisor_backend(spec.backend);
    sc.sink = j.get();
    supervisor::MissionSupervisor sup(sc);
    const supervisor::SupervisorReport rep = sup.run();
    JobOutcome out;
    out.best_fitness = rep.best_fitness;
    out.best_candidate = rep.best_candidate;
    out.generations = rep.generations;
    out.rollbacks = rep.rollbacks;
    out.retries = rep.retries;
    out.status = supervisor::status_name(rep.status);
    if (rep.status == supervisor::Status::kAborted) {
        finish(j, JobState::kFailed, out, "supervisor abort: " + rep.abort_reason);
        return;
    }
    if (j->cancel.load(std::memory_order_relaxed)) {
        finish(j, JobState::kCancelled, {});
    } else {
        finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
    }
}

void Scheduler::run_gate_batch(std::vector<JobPtr> batch, unsigned worker_idx) {
    using bench::BatchGateRunner;
    // Lane-block width: honor the largest per-job hint, then grow to fit
    // the opening lane count. Refill admits up to `cap` lanes.
    unsigned words = 1;
    for (const JobPtr& j : batch) words = std::max(words, j->rec.spec.words);
    while (std::size_t{words} * BatchGateRunner::kWordBits < batch.size()) words *= 2;
    const std::size_t cap =
        std::min<std::size_t>(cfg_.max_batch_lanes, std::size_t{words} * BatchGateRunner::kWordBits);

    // lanes[k]: the job running in lane k (null = free lane).
    std::vector<JobPtr> lanes = std::move(batch);
    std::size_t live = lanes.size();
    BatchGateRunner* runner = nullptr;
    const auto end_lane = [&](std::size_t k, JobState state, const JobOutcome& out,
                              const std::string& error) {
        const JobPtr j = std::move(lanes[k]);
        lanes[k] = nullptr;
        if (runner != nullptr) runner->free_lane(static_cast<unsigned>(k));
        --live;
        finish(j, state, out, error);
        left_worker();
    };

    try {
        std::vector<core::GaParameters> lane_params;
        lane_params.reserve(live);
        for (const JobPtr& j : lanes) lane_params.push_back(j->rec.spec.params);
        auto& cache = runner_cache_[worker_idx];
        auto it = cache.find(words);
        if (it == cache.end()) {
            it = cache
                     .emplace(words, std::make_unique<BatchGateRunner>(
                                         lanes.front()->rec.spec.fn, lane_params, words,
                                         cfg_.gate_backend))
                     .first;
        } else {
            it->second->reconfigure(lanes.front()->rec.spec.fn, std::move(lane_params));
        }
        runner = it->second.get();
        for (std::size_t k = 0; k < live; ++k) {
            runner->set_lane_fitness(static_cast<unsigned>(k), lanes[k]->rec.spec.fn);
            runner->set_lane_sink(static_cast<unsigned>(k), lanes[k].get());
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++counters_.gate_batches;
            counters_.gate_lanes += live;
        }
        lanes.resize(cap);

        constexpr std::uint64_t kCheckMask = 2047;  // cancel/deadline/bound window
        bool admitting = true;
        runner->begin_run();
        while (live > 0) {
            // A lane's job ends in the cycle it raises GA_done.
            if (runner->step_cycle() < live) {
                for (std::size_t k = 0; k < cap; ++k) {
                    if (!lanes[k]) continue;
                    const bench::BatchLaneResult& lr = runner->lane_result(static_cast<unsigned>(k));
                    if (!lr.finished) continue;
                    JobOutcome out;
                    out.best_fitness = lr.best_fitness;
                    out.best_candidate = lr.best_candidate;
                    out.generations = lr.generations;
                    out.evaluations = lr.evaluations;
                    JobState state = JobState::kDone;
                    if (lanes[k]->cancel.load(std::memory_order_relaxed))
                        state = JobState::kCancelled;
                    else if (past_deadline(lanes[k]))
                        state = JobState::kExpired;
                    end_lane(k, state, state == JobState::kDone ? out : JobOutcome{}, {});
                }
            }
            if ((runner->cycles() & kCheckMask) == 0) {
                for (std::size_t k = 0; k < cap; ++k) {
                    if (!lanes[k]) continue;
                    const unsigned lane = static_cast<unsigned>(k);
                    if (lanes[k]->cancel.load(std::memory_order_relaxed))
                        end_lane(k, JobState::kCancelled, {}, {});
                    else if (past_deadline(lanes[k]))
                        end_lane(k, JobState::kExpired, {}, {});
                    else if (runner->lane_cycles(lane) >= runner->lane_cycle_bound(lane))
                        end_lane(k, JobState::kFailed, {},
                                 "lane did not finish within the cycle bound");
                }
            }
            if (admitting && live < cap && queued_gates_.load(std::memory_order_relaxed) != 0)
                admitting = refill_lanes(*runner, lanes, live);
        }
    } catch (const std::exception& ex) {
        for (std::size_t k = 0; k < lanes.size(); ++k)
            if (lanes[k]) end_lane(k, JobState::kFailed, {}, ex.what());
    }
}

bool Scheduler::refill_lanes(bench::BatchGateRunner& runner, std::vector<JobPtr>& lanes,
                             std::size_t& live) {
    std::vector<std::size_t> loaded;
    bool open = true;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto now = Clock::now();
        std::size_t k = 0;
        while (live < lanes.size() && !queue_.empty()) {
            const JobPtr& front = queue_.front();
            // FIFO: a non-gates job (or one wanting a wider block) at the
            // front ends admission, so this block drains and the worker
            // turns to it — no starvation behind a stream of gates jobs.
            if (stopping_ || draining_ || !batchable(front->rec.spec) ||
                front->rec.spec.words > runner.words()) {
                open = false;
                break;
            }
            while (lanes[k]) ++k;
            lanes[k] = front;
            queue_.pop_front();
            queued_gates_.fetch_sub(1, std::memory_order_relaxed);
            mark_running(lanes[k], now);
            ++counters_.gate_lanes;
            ++live;
            loaded.push_back(k);
        }
    }
    for (const std::size_t k : loaded) {
        const JobPtr& j = lanes[k];
        runner.load_lane(static_cast<unsigned>(k), j->rec.spec.fn, j->rec.spec.params);
        runner.set_lane_sink(static_cast<unsigned>(k), j.get());
        emit_start(j);
    }
    return open;
}

}  // namespace gaip::service
