#include "service/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/behavioral.hpp"
#include "gates/batch_runner.hpp"
#include "island/island.hpp"
#include "island/supervised.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/jsonl.hpp"

namespace gaip::service {

namespace {

/// Gate jobs are packable when nothing job-specific escapes the lane:
/// plain single-engine, unsupervised runs.
bool batchable(const JobSpec& s) noexcept {
    return s.backend == core::Substrate::kGates && s.islands == 0 && !s.supervise;
}

}  // namespace

/// One tracked job. Doubles as the job's live-stream hub: engines emit
/// trace events into it and it fans out to every attached client sink
/// (zero-cost when nobody subscribed — the emit sites check streaming()).
struct Scheduler::Job final : trace::TraceSink {
    JobRecord rec;
    Clock::time_point deadline{};  ///< zero when the job has none
    std::atomic<bool> cancel{false};
    bool claimed = false;  ///< a path is ending it (guarded by mu_)

    struct Subscriber {
        std::shared_ptr<trace::TraceSink> sink;
        std::function<void(const JobRecord&)> on_end;
    };
    std::mutex stream_mu;
    std::vector<Subscriber> subs;
    std::atomic<unsigned> sink_count{0};
    bool ended = false;  ///< subscriptions closed (guarded by stream_mu)

    bool streaming() const noexcept {
        return sink_count.load(std::memory_order_relaxed) != 0;
    }

    void on_event(const trace::TraceEvent& e) override {
        if (!streaming()) return;
        std::lock_guard<std::mutex> lk(stream_mu);
        for (const Subscriber& s : subs) s.sink->on_event(e);
    }
};

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg), started_(Clock::now()) {
    if (cfg_.workers == 0) cfg_.workers = 1;
    cfg_.max_batch_lanes =
        std::clamp<unsigned>(cfg_.max_batch_lanes, 1, gates::BatchGateRunner::kMaxLanes);
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
}

void Scheduler::emit_start(const JobPtr& j) {
    trace::TraceEvent e("job_start", 0, 0);
    e.add("id", j->rec.id);
    e.add("backend", core::substrate_name(j->rec.spec.backend));
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
    auto j = std::make_shared<Job>();
    j->rec.spec = spec;
    std::size_t full_depth = 0;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_ || draining_)
            throw ProtocolError(err::kShuttingDown,
                                draining_ ? "daemon is draining" : "daemon is shutting down");
        if (queue_.size() + submitting_ >= cfg_.max_queue) {
            ++counters_.rejected;
            full_depth = queue_.size();
        } else {
            begin_journal(lk);
            j->rec.id = next_id_++;
            ++submitting_;
        }
    }
    if (j->rec.id == 0) {  // queue full: no id was allocated
        // Metrics are emitted (and flushed) outside mu_, like job_submit.
        trace::TraceEvent e("job_reject", 0, 0);
        e.add("queued", std::uint64_t{full_depth});
        emit_metric(std::move(e));
        throw ProtocolError(err::kQueueFull,
                            "queue full (" + std::to_string(cfg_.max_queue) + " jobs)");
    }
    j->rec.submitted = Clock::now();
    if (spec.deadline_ms != 0)
        j->deadline = j->rec.submitted + std::chrono::milliseconds(spec.deadline_ms);
    // Write-ahead: the journal record lands before the job can run (or be
    // acknowledged), so a crash never loses an accepted job.
    if (cfg_.journal != nullptr) cfg_.journal->record_submit(j->rec);
    bool cancel_now = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        end_journal();
        --submitting_;
        jobs_[j->rec.id] = j;
        ++counters_.submitted;
        // Nothing is queued after stop(): it cancels this job like the ones
        // it found queued; a drain leaves it journaled pending instead.
        if (!stopping_) enqueue(j);
        cancel_now = stopping_ && !draining_;
    }
    if (cancel_now) {
        finish(j, JobState::kCancelled, {});
    } else {
        cv_.notify_one();
    }
    trace::TraceEvent e("job_submit", 0, 0);
    e.add("id", j->rec.id);
    e.add("fitness", fitness::fitness_name(spec.fn));
    e.add("backend", core::substrate_name(spec.backend));
    if (spec.islands != 0) e.add("islands", std::uint64_t{spec.islands});
    if (spec.supervise) e.add("supervise", std::uint64_t{1});
    emit_metric(std::move(e));
    return j->rec.id;
}

CancelOutcome Scheduler::cancel(std::uint64_t id) {
    JobPtr queued_victim;
    {
        std::unique_lock<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return terminal_row(id) != nullptr ? CancelOutcome::kTooLate
                                               : CancelOutcome::kNotFound;
        JobPtr j = it->second;
        if (j->claimed) return CancelOutcome::kTooLate;
        j->cancel.store(true, std::memory_order_relaxed);
        if (j->rec.state == JobState::kQueued) {
            // Not in the queue when a submit that raced stop() registered it.
            if (const auto q = std::find(queue_.begin(), queue_.end(), j); q != queue_.end()) {
                queue_.erase(q);
                note_dequeued(j);
            }
            j->claimed = true;
            begin_journal(lk);
            queued_victim = std::move(j);
        }
    }
    if (queued_victim) commit(queued_victim, JobState::kCancelled, {}, {});
    return CancelOutcome::kCancelled;
}

std::optional<JobRecord> Scheduler::status(std::uint64_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) return it->second->rec;
    if (const TerminalRow* row = terminal_row(id)) return terminal_record(id, *row);
    return std::nullopt;
}

std::vector<JobRecord> Scheduler::list() const {
    std::lock_guard<std::mutex> lk(mu_);
    return list_locked();
}

std::vector<JobRecord> Scheduler::list_locked() const {
    std::vector<JobRecord> out;
    for (std::size_t c = 0; c < terminal_.size(); ++c) {
        if (!terminal_[c]) continue;
        for (std::size_t k = 0; k < kRowsPerChunk; ++k)
            if ((*terminal_[c])[k].state != JobState::kQueued)
                out.push_back(terminal_record(c * kRowsPerChunk + k, (*terminal_[c])[k]));
    }
    for (const auto& [id, j] : jobs_) out.push_back(j->rec);
    std::sort(out.begin(), out.end(),
              [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
    return out;
}

void Scheduler::store_terminal(const JobRecord& rec) {
    const std::size_t c = rec.id / kRowsPerChunk;
    if (c >= terminal_.size()) terminal_.resize(c + 1);
    if (!terminal_[c]) terminal_[c] = std::make_unique<RowChunk>();
    TerminalRow& row = (*terminal_[c])[rec.id % kRowsPerChunk];
    row.spec = rec.spec;
    row.submitted = rec.submitted;
    row.started = rec.started;
    row.finished = rec.finished;
    row.evaluations = rec.outcome.evaluations;
    row.generations = rec.outcome.generations;
    row.rollbacks = rec.outcome.rollbacks;
    row.retries = rec.outcome.retries;
    row.best_fitness = rec.outcome.best_fitness;
    row.best_candidate = rec.outcome.best_candidate;
    row.state = rec.state;
    row.has_text = !rec.error.empty() || !rec.outcome.status.empty();
    if (row.has_text) terminal_text_[rec.id] = {rec.error, rec.outcome.status};
}

const Scheduler::TerminalRow* Scheduler::terminal_row(std::uint64_t id) const {
    const std::size_t c = id / kRowsPerChunk;
    if (c >= terminal_.size() || !terminal_[c]) return nullptr;
    const TerminalRow& row = (*terminal_[c])[id % kRowsPerChunk];
    return row.state == JobState::kQueued ? nullptr : &row;
}

JobRecord Scheduler::terminal_record(std::uint64_t id, const TerminalRow& row) const {
    JobRecord rec;
    rec.id = id;
    rec.spec = row.spec;
    rec.state = row.state;
    rec.outcome.best_fitness = row.best_fitness;
    rec.outcome.best_candidate = row.best_candidate;
    rec.outcome.generations = row.generations;
    rec.outcome.evaluations = row.evaluations;
    rec.outcome.rollbacks = row.rollbacks;
    rec.outcome.retries = row.retries;
    rec.submitted = row.submitted;
    rec.started = row.started;
    rec.finished = row.finished;
    if (row.has_text) {
        const TerminalText& text = terminal_text_.at(id);
        rec.error = text.error;
        rec.outcome.status = text.status;
    }
    return rec;
}

void Scheduler::restore_terminal(const JobRecord& rec) {
    std::lock_guard<std::mutex> lk(mu_);
    store_terminal(rec);
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
    e.add("backend", core::substrate_name(rec.spec.backend));
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

void Scheduler::rotate_journal() {
    if (cfg_.journal == nullptr) return;
    std::vector<JobRecord> live;
    std::uint64_t next = 0;
    {
        std::unique_lock<std::mutex> lk(mu_);
        journal_cv_.wait(lk, [&] { return !rotating_; });
        rotating_ = true;
        // Every record written so far is visible in the snapshot once the
        // slots held by in-flight submits and commits are returned.
        journal_cv_.wait(lk, [&] { return journaling_ == 0; });
        live = list_locked();
        next = next_id_;
    }
    cfg_.journal->rotate(live, next);
    {
        std::lock_guard<std::mutex> lk(mu_);
        rotating_ = false;
    }
    journal_cv_.notify_all();
}

void Scheduler::begin_journal(std::unique_lock<std::mutex>& lk, std::size_t n) {
    journal_cv_.wait(lk, [&] { return !rotating_; });
    journaling_ += n;
}

void Scheduler::end_journal() {
    if (--journaling_ == 0 && rotating_) journal_cv_.notify_all();
}

ServiceStats Scheduler::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s = counters_;
    s.queued = queue_.size();
    s.running = active_;
    s.uptime_s = std::chrono::duration<double>(Clock::now() - started_).count();
    return s;
}

bool Scheduler::attach_stream(std::uint64_t id, std::shared_ptr<trace::TraceSink> sink,
                              std::function<void(const JobRecord&)> on_end) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            if (terminal_row(id) != nullptr) return false;
            throw ProtocolError(err::kNotFound, "no such job");
        }
        j = it->second;
    }
    std::lock_guard<std::mutex> lk(j->stream_mu);
    if (j->ended) return false;
    j->subs.push_back({std::move(sink), std::move(on_end)});
    j->sink_count.store(static_cast<unsigned>(j->subs.size()), std::memory_order_relaxed);
    return true;
}

bool Scheduler::detach_stream(std::uint64_t id, const trace::TraceSink* sink) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) return false;
        j = it->second;
    }
    std::lock_guard<std::mutex> lk(j->stream_mu);
    const std::size_t erased = std::erase_if(
        j->subs, [sink](const Job::Subscriber& s) { return s.sink.get() == sink; });
    j->sink_count.store(static_cast<unsigned>(j->subs.size()), std::memory_order_relaxed);
    return erased != 0;
}

std::size_t Scheduler::expire_overdue() {
    std::vector<JobPtr> victims;
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (auto it = queue_.begin(); it != queue_.end();) {
            const JobPtr& j = *it;
            if (j->deadline != Clock::time_point{} && Clock::now() > j->deadline) {
                j->claimed = true;
                victims.push_back(j);
                note_dequeued(j);
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
        if (!victims.empty()) begin_journal(lk, victims.size());
    }
    for (const JobPtr& j : victims) commit(j, JobState::kExpired, {}, {});
    return victims.size();
}

void Scheduler::wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
}

void Scheduler::stop() {
    std::vector<JobPtr> orphans;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_ && workers_.empty()) return;
        stopping_ = true;
        if (!draining_) {
            // Drain mode preserves queued jobs: they stay journaled as
            // pending and are recovered (re-admitted) on the next boot.
            orphans.assign(queue_.begin(), queue_.end());
            queue_.clear();
            queued_gates_.store(0, std::memory_order_relaxed);
            for (const JobPtr& j : orphans) j->claimed = true;
            for (const auto& [id, j] : jobs_)
                if (j->rec.state == JobState::kRunning)
                    j->cancel.store(true, std::memory_order_relaxed);
            if (!orphans.empty()) begin_journal(lk, orphans.size());
        }
    }
    cv_.notify_all();
    for (const JobPtr& j : orphans) commit(j, JobState::kCancelled, {}, {});
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    idle_cv_.notify_all();
}

void Scheduler::finish(const JobPtr& j, JobState state, const JobOutcome& outcome,
                       const std::string& error) {
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (j->claimed) return;
        j->claimed = true;
        begin_journal(lk);
    }
    commit(j, state, outcome, error);
}

void Scheduler::commit(const JobPtr& j, JobState state, const JobOutcome& outcome,
                       const std::string& error) {
    // A claimed job's record no longer changes, so it is read without mu_.
    JobRecord rec = j->rec;
    rec.state = state;
    rec.outcome = outcome;
    rec.error = error;
    rec.finished = Clock::now();
    if (rec.started == Clock::time_point{}) rec.started = rec.finished;
    // Write-ahead: the terminal record is durable before status, list or
    // stream_end can show the terminal state.
    if (cfg_.journal != nullptr) cfg_.journal->record_terminal(rec);
    {
        std::lock_guard<std::mutex> lk(mu_);
        end_journal();
        switch (state) {
            case JobState::kDone: {
                ++counters_.done;
                counters_.gens_total += outcome.generations;
                counters_.evals_total += outcome.evaluations;
                counters_.rollbacks_total += outcome.rollbacks;
                switch (rec.spec.backend) {
                    case core::Substrate::kRtl: ++counters_.done_rtl; break;
                    case core::Substrate::kBehavioral: ++counters_.done_behavioral; break;
                    case core::Substrate::kGates: ++counters_.done_gates; break;
                }
                if (rec.spec.islands != 0) ++counters_.done_islands;
                if (rec.spec.supervise) ++counters_.done_supervised;
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
        store_terminal(rec);
        jobs_.erase(rec.id);
    }
    const char* metric_kind = "job_done";
    if (state == JobState::kFailed) metric_kind = "job_fail";
    if (state == JobState::kCancelled) metric_kind = "job_cancel";
    if (state == JobState::kExpired) metric_kind = "job_expire";
    trace::TraceEvent e(metric_kind, 0, 0);
    e.add("id", rec.id);
    e.add("backend", core::substrate_name(rec.spec.backend));
    if (state == JobState::kDone) {
        e.add("best_fitness", std::uint64_t{outcome.best_fitness});
        e.add("generations", std::uint64_t{outcome.generations});
        if (!outcome.status.empty()) e.add("status", outcome.status);
    }
    if (!error.empty()) e.add("error", error);
    emit_metric(std::move(e));

    // Flush every sink before any stream_end: no event overtakes its end.
    std::vector<Job::Subscriber> subs;
    {
        std::lock_guard<std::mutex> lk(j->stream_mu);
        for (const Job::Subscriber& s : j->subs) s.sink->flush();
        j->ended = true;
        subs.swap(j->subs);
        j->sink_count.store(0, std::memory_order_relaxed);
    }
    for (const Job::Subscriber& s : subs) s.on_end(rec);
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
        } else if (j->rec.spec.backend == core::Substrate::kGates) {
            throw std::logic_error("plain gates jobs run as lanes of a gate block");
        } else {
            run_engine_job(j);
        }
    } catch (const std::exception& ex) {
        finish(j, JobState::kFailed, {}, ex.what());
    }
}

void Scheduler::run_engine_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    // The one loop of both resumable engines: check cancel and deadline,
    // then advance one generation. False when the job ended early.
    const auto drive = [&](const auto& engine, const auto& advance) {
        while (!engine.done()) {
            if (j->cancel.load(std::memory_order_relaxed)) {
                finish(j, JobState::kCancelled, {});
                return false;
            }
            if (past_deadline(j)) {
                finish(j, JobState::kExpired, {});
                return false;
            }
            advance();
        }
        return true;
    };
    JobOutcome out;
    if (spec.backend == core::Substrate::kRtl) {
        system::GaSystemConfig cfg;
        cfg.params = spec.params;
        cfg.internal_fems = {spec.fn};
        cfg.keep_populations = false;
        cfg.trace_sink = j.get();  // the RT-level tap streams its own events
        system::GaSystem sys(cfg);
        if (!sys.start()) throw std::runtime_error("GaSystem: init handshake timed out");
        const std::uint64_t bound = sys.cycle_bound();
        const bool ran = drive(sys, [&] {
            const std::uint32_t next = std::min(sys.generation() + 1, spec.params.n_gens);
            if (!sys.run_to(next, bound).ok)
                throw std::runtime_error("GaSystem: generation missed its cycle bound");
        });
        if (!ran) return;
        out.evaluations = sys.finish().evaluations;
        out.best_fitness = sys.best_fitness();
        out.best_candidate = sys.best_candidate();
        out.generations = sys.generation();
    } else {
        core::BehavioralEngine eng(spec.params, core::rom_fitness(spec.fn),
                                   prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
        const bool ran = drive(eng, [&] {
            eng.step_generation();
            if (j->streaming()) {
                trace::TraceEvent e(trace::kind::kGeneration, 0, 0);
                e.add("gen", std::uint64_t{eng.generation()});
                e.add("best_fit", std::uint64_t{eng.best_fitness()});
                e.add("best_ind", std::uint64_t{eng.best_candidate()});
                j->on_event(e);
            }
        });
        if (!ran) return;
        out.evaluations = eng.evaluations();
        out.best_fitness = eng.best_fitness();
        out.best_candidate = eng.best_candidate();
        out.generations = eng.generation();
        if (j->streaming()) {
            trace::TraceEvent e(trace::kind::kDone, 0, 0);
            e.add("best_fit", std::uint64_t{out.best_fitness});
            e.add("best_ind", std::uint64_t{out.best_candidate});
            j->on_event(e);
        }
    }
    finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
}

void Scheduler::run_island_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    island::IslandConfig ic;
    ic.fn = spec.fn;
    ic.base = spec.params;
    ic.islands = spec.islands;
    ic.topology = spec.topology;
    ic.migration = spec.migration;
    ic.backend = spec.backend;
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
    sc.backend = spec.backend;
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
    using gates::BatchGateRunner;
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
                    const gates::BatchLaneResult& lr = runner->lane_result(static_cast<unsigned>(k));
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

bool Scheduler::refill_lanes(gates::BatchGateRunner& runner, std::vector<JobPtr>& lanes,
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
