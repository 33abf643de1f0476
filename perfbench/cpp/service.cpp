// The three gaipd workloads. Each boots an in-process daemon (scheduler,
// socket server, optional journal) and drives it over the Unix socket with
// service::Client, exactly as gaipctl/gacli --daemon do:
//
//   gates_open            open loop, seeded Poisson arrivals of gates jobs,
//                         streams multiplexed on one connection;
//   small_jobs_journaled  closed loop of tiny behavioral jobs, journal on,
//                         status/stats reads beside the writes;
//   substrate_mix         closed loop over every job kind but packed gates.
//
// Jobs draw their specs from a seeded pool, so the correctness oracle (a
// direct engine run per distinct spec, after the timed window) stays cheap.
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench/gate_batch_runner.hpp"
#include "core/behavioral.hpp"
#include "island/island.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "util/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gaip;
using service::JobBackend;
using service::JobSpec;
namespace fs = std::filesystem;

namespace {

enum Kind : unsigned { kGates = 0, kBehavioral, kRtl, kIsland, kSupervised };

Kind kind_of(const JobSpec& s) {
    if (s.islands > 0) return kIsland;
    if (s.supervise) return kSupervised;
    switch (s.backend) {
        case JobBackend::kGates: return kGates;
        case JobBackend::kBehavioral: return kBehavioral;
        case JobBackend::kRtl: return kRtl;
    }
    return kBehavioral;
}

JobSpec make_spec(Rng& r, fitness::FitnessId fn, JobBackend backend, unsigned pop,
                  unsigned gens) {
    JobSpec s;
    s.fn = fn;
    s.backend = backend;
    s.params = core::resolve_parameters(
        0, {.pop_size = static_cast<std::uint8_t>(pop),
            .n_gens = gens,
            .xover_threshold = static_cast<std::uint8_t>(uniform(r, 8, 14)),
            .mut_threshold = static_cast<std::uint8_t>(uniform(r, 1, 2)),
            .seed = static_cast<std::uint16_t>(uniform(r, 1, 0xFFFF))});
    return s;
}

/// A 5 x 5 grid of (pop, gens) cells spanning the given ranges, one spec
/// per cell. Job sizes are the same for every workload seed; the seed picks
/// GA seeds, thresholds and (for `fn_of`) fitness functions.
template <typename FnOf>
std::vector<JobSpec> grid(Rng& r, FnOf fn_of, JobBackend backend, unsigned pop_lo,
                          unsigned pop_hi, unsigned gens_lo, unsigned gens_hi) {
    std::vector<JobSpec> out;
    for (unsigned i = 0; i < 5; ++i)
        for (unsigned j = 0; j < 5; ++j)
            out.push_back(make_spec(r, fn_of(), backend, pop_lo + (pop_hi - pop_lo) * i / 4,
                                    gens_lo + (gens_hi - gens_lo) * j / 4));
    return out;
}

/// Endless shuffled passes over a fixed set: every item's share of the
/// draws is exact, only the order depends on the seed.
class Deck {
public:
    Deck(std::vector<std::size_t> items, Rng& r) : items_(std::move(items)), r_(&r) {}
    std::size_t next() {
        if (pos_ == items_.size()) {
            std::shuffle(items_.begin(), items_.end(), *r_);
            pos_ = 0;
        }
        return items_[pos_++];
    }

private:
    std::vector<std::size_t> items_;
    Rng* r_;
    std::size_t pos_ = 0;
};

/// A workload's traffic: a spec pool split into classes, and the deck of
/// class ids a client cycles through, which fixes each class's share of the
/// jobs exactly.
struct Traffic {
    std::vector<JobSpec> pool;
    std::vector<std::vector<std::size_t>> classes;
    std::vector<std::size_t> deck;
    bool open_loop = false;
    double rate = 0;  ///< open loop: offered jobs/s
    bool journal = false;
    bool reads = false;  ///< status after every job, stats every kStatsEvery
};

/// One client's draw sequence: a class from the traffic deck (or a given
/// class), then a spec from that class's own deck.
class Picker {
public:
    Picker(const Traffic& t, std::uint64_t seed) : r_(seed), classes_(Deck(t.deck, r_)) {
        for (const std::vector<std::size_t>& c : t.classes) specs_.emplace_back(c, r_);
    }
    Picker(const Picker&) = delete;  // the decks point at r_
    Picker& operator=(const Picker&) = delete;
    std::size_t next() { return specs_[classes_.next()].next(); }
    std::size_t next_in(std::size_t cls) { return specs_[cls].next(); }

private:
    Rng r_;
    Deck classes_;
    std::vector<Deck> specs_;
};

constexpr unsigned kStatsEvery = 50;
constexpr unsigned kSetupReps = 15;
constexpr std::size_t kTemplateJobs = 500;
/// gates_open's offered rate (jobs/s). The daemon's two interpreter
/// workers keep up with room to spare: packing grows a batch's lane count
/// instead of its duration, up to the 64 lanes of one word.
constexpr double kGatesRate = 50.0;

void add_class(Traffic& t, std::vector<JobSpec> specs, unsigned deck_slots) {
    std::vector<std::size_t> idx;
    for (JobSpec& s : specs) {
        idx.push_back(t.pool.size());
        t.pool.push_back(std::move(s));
    }
    const std::size_t cls = t.classes.size();
    t.classes.push_back(std::move(idx));
    for (unsigned k = 0; k < deck_slots; ++k) t.deck.push_back(cls);
}

Traffic make_traffic(const std::string& workload, std::uint64_t seed) {
    Rng r(seed * 0x9E3779B97F4A7C15ull + 17);
    Traffic t;
    const auto any_fn = [&r] { return static_cast<fitness::FitnessId>(uniform(r, 0, 7)); };
    if (workload == "gates_open") {
        // Lane lengths differ about 4x across the grid (pop 16-24, gens
        // 6-12), so a packed batch idles its short lanes until the longest
        // finishes.
        for (fitness::FitnessId fn : {fitness::FitnessId::kOneMax, fitness::FitnessId::kMBf6_2,
                                      fitness::FitnessId::kRoyalRoad})
            add_class(t, grid(r, [fn] { return fn; }, JobBackend::kGates, 16, 24, 6, 12), 1);
        t.open_loop = true;
        t.rate = kGatesRate;
    } else if (workload == "small_jobs_journaled") {
        for (std::size_t f = 0; f < fitness::kNumFitnessIds; ++f) {
            const auto fn = static_cast<fitness::FitnessId>(f);
            add_class(t, grid(r, [fn] { return fn; }, JobBackend::kBehavioral, 16, 32, 4, 16), 1);
        }
        t.journal = true;
        t.reads = true;
    } else if (workload == "substrate_mix") {
        std::vector<JobSpec> sup = grid(r, any_fn, JobBackend::kRtl, 16, 32, 8, 16);
        for (JobSpec& s : sup) s.supervise = true;
        // Island jobs: N in {2, 4} x ring/star x gens {8, 12} per substrate.
        const auto islands = [&](JobBackend b, unsigned pop) {
            std::vector<JobSpec> out;
            for (unsigned n : {2u, 4u})
                for (island::Topology topo : {island::Topology::kRing, island::Topology::kStar})
                    for (unsigned gens : {8u, 12u}) {
                        JobSpec s = make_spec(r, any_fn(), b, pop, gens);
                        s.islands = n;
                        s.topology = topo;
                        s.migration.interval = static_cast<std::uint16_t>(uniform(r, 2, 4));
                        s.migration.count = static_cast<std::uint16_t>(uniform(r, 1, 2));
                        out.push_back(s);
                    }
            return out;
        };
        // Deck shares (per 100 jobs) give each kind a comparable share of
        // worker time; the measured shares are printed with every run.
        add_class(t, grid(r, any_fn, JobBackend::kBehavioral, 64, 128, 16, 32), 74);
        add_class(t, grid(r, any_fn, JobBackend::kRtl, 16, 32, 8, 16), 11);
        add_class(t, std::move(sup), 11);
        add_class(t, islands(JobBackend::kRtl, 16), 1);
        add_class(t, islands(JobBackend::kBehavioral, 16), 1);
        add_class(t, islands(JobBackend::kGates, 8), 2);
    } else {
        throw std::invalid_argument("unknown workload '" + workload + "'");
    }
    return t;
}

// --------------------------------------------------------------- oracle

struct Expected {
    std::uint16_t fit = 0;
    std::uint16_t cand = 0;
    std::uint32_t gens = 0;
    std::uint64_t evals = 0;
    friend bool operator==(const Expected&, const Expected&) = default;
};

/// Direct engine run with the configuration Scheduler::run_*_job uses.
Expected direct_run(const JobSpec& s) {
    switch (kind_of(s)) {
        case kBehavioral: {
            const fitness::FitnessId fn = s.fn;
            core::BehavioralEngine eng(
                s.params, [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
                prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
            while (!eng.done()) eng.step_generation();
            return {eng.best_fitness(), eng.best_candidate(), eng.generation(), eng.evaluations()};
        }
        case kRtl: {
            system::GaSystemConfig cfg;
            cfg.params = s.params;
            cfg.internal_fems = {s.fn};
            cfg.keep_populations = false;
            const core::RunResult r = system::run_ga_system(cfg);
            return {r.best_fitness, r.best_candidate, s.params.n_gens, r.evaluations};
        }
        case kIsland: {
            island::IslandConfig ic;
            ic.fn = s.fn;
            ic.base = s.params;
            ic.islands = s.islands;
            ic.topology = s.topology;
            ic.migration = s.migration;
            ic.backend = s.backend == JobBackend::kRtl          ? supervisor::BackendKind::kRtl
                         : s.backend == JobBackend::kBehavioral ? supervisor::BackendKind::kBehavioral
                                                                : supervisor::BackendKind::kGateLane;
            ic.words = s.words;
            const island::IslandResult r = island::run_island_system(ic);
            Expected e{r.best_fitness, r.best_candidate, s.params.n_gens, 0};
            for (const island::IslandStats& is : r.islands) e.evals += is.evaluations;
            return e;
        }
        case kSupervised: {
            supervisor::SupervisorConfig sc;
            sc.fn = s.fn;
            sc.params = s.params;
            sc.backend = supervisor::BackendKind::kRtl;
            supervisor::MissionSupervisor sup(sc);
            const supervisor::SupervisorReport rep = sup.run();
            // A supervised job's outcome carries no evaluation count.
            return {rep.best_fitness, rep.best_candidate, rep.generations, 0};
        }
        case kGates: break;
    }
    throw std::logic_error("direct_run: gates specs run through direct_gate_lanes");
}

/// Expected results for every spec index in `used`: non-gates specs one
/// direct run each, gates specs as the lanes of one direct BatchGateRunner
/// run per fitness function. Runs on all cores, outside any timed window.
std::unordered_map<std::size_t, Expected> oracle(const Traffic& t,
                                                 const std::vector<std::size_t>& used) {
    std::map<fitness::FitnessId, std::vector<std::size_t>> gate_groups;
    std::vector<std::size_t> singles;
    for (std::size_t i : used) {
        if (kind_of(t.pool[i]) == kGates)
            gate_groups[t.pool[i].fn].push_back(i);
        else
            singles.push_back(i);
    }
    std::vector<std::vector<std::size_t>> groups;
    for (auto& [fn, g] : gate_groups)
        for (std::size_t off = 0; off < g.size(); off += 64)
            groups.emplace_back(g.begin() + static_cast<std::ptrdiff_t>(off),
                                g.begin() + static_cast<std::ptrdiff_t>(std::min(off + 64, g.size())));

    std::vector<Expected> single_out(singles.size());
    std::vector<std::vector<Expected>> group_out(groups.size());
    util::parallel_for_n(4, singles.size() + groups.size(), [&](std::size_t k) {
        if (k < groups.size()) {
            const std::vector<std::size_t>& g = groups[k];
            std::vector<core::GaParameters> lanes;
            for (std::size_t i : g) lanes.push_back(t.pool[i].params);
            bench::BatchGateRunner runner(t.pool[g.front()].fn, lanes, 0, gates::Backend::kInterp);
            for (const bench::BatchLaneResult& lr : runner.run())
                group_out[k].push_back({lr.best_fitness, lr.best_candidate, lr.generations,
                                        lr.evaluations});
        } else {
            const std::size_t s = k - groups.size();
            single_out[s] = direct_run(t.pool[singles[s]]);
        }
    });
    std::unordered_map<std::size_t, Expected> out;
    for (std::size_t s = 0; s < singles.size(); ++s) out[singles[s]] = single_out[s];
    for (std::size_t k = 0; k < groups.size(); ++k)
        for (std::size_t j = 0; j < groups[k].size(); ++j) out[groups[k][j]] = group_out[k][j];
    return out;
}

// --------------------------------------------------------------- daemon

/// One job as the client saw it.
struct JobObs {
    std::size_t spec = 0;
    std::uint64_t id = 0;
    Clock::time_point due{}, sent{}, acked{}, ended{};
    std::string state;  ///< terminal state from stream_end ("" = none seen)
    std::uint16_t fit = 0, cand = 0;
    std::uint32_t gens = 0;
    std::int64_t stream_span = -1;
};

struct Paths {
    std::string socket;
    std::string journal_live;
    std::string journal_template;
};

/// A journal of kTemplateJobs finished jobs, written once through the
/// Journal API; every journaled boot replays a fresh copy of it.
void prepare_template(const Traffic& t, const std::string& dir) {
    if (fs::exists(fs::path(dir) / "journal.jsonl")) return;
    fs::remove_all(dir);
    service::Journal j(dir);
    for (std::size_t i = 0; i < kTemplateJobs; ++i) {
        service::JobRecord rec;
        rec.id = i + 1;
        rec.spec = t.pool[i % t.pool.size()];
        rec.submitted = Clock::now();
        j.record_submit(rec);
        j.record_start(rec.id);
        rec.state = service::JobState::kDone;
        rec.outcome.best_fitness = static_cast<std::uint16_t>(i);
        rec.outcome.generations = rec.spec.params.n_gens;
        j.record_terminal(rec);
    }
}

std::unique_ptr<service::Daemon> boot(const Traffic& t, const Paths& p, Samples& setup_s) {
    service::ServerConfig cfg;
    cfg.socket_path = p.socket;
    cfg.scheduler.workers = kDaemonWorkers;
    if (t.journal) cfg.journal_dir = p.journal_live;
    std::unique_ptr<service::Daemon> d;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        d.reset();
        if (t.journal) {
            fs::remove_all(p.journal_live);
            fs::create_directories(p.journal_live);
            fs::copy_file(fs::path(p.journal_template) / "journal.jsonl",
                          fs::path(p.journal_live) / "journal.jsonl");
        }
        const auto t0 = Clock::now();
        d = std::make_unique<service::Daemon>(cfg);
        service::Client c(p.socket);
        c.ping();
        if (!t.open_loop) {
            setup_s.add(ms_between(t0, Clock::now()) / 1e3);
            continue;
        }
        // Packed gates jobs need each worker's cached lane runner: two
        // minimal jobs of different fitness functions land on both workers.
        JobSpec warm;
        warm.backend = JobBackend::kGates;
        warm.params = core::resolve_parameters(0, {.pop_size = 2, .n_gens = 1, .xover_threshold = 12,
                                                   .mut_threshold = 1, .seed = 1});
        warm.fn = fitness::FitnessId::kOneMax;
        const std::uint64_t a = c.submit(warm);
        warm.fn = fitness::FitnessId::kMBf6_2;
        const std::uint64_t b = c.submit(warm);
        c.stream(a);
        c.stream(b);
        setup_s.add(ms_between(t0, Clock::now()) / 1e3);
    }
    return d;
}

/// Live spans of one finished job: the root and its client-side calls.
void record_job_spans(SpanLog& spans, JobObs& o) {
    if (!spans.enabled()) return;
    const std::int64_t root = spans.add("job", o.due, o.ended, -1, o.id);
    spans.add("loadgen.lag", o.due, o.sent, root, o.id);
    spans.add("service.submit", o.sent, o.acked, root, o.id);
    o.stream_span = spans.add("service.stream", o.acked, o.ended, root, o.id);
}

struct ClientOut {
    std::vector<JobObs> jobs;
    Samples status_rtt_us;
    std::uint64_t errors = 0;
};

void closed_client(const Traffic& t, const std::string& sock, unsigned idx, std::uint64_t seed,
                   Clock::time_point deadline, SpanLog& spans, ClientOut& out) {
    Picker pick(t, seed * 1000003 + idx);
    Rng r(seed * 1000033 + idx);
    std::vector<std::uint64_t> done_ids;
    try {
        service::Client cl(sock);
        Clock::time_point due = Clock::now();
        while (due < deadline) {
            JobObs o;
            o.spec = pick.next();
            o.due = due;
            o.sent = Clock::now();
            try {
                o.id = cl.submit(t.pool[o.spec]);
                o.acked = Clock::now();
                const service::Frame end = cl.stream(o.id);
                o.ended = Clock::now();
                o.state = end.str("state");
                o.fit = static_cast<std::uint16_t>(end.u64("best_fitness"));
                o.cand = static_cast<std::uint16_t>(end.u64("best_candidate"));
                o.gens = static_cast<std::uint32_t>(end.u64("generations"));
            } catch (const service::RemoteError& ex) {
                o.acked = o.ended = Clock::now();
                o.state = "rejected:" + ex.code();
            }
            record_job_spans(spans, o);
            if (o.state == "done") done_ids.push_back(o.id);
            out.jobs.push_back(o);
            if (t.reads && done_ids.size() > 1) {
                const std::uint64_t earlier =
                    done_ids[uniform(r, 0, static_cast<unsigned>(done_ids.size() - 2))];
                const auto s0 = Clock::now();
                const service::Frame st = cl.status(earlier);
                const auto s1 = Clock::now();
                out.status_rtt_us.add(ms_between(s0, s1) * 1e3);
                spans.add("service.status", s0, s1, -1, earlier);
                if (st.str("state") != "done") ++out.errors;
                if (out.jobs.size() % kStatsEvery == 0) {
                    const auto q0 = Clock::now();
                    cl.stats();
                    const auto q1 = Clock::now();
                    out.status_rtt_us.add(ms_between(q0, q1) * 1e3);
                    spans.add("service.stats", q0, q1);
                }
            }
            due = Clock::now();
        }
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: client %u: %s\n", idx, ex.what());
        ++out.errors;
    }
}

/// Open loop: a generator submits at the seeded arrival times on one
/// connection and subscribes each job's stream on a second one, which a
/// receiver thread drains. Latency counts from each job's due time.
void open_loop(const Traffic& t, const std::string& sock, service::Scheduler& sched,
               std::uint64_t seed, double seconds, SpanLog& spans, ClientOut& out,
               Samples& submit_rtt_us, Report& rep) {
    Rng r(seed * 7919 + 3);
    // N arrivals placed uniformly on [0, T): a Poisson process conditioned
    // on its count, so every seed offers exactly the same rate.
    const std::size_t n = static_cast<std::size_t>(t.rate * seconds + 0.5);
    std::vector<double> at(n);
    std::uniform_real_distribution<double> u(0.0, seconds);
    for (double& a : at) a = u(r);
    std::sort(at.begin(), at.end());
    out.jobs.resize(n);
    Picker pick(t, seed * 7919 + 4);
    for (std::size_t i = 0; i < n; ++i) out.jobs[i].spec = pick.next_in(i % t.classes.size());

    service::Client sub(sock);
    service::Client rx(sock);
    rx.set_op_deadline(35'000);  // bounds the receiver if a job never ends
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    std::deque<std::size_t> stream_acks;  // FIFO: acks arrive in request order
    std::size_t started = 0, ended = 0;
    bool gen_done = false;
    std::uint64_t events = 0;

    std::thread receiver([&] {
        try {
            for (;;) {
                const std::string line = rx.read_line();
                if (service::is_event_line(line)) {
                    ++events;
                    continue;
                }
                const service::Frame f = service::parse_frame(line);
                const auto now = Clock::now();
                std::lock_guard<std::mutex> lk(mu);
                if (f.verb == "stream") {
                    const std::size_t i = stream_acks.front();
                    stream_acks.pop_front();
                    if (!f.ok()) {
                        out.jobs[i].ended = now;
                        out.jobs[i].state = "stream_rejected:" + f.str("code");
                        ++ended;
                    }
                } else if (f.verb == "stream_end") {
                    JobObs& o = out.jobs[by_id.at(f.u64("id"))];
                    o.ended = now;
                    o.state = f.str("state");
                    o.fit = static_cast<std::uint16_t>(f.u64("best_fitness"));
                    o.cand = static_cast<std::uint16_t>(f.u64("best_candidate"));
                    o.gens = static_cast<std::uint32_t>(f.u64("generations"));
                    ++ended;
                }
                if (gen_done && ended == started) {
                    cv.notify_all();
                    return;
                }
            }
        } catch (const std::exception& ex) {
            std::lock_guard<std::mutex> lk(mu);
            if (!(gen_done && ended == started))
                std::fprintf(stderr, "perfbench: receiver: %s\n", ex.what());
            cv.notify_all();
        }
    });

    Samples depth_first, depth_last;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < n; ++i) {
        JobObs& o = out.jobs[i];
        o.due = t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(at[i]));
        std::this_thread::sleep_until(o.due);
        o.sent = Clock::now();
        try {
            const std::uint64_t id = sub.submit(t.pool[o.spec]);
            o.acked = Clock::now();
            submit_rtt_us.add(ms_between(o.sent, o.acked) * 1e3);
            service::Frame req(service::verb::kStream);
            req.add("id", id);
            {
                std::lock_guard<std::mutex> lk(mu);
                o.id = id;
                by_id[id] = i;
                stream_acks.push_back(i);
                ++started;
            }
            rx.send(req);
        } catch (const service::RemoteError& ex) {
            o.acked = o.ended = Clock::now();
            o.state = "rejected:" + ex.code();
        }
        const double depth = static_cast<double>(sched.queue_depth());
        if (i < n / 3) depth_first.add(depth);
        if (i >= n - n / 3) depth_last.add(depth);
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        gen_done = true;
    }
    // The reply wakes a receiver that may already hold every stream_end.
    rx.send(service::Frame(service::verb::kPing));
    {
        std::unique_lock<std::mutex> lk(mu);
        if (!cv.wait_for(lk, std::chrono::seconds(30), [&] { return ended == started; }))
            rep.check(false, "gates_open: jobs still open 30 s after the last arrival");
    }
    receiver.join();  // returns at the latest when rx's read deadline passes
    for (JobObs& o : out.jobs) record_job_spans(spans, o);

    // Open-loop honesty: the generator's lateness and the queue's trend.
    const double late = [&] {
        Samples lag;
        for (const JobObs& o : out.jobs) lag.add(ms_between(o.due, o.sent));
        return lag.pct(99);
    }();
    if (late > 50.0) rep.flag("generator fell behind: lag p99 " + std::to_string(late) + " ms");
    if (depth_last.mean() > 2.0 * depth_first.mean() + 8.0)
        rep.flag("queue depth trends upward: " + std::to_string(depth_first.mean()) + " -> " +
                 std::to_string(depth_last.mean()));
    rep.add_info("gates_open.stream_events", static_cast<double>(events), "count");
}

/// The end-to-end figures as medians over kSlices equal slices of the done
/// jobs: the completion rate across each slice of jobs in completion order,
/// and each slice's latency p50/p90 in due-time order.
void slice_medians(std::vector<const JobObs*> done, Phase& ph) {
    constexpr std::size_t kSlices = 20;
    const std::size_t k = done.size() / kSlices;
    if (k < 10) return;
    Samples rate, p50, p90;
    std::sort(done.begin(), done.end(),
              [](const JobObs* a, const JobObs* b) { return a->ended < b->ended; });
    for (std::size_t s = 0; s < kSlices; ++s) {
        const std::size_t i0 = s * k, i1 = std::min((s + 1) * k, done.size() - 1);
        const double dt = ms_between(done[i0]->ended, done[i1]->ended) / 1e3;
        if (dt > 0) rate.add(static_cast<double>(i1 - i0) / dt);
    }
    std::sort(done.begin(), done.end(),
              [](const JobObs* a, const JobObs* b) { return a->due < b->due; });
    for (std::size_t s = 0; s < kSlices; ++s) {
        Samples lat;
        for (std::size_t i = s * k; i < (s + 1) * k; ++i)
            lat.add(ms_between(done[i]->due, done[i]->ended));
        p50.add(lat.median());
        p90.add(lat.pct(90));
    }
    ph.throughput = rate.median();
    ph.p50_ms = p50.median();
    ph.p90_ms = p90.median();
}

/// Gate batches as the scheduler packed them: gates jobs picked up in one
/// batch share their `started` stamp and fitness function.
std::vector<GateBatch> reconstruct_batches(const Traffic& t, const std::vector<JobObs>& jobs,
                                           const std::vector<service::JobRecord>& recs) {
    std::map<std::pair<Clock::rep, unsigned>, GateBatch> by_start;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        if (jobs[k].id == 0 || kind_of(t.pool[jobs[k].spec]) != kGates) continue;
        const service::JobRecord& rec = recs[k];
        GateBatch& b = by_start[{rec.started.time_since_epoch().count(),
                                 static_cast<unsigned>(rec.spec.fn)}];
        b.fn = rec.spec.fn;
        b.lanes.push_back(rec.spec.params);
    }
    std::vector<GateBatch> out;
    for (auto& [key, b] : by_start) out.push_back(std::move(b));
    return out;
}

}  // namespace

Phase run_service_workload(const Options& o, SpanLog& spans, Report& rep) {
    const Traffic t = make_traffic(o.workload, o.seed);
    Paths p{o.out_dir + "/gaipd.sock", o.out_dir + "/journal_live", o.out_dir + "/journal_template"};
    if (t.journal) prepare_template(t, p.journal_template);

    Phase ph;
    ph.service = true;
    std::unique_ptr<service::Daemon> d = boot(t, p, ph.setup_s);
    service::Scheduler& sched = d->scheduler();

    service::Client ctl(p.socket);
    const service::Frame stats0 = ctl.stats();
    const service::ServiceStats s0 = sched.stats();

    std::vector<ClientOut> outs(t.open_loop ? 1 : kClientConnections);
    if (t.open_loop) {
        open_loop(t, p.socket, sched, o.seed, o.seconds, spans, outs[0], ph.svc.submit_rtt_us, rep);
    } else {
        const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(o.seconds));
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClientConnections; ++c)
            clients.emplace_back([&, c] {
                closed_client(t, p.socket, c, o.seed, deadline, spans, outs[c]);
            });
        for (std::thread& th : clients) th.join();
    }
    sched.wait_idle();
    ph.rss_mb = peak_rss_mb();
    const service::Frame stats1 = ctl.stats();
    const service::ServiceStats s1 = sched.stats();

    // ---- everything below is outside the timed window ----
    std::vector<JobObs> jobs;
    for (ClientOut& co : outs) {
        jobs.insert(jobs.end(), co.jobs.begin(), co.jobs.end());
        ph.svc.status_rtt_us.append(co.status_rtt_us);
        rep.check(co.errors == 0, "client errors: " + std::to_string(co.errors));
    }
    std::vector<service::JobRecord> recs(jobs.size());
    std::vector<std::size_t> used;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        if (jobs[k].id == 0) continue;
        if (const auto r = sched.status(jobs[k].id)) recs[k] = *r;
        used.push_back(jobs[k].spec);
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    const std::unordered_map<std::size_t, Expected> want = oracle(t, used);

    rep.attempted = jobs.size();
    std::vector<const JobObs*> done;
    std::uint64_t mismatched = 0;
    double kind_ms[5] = {};
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        JobObs& j = jobs[k];
        const service::JobRecord& rec = recs[k];
        const Kind kind = kind_of(t.pool[j.spec]);
        ph.lag_ms.add(ms_between(j.due, j.sent));
        if (j.state != "done" || rec.state != service::JobState::kDone) {
            ++rep.failed;
            continue;
        }
        const Expected& e = want.at(j.spec);
        const Expected got{rec.outcome.best_fitness, rec.outcome.best_candidate,
                           rec.outcome.generations, rec.outcome.evaluations};
        if (!(got == e) || j.fit != e.fit || j.cand != e.cand || j.gens != e.gens) {
            ++mismatched;
            ++rep.failed;
            continue;
        }
        done.push_back(&j);
        ph.latency_ms.add(ms_between(j.due, j.ended));
        const double run = ms_between(rec.started, rec.finished);
        ph.svc.overhead_ms.add(ms_between(j.sent, j.ended) - ms_between(rec.submitted, rec.finished));
        ph.svc.queue_wait_ms.add(ms_between(rec.submitted, rec.started));
        ph.svc.run_ms[kind].add(run);
        kind_ms[kind] += run;
        if (!t.open_loop) ph.svc.submit_rtt_us.add(ms_between(j.sent, j.acked) * 1e3);
        if (spans.enabled() && j.stream_span >= 0) {
            spans.add("scheduler.queue", rec.submitted, rec.started, j.stream_span, j.id);
            spans.add(std::string("scheduler.run.") + kKindNames[kind], rec.started, rec.finished,
                      j.stream_span, j.id);
        }
    }
    rep.check(mismatched == 0, std::to_string(mismatched) + " results differ from direct runs");
    rep.check(done.size() >= 200, "fewer than 200 jobs finished");
    ph.jobs_sent = jobs.size();
    slice_medians(done, ph);

    ph.svc.gate_batches = s1.gate_batches - s0.gate_batches;
    ph.svc.lanes_per_batch = ph.svc.gate_batches > 0
                                 ? static_cast<double>(s1.gate_lanes - s0.gate_lanes) /
                                       static_cast<double>(ph.svc.gate_batches)
                                 : 0;
    ph.svc.batches = reconstruct_batches(t, jobs, recs);
    double fill = 0;
    for (const GateBatch& b : ph.svc.batches) {
        unsigned words = 1;
        while (words * 64 < b.lanes.size()) words *= 2;
        fill += static_cast<double>(b.lanes.size()) / (64.0 * words);
    }
    ph.svc.lane_fill = ph.svc.batches.empty() ? 0 : fill / static_cast<double>(ph.svc.batches.size());
    if (t.journal) {
        ph.svc.journal_records_per_job =
            static_cast<double>(stats1.u64("journal_records") - stats0.u64("journal_records")) /
            static_cast<double>(std::max<std::uint64_t>(1, s1.submitted - s0.submitted));
        ph.journal_dir = p.journal_live;
    }

    double total_ms = 0;
    for (double v : kind_ms) total_ms += v;
    for (unsigned k = 0; k < 5; ++k)
        if (kind_ms[k] > 0)
            rep.add_info(std::string("worker_time_share.") + kKindNames[k], kind_ms[k] / total_ms,
                         "fraction", ph.svc.run_ms[k].size());
    if (t.reads) {
        rep.add_info("status_latency_p50_us", ph.svc.status_rtt_us.median(), "us",
                     ph.svc.status_rtt_us.size());
        rep.add_info("status_latency_p99_us", ph.svc.status_rtt_us.pct(99), "us",
                     ph.svc.status_rtt_us.size());
    }
    return ph;
}

ServiceSample service_probe(const Options& o, Report& rep, Samples& ping_rtt_us) {
    service::ServerConfig cfg;
    cfg.socket_path = o.out_dir + "/probe.sock";
    cfg.scheduler.workers = kDaemonWorkers;
    cfg.journal_dir = o.out_dir + "/journal_probe";
    fs::remove_all(cfg.journal_dir);
    service::Daemon d(cfg);
    service::Client c(cfg.socket_path);
    for (int i = 0; i < 200; ++i) {
        const auto t0 = Clock::now();
        c.ping();
        ping_rtt_us.add(ms_between(t0, Clock::now()) * 1e3);
    }

    // One closed-loop job of each kind (several of the cheap ones).
    Rng r(12345);
    std::vector<JobSpec> specs;
    for (int i = 0; i < 4; ++i)
        specs.push_back(make_spec(r, fitness::FitnessId::kOneMax, JobBackend::kGates, 16, 8));
    for (int i = 0; i < 8; ++i)
        specs.push_back(make_spec(r, fitness::FitnessId::kMBf6_2, JobBackend::kBehavioral, 32, 12));
    for (int i = 0; i < 4; ++i)
        specs.push_back(make_spec(r, fitness::FitnessId::kBf6, JobBackend::kRtl, 16, 12));
    for (JobBackend b : {JobBackend::kRtl, JobBackend::kBehavioral, JobBackend::kGates}) {
        JobSpec s = make_spec(r, fitness::FitnessId::kOneMax, b, 8, 8);
        s.islands = 2;
        s.migration.interval = 4;
        specs.push_back(s);
    }
    for (int i = 0; i < 3; ++i) {
        JobSpec s = make_spec(r, fitness::FitnessId::kMBf6_2, JobBackend::kRtl, 16, 12);
        s.supervise = true;
        specs.push_back(s);
    }

    ServiceSample svc;
    service::Client ctl(cfg.socket_path);
    const std::uint64_t rec0 = ctl.stats().u64("journal_records");
    for (const JobSpec& s : specs) {
        const auto t0 = Clock::now();
        const std::uint64_t id = c.submit(s);
        const auto t1 = Clock::now();
        svc.submit_rtt_us.add(ms_between(t0, t1) * 1e3);
        const service::Frame end = c.stream(id);
        const auto t2 = Clock::now();
        const service::Frame st = c.status(id);
        svc.status_rtt_us.add(ms_between(t2, Clock::now()) * 1e3);
        rep.check(end.str("state") == "done" && st.str("state") == "done",
                  "probe job " + std::to_string(id) + " ended " + end.str("state"));
        const auto rec = d.scheduler().status(id);
        if (!rec) continue;
        svc.overhead_ms.add(ms_between(t0, t2) - ms_between(rec->submitted, rec->finished));
        svc.queue_wait_ms.add(ms_between(rec->submitted, rec->started));
        svc.run_ms[kind_of(s)].add(ms_between(rec->started, rec->finished));
        if (kind_of(s) == kGates) svc.batches.push_back({s.fn, {s.params}});
    }
    const service::Frame st = ctl.stats();
    svc.journal_records_per_job = static_cast<double>(st.u64("journal_records") - rec0) /
                                  static_cast<double>(specs.size());
    svc.gate_batches = st.u64("gate_batches");
    svc.lanes_per_batch = svc.gate_batches > 0
                              ? static_cast<double>(st.u64("gate_lanes")) /
                                    static_cast<double>(svc.gate_batches)
                              : 0;
    svc.lane_fill = svc.lanes_per_batch / 64.0;
    return svc;
}

}  // namespace perfbench
