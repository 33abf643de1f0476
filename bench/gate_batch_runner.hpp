// BatchGateRunner: batched multi-seed / multi-setting GA runs on the
// COMPLETE gate-level GA module (GaCoreNetlist + RngNetlist), one run per
// lane of a single CompiledNetlist N-word lane-block simulation (64 lanes
// per word, up to 512 lanes at words == 8).
//
// Each lane gets its own GaParameters (seed, population size, thresholds,
// generations) and runs the full system flow the RT-level GaSystem runs:
//   * the Sec. III-B.6 init handshake (six index/value writes over
//     ga_load/data_valid/data_ack, snooped by the RNG module for the seed),
//   * the start_GA pulse,
//   * the fitness-evaluation handshake against a software FEM model
//     (fitness_u16 lookup — the same values the block-ROM FEM holds),
//   * a per-lane 256x32 write-first synchronous GA memory model,
// and delivers the per-lane best fitness/candidate when GA_done rises.
//
// The per-lane peripherals are software models driven at GA-clock
// granularity; the handshakes are latency-insensitive by design (the core
// consumes random numbers only in the *Rn states, never while waiting), so
// lane results are identical to the RT-level GaSystem results for the same
// seed/settings — asserted by tests/gates/test_gate_batch_runner.cpp.
//
// The compiled cores run with the instruction-stream optimizer's dead-gate
// prune enabled, keeping the observable port surface (everything this
// runner and its VCD/telemetry probes read); the batch width defaults to
// the smallest lane block that fits the requested lane count.
//
// This is what makes the Table VII-IX grids usable at gate level: the full
// 24-setting grid is ONE batched simulation instead of 24 scalar ones
// (bench_table7_gates.cpp).
//
// A block can also live on and take in work continuously: load_lane()
// resets one lane to a new job (any fitness function) while its siblings
// keep stepping, and free_lane() retires a lane whose job ended. A
// reloaded lane counts its trace `cycle`/`t` from its own reset, so its
// run is indistinguishable from a fresh one-lane runner (gaipd's lane
// refill, src/service/scheduler.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "gates/compiled.hpp"
#include "gates/ga_core_gates.hpp"
#include "gates/rng_gates.hpp"
#include "mem/ga_memory.hpp"
#include "trace/event.hpp"
#include "trace/vcd.hpp"
#include "util/bits.hpp"

namespace gaip::bench {

struct BatchLaneResult {
    bool finished = false;
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t ga_cycles = 0;  ///< GA-clock cycles from start_GA to GA_done
};

class BatchGateRunner {
public:
    static constexpr unsigned kWordBits = gates::CompiledNetlist::kWordBits;
    /// Hard lane ceiling: the widest supported block (8 words = 512 lanes).
    static constexpr unsigned kMaxLanes =
        gates::CompiledNetlist::kMaxWords * gates::CompiledNetlist::kWordBits;

    /// One lane per entry of `lane_params`. Every lane runs `fn` as its
    /// (internal, slot-0) fitness function (set_lane_fitness overrides it
    /// per lane). `words` selects the lane-block
    /// width (1/2/4/8 u64 words); 0 picks the smallest block that fits the
    /// requested lane count. `backend` selects the evaluation engine for
    /// both compiled netlists (interpreted kernels vs host-compiled native
    /// code; kAuto defers to GAIP_JIT and defaults to the interpreter).
    BatchGateRunner(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params,
                    unsigned words = 0, gates::Backend backend = gates::Backend::kAuto)
        : params_(std::move(lane_params)),
          core_src_(gates::build_ga_core_netlist()),
          rng_src_(gates::build_rng_netlist()) {
        if (params_.empty() || params_.size() > kMaxLanes)
            throw std::invalid_argument("BatchGateRunner: need 1.." +
                                        std::to_string(kMaxLanes) + " lane configs");
        if (words == 0)
            for (words = 1; words * kWordBits < params_.size(); words *= 2) {
            }
        if (params_.size() > std::size_t{words} * kWordBits)
            throw std::invalid_argument(
                "BatchGateRunner: " + std::to_string(params_.size()) +
                " lane configs exceed the " + std::to_string(words * kWordBits) +
                " lanes of a " + std::to_string(words) + "-word block");
        core_.emplace(core_src_->nl, gates::CompiledNetlist::Options{
                                         .words = words,
                                         .cse = true,
                                         .prune = true,
                                         .keep = core_src_->observable_port_nets(),
                                         .backend = backend});
        rng_.emplace(rng_src_->nl, gates::CompiledNetlist::Options{
                                       .words = words,
                                       .cse = true,
                                       .prune = true,
                                       .keep = rng_src_->observable_port_nets(),
                                       .backend = backend});
        words_ = core_->words();
        configure_lanes(fn);
    }

    /// Rebind the runner to a new job set without recompiling the two
    /// netlists — construction's dominant cost, which is what makes a
    /// cached runner worth reusing across service batches (gaipd workers).
    /// The new lane count must fit the existing lane-block width; fitness
    /// may change freely (the netlists are function-independent — `fn`
    /// only drives the software FEM lookup). Presets, sinks, and all lane
    /// state reset to the post-construction condition.
    void reconfigure(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params) {
        if (lane_params.empty() || lane_params.size() > std::size_t{words_} * kWordBits)
            throw std::invalid_argument(
                "BatchGateRunner: reconfigure wants 1.." + std::to_string(words_ * kWordBits) +
                " lane configs for this " + std::to_string(words_) + "-word block");
        params_ = std::move(lane_params);
        configure_lanes(fn);
    }

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    /// Lane-block width in u64 words (the simulation carries words()*64
    /// lanes; configured lanes beyond lane_count() idle).
    unsigned words() const noexcept { return words_; }
    std::uint64_t cycles() const noexcept { return cycle_; }
    const gates::CompiledNetlist& core_sim() const noexcept { return *core_; }

    /// Formula cycle bound used when run(max_cycles = 0): saturating u64
    /// arithmetic, so adversarial pop/gens configs clamp to "effectively
    /// unbounded" instead of wrapping to a tiny bound that would flag
    /// healthy runs as hangs. Public for regression tests.
    std::uint64_t default_cycle_bound() const {
        std::uint64_t bound = 0;
        for (std::size_t k = 0; k < lanes_.size(); ++k)
            if (!lanes_[k].free)
                bound = std::max(bound, lane_cycle_bound(static_cast<unsigned>(k)));
        return bound;
    }

    /// The same formula for one lane, counted from that lane's own reset
    /// (compare with lane_cycles()).
    std::uint64_t lane_cycle_bound(unsigned lane) const {
        check_lane(lane);
        const core::GaParameters eff = core::resolve_parameters(presets_[lane], params_[lane]);
        const std::uint64_t evals = util::sat_mul_u64(eff.pop_size, std::uint64_t{eff.n_gens} + 1);
        const std::uint64_t per_eval = util::sat_add_u64(64, util::sat_mul_u64(8, eff.pop_size));
        return util::sat_add_u64(util::sat_mul_u64(evals, per_eval), 100'000ull);
    }

    /// GA-clock cycles since the lane's last reset (begin_run or load_lane).
    std::uint64_t lane_cycles(unsigned lane) const {
        check_lane(lane);
        return cycle_ - lanes_[lane].base;
    }

    /// Give one lane its own fitness function (call before the run
    /// starts; load_lane sets it for a lane reloaded mid-run).
    void set_lane_fitness(unsigned lane, fitness::FitnessId fn) {
        check_lane(lane);
        lanes_[lane].fn = fn;
    }

    /// Continuous refill: load a new job into `lane` while the other lanes
    /// keep stepping. The next step_cycle() raises the reset bit in this
    /// lane only, with its other inputs at 0 as in begin_run(); its memory,
    /// FEM and handshake models start fresh, it runs user mode (preset 0),
    /// its sink is detached, and its trace events count `cycle` and `t`
    /// from that reset — the lane's run is identical to a fresh one-lane
    /// runner's. `lane` may lie beyond lane_count() inside the block
    /// (lane_count() grows; the lanes in between stay free).
    void load_lane(unsigned lane, fitness::FitnessId fn, const core::GaParameters& p) {
        if (lane >= std::size_t{words_} * kWordBits)
            throw std::invalid_argument("BatchGateRunner: lane beyond the lane block");
        if (lane >= lanes_.size()) {
            Lane gap;
            gap.free = true;
            lanes_.resize(lane + 1, gap);
            params_.resize(lane + 1);
            presets_.resize(lane + 1, 0);
            lane_sinks_.resize(lane + 1, nullptr);
        }
        Lane fresh;
        fresh.fn = fn;
        fresh.program = init_program(p);
        fresh.resetting = true;
        fresh.base = cycle_;
        lanes_[lane] = std::move(fresh);
        params_[lane] = p;
        stall_[lane / kWordBits] &= ~(std::uint64_t{1} << (lane % kWordBits));
        set_lane_sink(lane, nullptr);
        if (presets_[lane] != 0) {
            presets_[lane] = 0;
            drive_presets();
        }
    }

    /// Retire a lane whose job ended (or was abandoned): it no longer
    /// counts as unfinished, its peripherals stop and its sink detaches.
    /// Its result stays readable until the lane is loaded again.
    void free_lane(unsigned lane) {
        check_lane(lane);
        lanes_[lane].free = true;
        set_lane_sink(lane, nullptr);
    }

    /// Put one lane in a Table IV preset mode (1..3): its preset pins are
    /// driven, the init handshake is skipped (presets bypass all programmed
    /// state — the paper's init-failure fault-tolerance scenario), and the
    /// start pulse is issued right after reset. Mode 0 restores the normal
    /// user-mode flow. The lane's GaParameters entry is then ignored.
    void set_lane_preset(unsigned lane, std::uint8_t preset) {
        check_lane(lane);
        presets_[lane] = preset & 0x3;
    }

    /// Current controller-FSM state of one lane (the supervisor's watchdog
    /// classification input: kIdle = recoverable, anything else = wedged).
    std::uint8_t lane_state(unsigned lane) const {
        check_lane(lane);
        return static_cast<std::uint8_t>(core_->word_value(core_src_->state, lane));
    }

    /// Attach a telemetry sink to one lane (borrowed; nullptr detaches).
    /// The lane then emits the same protocol/generation event stream the
    /// RT-level SystemTap produces (minus the RT-only op counters), with
    /// `cycle` counted from the lane's reset and `t` = cycle x 20 ns.
    void set_lane_sink(unsigned lane, trace::TraceSink* sink) {
        check_lane(lane);
        lane_sinks_[lane] = sink;
        tracing_ = false;
        for (const trace::TraceSink* s : lane_sinks_) tracing_ |= (s != nullptr);
    }

    /// Register per-lane waveform probes of the compiled core on `vcd`
    /// (borrowed; must outlive run()). One scope per requested lane
    /// ("gates.lane<k>"), sampled once per GA cycle with the 50 MHz period
    /// (20'000 ps) as the tick — a per-lane slice of the batched simulation
    /// in GTKWave. One run() per writer (VCD time is monotonic).
    void add_vcd(trace::VcdWriter* vcd, const std::vector<unsigned>& lanes_to_trace) {
        for (const unsigned lane : lanes_to_trace) {
            check_lane(lane);
            const std::string scope = "gates.lane" + std::to_string(lane);
            auto word = [this, lane](const gates::Word& w) {
                const gates::Word* pw = &w;  // stable: lives in *core_src_
                return [this, lane, pw] { return core_->word_value(*pw, lane); };
            };
            auto bit = [this, lane](gates::Net n) {
                return [this, lane, n] {
                    return core_->value(n, lane) ? std::uint64_t{1} : 0;
                };
            };
            vcd->add_probe(scope, "state", 6, word(core_src_->state));
            vcd->add_probe(scope, "gen_id", 32, word(core_src_->gen_id));
            vcd->add_probe(scope, "best_fit", 16, word(core_src_->best_fit));
            vcd->add_probe(scope, "best_ind", 16, word(core_src_->best_ind));
            vcd->add_probe(scope, "candidate", 16, word(core_src_->candidate));
            vcd->add_probe(scope, "bank", 1, bit(core_src_->bank));
            vcd->add_probe(scope, "data_ack", 1, bit(core_src_->data_ack));
            vcd->add_probe(scope, "fitness_request", 1, bit(core_src_->fit_request));
            vcd->add_probe(scope, "GA_done", 1, bit(core_src_->ga_done));
            vcd->add_probe(scope, "mon_gen_pulse", 1, bit(core_src_->mon_gen_pulse));
        }
        vcd_ = vcd;
    }

    /// Reset everything and run until every lane reaches GA_done (or the
    /// cycle bound trips). Returns one result per configured lane.
    std::vector<BatchLaneResult> run(std::uint64_t max_cycles = 0) {
        const std::vector<BatchLaneResult> out = run_bounded(max_cycles);
        for (const BatchLaneResult& r : out)
            if (!r.finished)
                throw std::runtime_error("BatchGateRunner: lanes did not finish within bound");
        return out;
    }

    /// Watchdog-friendly variant of run(): a lane that misses the cycle
    /// bound is reported with `finished == false` instead of throwing, so a
    /// supervisor can classify the trip (lane_state()) and walk its
    /// recovery ladder. `max_cycles` counts from reset (init handshake
    /// included); 0 selects the formula bound.
    std::vector<BatchLaneResult> run_bounded(std::uint64_t max_cycles = 0) {
        if (max_cycles == 0) max_cycles = default_cycle_bound();
        reset();
        std::size_t unfinished = lanes_.size();
        while (unfinished > 0 && cycle_ < max_cycles) unfinished = step();
        std::vector<BatchLaneResult> out;
        out.reserve(lanes_.size());
        for (const Lane& l : lanes_) out.push_back(l.result);
        return out;
    }

    // --- island-mode stepwise interface --------------------------------
    // The island interconnect (src/island/) drives the batch one GA cycle
    // at a time and parks lanes at generation boundaries: a parked lane's
    // registers are clock-gated (CompiledNetlist::clock_gated) and its
    // peripheral models freeze, so the lane holds its exact architectural
    // state while siblings keep evolving — the cycle-level model of N
    // cores meeting at a migration barrier. While a lane is parked its
    // software GA memory can be poked (migration applies at the same
    // point the RTL backdoor pokes GaMemory: right after the monitor's
    // kGenCheck capture edge, before the next selection read).

    /// Append one {index, value} write to a lane's init program — the
    /// migration extension registers (indices 6/7) ride the handshake
    /// after the six Table III parameters. Call before the run starts.
    void append_lane_write(unsigned lane, std::uint8_t index, std::uint16_t value) {
        check_lane(lane);
        lanes_[lane].program.emplace_back(index, value);
    }

    /// Reset every lane and both compiled netlists for a stepwise run
    /// (run()/run_bounded() do this internally).
    void begin_run() { reset(); }

    /// One GA-clock cycle; returns the count of unfinished lanes (parked
    /// lanes count as unfinished).
    std::size_t step_cycle() { return step(); }

    /// Arm the generation-synchronous barrier: an unfinished lane whose
    /// monitor pulse rises with mon_gen_id == `gen` parks right after the
    /// capture edge. Parked lanes stay parked until release_lanes().
    void arm_generation_barrier(std::uint32_t gen) {
        barrier_armed_ = true;
        barrier_gen_ = gen;
    }
    void disarm_generation_barrier() { barrier_armed_ = false; }

    /// Step until every lane is parked at the armed barrier or finished,
    /// or `max_cycles` (counted from reset) elapses. Returns the number of
    /// lanes still running — nonzero means a lane missed the barrier
    /// within the bound (the island watchdog's trip signal).
    std::size_t run_to_barrier(std::uint64_t max_cycles) {
        std::size_t running = pending_lanes();
        while (running > 0 && cycle_ < max_cycles) {
            step();
            running = pending_lanes();
        }
        return running;
    }

    /// Lanes neither finished, parked at the barrier nor free.
    std::size_t pending_lanes() const noexcept {
        std::size_t n = 0;
        for (const Lane& l : lanes_)
            if (!l.result.finished && !l.parked && !l.free) ++n;
        return n;
    }

    bool lane_parked(unsigned lane) const {
        check_lane(lane);
        return lanes_[lane].parked;
    }

    /// Resume every parked lane (the barrier is normally released for all
    /// islands at once; re-arm for the next boundary before stepping on).
    void release_lanes() {
        for (Lane& l : lanes_) l.parked = false;
        stall_ = WordVec{};
    }

    /// GA cycles a lane spent clock-gated at barriers so far.
    std::uint64_t lane_stall_cycles(unsigned lane) const {
        check_lane(lane);
        return lanes_[lane].stall_cycles;
    }

    const BatchLaneResult& lane_result(unsigned lane) const {
        check_lane(lane);
        return lanes_[lane].result;
    }

    /// Current-population bank bit of one lane (post-edge register value).
    bool lane_bank(unsigned lane) const {
        check_lane(lane);
        return core_->value(core_src_->bank, lane);
    }

    /// Backdoor access to a lane's software GA memory (256 x 32 words).
    std::uint32_t peek_lane_mem(unsigned lane, std::uint8_t addr) const {
        check_lane(lane);
        return lanes_[lane].mem[addr];
    }
    void poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word) {
        check_lane(lane);
        lanes_[lane].mem[addr] = word;
    }

private:
    static constexpr unsigned kMaxWords = gates::CompiledNetlist::kMaxWords;
    /// One lane-block's worth of packed bits for a single signal.
    using WordVec = std::array<std::uint64_t, kMaxWords>;

    struct Lane {
        fitness::FitnessId fn = fitness::FitnessId::kOneMax;  ///< software FEM function
        bool free = false;       ///< no job: inputs held at 0, peripherals stopped
        bool resetting = false;  ///< loaded: reset bit raised in the next cycle
        std::uint64_t base = 0;  ///< runner cycle of the lane's last reset
        // init-handshake FSM (mirrors system::InitModule at GA granularity)
        std::vector<std::pair<std::uint8_t, std::uint16_t>> program;
        std::size_t init_item = 0;
        bool init_asserting = true;
        bool init_done = false;
        // start pulse
        int start_hold = -1;  ///< -1 = not yet scheduled; >0 = cycles left high
        bool started = false;
        std::uint64_t start_cycle = 0;
        // software FEM (slot 0, zero-latency block-ROM model)
        bool fem_valid = false;
        std::uint16_t fem_value = 0;
        // per-lane GA memory (256 x 32, synchronous read, write-first)
        std::array<std::uint32_t, mem::kGaMemoryDepth> mem{};
        std::uint32_t mem_dout = 0;
        // island barrier: clock-gated hold at a generation boundary
        bool parked = false;
        std::uint64_t stall_cycles = 0;
        // telemetry edge detectors (touched only when a sink is attached)
        bool prev_ack = false;
        bool prev_pulse = false;
        bool prev_bank = false;
        bool init_done_traced = false;
        bool start_traced = false;
        BatchLaneResult result;
    };

    void check_lane(unsigned lane) const {
        if (lane >= lanes_.size())
            throw std::invalid_argument("BatchGateRunner: lane out of range");
    }

    /// The six Table III parameter writes of the init handshake.
    static std::vector<std::pair<std::uint8_t, std::uint16_t>> init_program(
        const core::GaParameters& p) {
        return {
            {0, static_cast<std::uint16_t>(p.n_gens & 0xFFFF)},
            {1, static_cast<std::uint16_t>(p.n_gens >> 16)},
            {2, p.pop_size},
            {3, p.xover_threshold},
            {4, p.mut_threshold},
            {5, p.seed},
        };
    }

    /// One lane per params_ entry, all running `fn`; presets, sinks and
    /// lane state back to the post-construction condition.
    void configure_lanes(fitness::FitnessId fn) {
        presets_.assign(params_.size(), 0);
        lane_sinks_.assign(params_.size(), nullptr);
        tracing_ = false;
        lanes_.assign(params_.size(), Lane{});
        for (std::size_t k = 0; k < params_.size(); ++k) {
            lanes_[k].fn = fn;
            lanes_[k].program = init_program(params_[k]);
        }
    }

    /// Static pins: per-lane Table IV preset mode (user mode = 0).
    void drive_presets() {
        std::array<WordVec, 2> preset_w{};
        for (std::size_t k = 0; k < presets_.size(); ++k)
            for (unsigned j = 0; j < 2; ++j)
                if ((presets_[k] >> j) & 1u) set(preset_w[j], k);
        for (unsigned j = 0; j < core_src_->preset.size() && j < 2; ++j)
            drive_core(core_src_->preset[j], preset_w[j]);
        for (unsigned j = 0; j < rng_src_->preset.size() && j < 2; ++j)
            drive_rng(rng_src_->preset[j], preset_w[j]);
    }

    static bool get(const WordVec& v, std::size_t k) noexcept {
        return (v[k / kWordBits] >> (k % kWordBits)) & 1u;
    }
    static void set(WordVec& v, std::size_t k) noexcept {
        v[k / kWordBits] |= std::uint64_t{1} << (k % kWordBits);
    }
    WordVec read_net(gates::Net n) const {
        WordVec v{};
        for (unsigned w = 0; w < words_; ++w) v[w] = core_->lanes_word(n, w);
        return v;
    }
    void drive_core(gates::Net n, const WordVec& v) {
        for (unsigned w = 0; w < words_; ++w) core_->set_input_word(n, w, v[w]);
    }
    void drive_rng(gates::Net n, const WordVec& v) {
        for (unsigned w = 0; w < words_; ++w) rng_->set_input_word(n, w, v[w]);
    }
    /// Transposed read of a port word: per-net lane blocks, indexed
    /// [net_bit][word]. One lanes_word per net per word instead of one
    /// word_value (= width x root lookups) per LANE — the hot-path way to
    /// extract per-lane bytes/words from wide blocks.
    template <std::size_t N>
    std::array<WordVec, N> read_word_t(const gates::Word& nets) const {
        std::array<WordVec, N> out{};
        const std::size_t n = std::min<std::size_t>(N, nets.size());
        for (std::size_t j = 0; j < n; ++j)
            for (unsigned w = 0; w < words_; ++w) out[j][w] = core_->lanes_word(nets[j], w);
        return out;
    }
    template <std::size_t N>
    static std::uint64_t lane_word(const std::array<WordVec, N>& t, std::size_t k) noexcept {
        std::uint64_t v = 0;
        for (std::size_t j = 0; j < N; ++j)
            if (get(t[j], k)) v |= std::uint64_t{1} << j;
        return v;
    }

    void reset() {
        cycle_ = 0;
        stall_ = WordVec{};
        barrier_armed_ = false;
        barrier_gen_ = 0;
        reset_high_ = false;
        for (std::size_t k = 0; k < lanes_.size(); ++k) {
            Lane fresh;
            fresh.fn = lanes_[k].fn;
            fresh.free = lanes_[k].free;
            fresh.program = std::move(lanes_[k].program);
            if (presets_[k] != 0) {
                // Preset lane: Table IV pins carry the run — no handshake,
                // start pulse scheduled immediately.
                fresh.init_done = true;
                fresh.init_done_traced = true;
                fresh.start_hold = 2;
            }
            lanes_[k] = std::move(fresh);
        }
        // Static pins: per-lane preset mode, fitness slot 0.
        core_->set_input_all(core_src_->reset, false);
        rng_->set_input_all(rng_src_->reset, false);
        drive_presets();
        for (const gates::Net n : core_src_->fitfunc_select) core_->set_input_all(n, false);
        for (const gates::Net n : core_src_->fit_value_ext) core_->set_input_all(n, false);
        core_->set_input_all(core_src_->fit_valid_ext, false);
        core_->set_input_all(core_src_->sel_force_found, false);
        for (const gates::Net n : core_src_->mem_data_in) core_->set_input_all(n, false);
        for (const gates::Net n : core_src_->fit_value) core_->set_input_all(n, false);
        core_->set_input_all(core_src_->fit_valid, false);
        core_->set_input_all(core_src_->start_ga, false);
        core_->set_input_all(core_src_->ga_load, false);
        core_->set_input_all(core_src_->data_valid, false);
        for (const gates::Net n : core_src_->index) core_->set_input_all(n, false);
        for (const gates::Net n : core_src_->value) core_->set_input_all(n, false);
        rng_->set_input_all(rng_src_->start, false);
        rng_->set_input_all(rng_src_->rn_next, false);
        rng_->set_input_all(rng_src_->ga_load, false);
        rng_->set_input_all(rng_src_->data_valid, false);
        for (const gates::Net n : rng_src_->index) rng_->set_input_all(n, false);
        for (const gates::Net n : rng_src_->value) rng_->set_input_all(n, false);

        // Synchronous reset pulse in every lane.
        core_->set_input_all(core_src_->reset, true);
        rng_->set_input_all(rng_src_->reset, true);
        core_->eval();
        rng_->eval();
        core_->clock();
        rng_->clock();
        core_->set_input_all(core_src_->reset, false);
        rng_->set_input_all(rng_src_->reset, false);
    }

    /// One GA-clock cycle across all lanes; returns unfinished lane count.
    std::size_t step() {
        const std::size_t n = lanes_.size();

        // ---- assemble per-lane input words --------------------------------
        WordVec ga_load_w{}, data_valid_w{}, start_w{}, fit_valid_w{}, reset_w{};
        std::array<WordVec, 3> index_w{};
        std::array<WordVec, 16> value_w{};
        std::array<WordVec, 16> fitv_w{};
        std::array<WordVec, 32> mdi_w{};
        bool any_reset = false;
        for (std::size_t k = 0; k < n; ++k) {
            const Lane& l = lanes_[k];
            if (l.free) continue;
            if (l.resetting) {
                set(reset_w, k);
                any_reset = true;
                continue;
            }
            if (!l.init_done) {
                set(ga_load_w, k);
                if (l.init_asserting) {
                    set(data_valid_w, k);
                    const auto& [idx, val] = l.program[l.init_item];
                    for (unsigned j = 0; j < 3; ++j)
                        if ((idx >> j) & 1u) set(index_w[j], k);
                    for (unsigned j = 0; j < 16; ++j)
                        if ((val >> j) & 1u) set(value_w[j], k);
                }
            }
            if (l.start_hold > 0) set(start_w, k);
            if (l.fem_valid) {
                set(fit_valid_w, k);
                for (unsigned j = 0; j < 16; ++j)
                    if ((l.fem_value >> j) & 1u) set(fitv_w[j], k);
            }
            for (unsigned j = 0; j < 32; ++j)
                if ((l.mem_dout >> j) & 1u) set(mdi_w[j], k);
        }

        // ---- drive the core and settle its combinational cone -------------
        // A reloaded lane's reset bit is high for exactly one cycle.
        if (any_reset || reset_high_) {
            drive_core(core_src_->reset, reset_w);
            drive_rng(rng_src_->reset, reset_w);
            reset_high_ = any_reset;
        }
        drive_core(core_src_->ga_load, ga_load_w);
        drive_core(core_src_->data_valid, data_valid_w);
        drive_core(core_src_->start_ga, start_w);
        drive_core(core_src_->fit_valid, fit_valid_w);
        for (unsigned j = 0; j < 3; ++j) drive_core(core_src_->index[j], index_w[j]);
        for (unsigned j = 0; j < 16; ++j) {
            drive_core(core_src_->value[j], value_w[j]);
            drive_core(core_src_->fit_value[j], fitv_w[j]);
            // rn comes straight from the RNG's CA state registers.
            for (unsigned w = 0; w < words_; ++w)
                core_->set_input_word(core_src_->rn[j], w,
                                      rng_->lanes_word(rng_src_->rn[j], w));
        }
        for (unsigned j = 0; j < 32; ++j) drive_core(core_src_->mem_data_in[j], mdi_w[j]);
        core_->eval();

        // ---- sample the core's outputs (pre-edge values) ------------------
        const WordVec data_ack_w = read_net(core_src_->data_ack);
        const WordVec fit_req_w = read_net(core_src_->fit_request);
        const WordVec ga_done_w = read_net(core_src_->ga_done);
        const WordVec mem_wr_w = read_net(core_src_->mem_wr);
        WordVec rn_next_w = read_net(core_src_->rn_next);
        if (any_reset)
            for (unsigned w = 0; w < words_; ++w) rn_next_w[w] &= ~reset_w[w];
        const auto addr_t = read_word_t<8>(core_src_->mem_address);
        const auto mdo_t = read_word_t<32>(core_src_->mem_data_out);
        const auto cand_t = read_word_t<16>(core_src_->candidate);
        // Pre-edge monitor samples: the same observation point the RT-level
        // SystemTap uses, so traced event streams line up across substrates.
        // The island barrier watches the same pulse to spot lanes entering
        // their kGenCheck boundary.
        const WordVec mon_pulse_w =
            (tracing_ || barrier_armed_) ? read_net(core_src_->mon_gen_pulse) : WordVec{};
        const WordVec mon_bank_w = tracing_ ? read_net(core_src_->mon_bank) : WordVec{};

        // ---- drive the RNG module (shares the init bus + start pulse) -----
        drive_rng(rng_src_->ga_load, ga_load_w);
        drive_rng(rng_src_->data_valid, data_valid_w);
        drive_rng(rng_src_->start, start_w);
        drive_rng(rng_src_->rn_next, rn_next_w);
        for (unsigned j = 0; j < 3; ++j) drive_rng(rng_src_->index[j], index_w[j]);
        for (unsigned j = 0; j < 16; ++j) drive_rng(rng_src_->value[j], value_w[j]);
        rng_->eval();

        // ---- clock edge ---------------------------------------------------
        // Parked lanes are clock-gated: their registers (core AND RNG) hold
        // while active lanes latch normally. The WordVec is zero-initialized
        // beyond words_, so the mask math stays in-range.
        bool any_parked = false;
        for (unsigned w = 0; w < words_; ++w) any_parked |= (stall_[w] != 0);
        if (any_parked) {
            WordVec enable{};
            for (unsigned w = 0; w < words_; ++w) enable[w] = ~stall_[w];
            core_->clock_gated(enable.data());
            rng_->clock_gated(enable.data());
        } else {
            core_->clock();
            rng_->clock();
        }
        ++cycle_;

        // ---- advance the per-lane peripheral models -----------------------
        std::size_t unfinished = 0;
        for (std::size_t k = 0; k < n; ++k) {
            Lane& l = lanes_[k];
            if (l.free) continue;
            if (l.resetting) {
                // The reset edge just landed: the lane's own clock starts.
                l.resetting = false;
                l.base = cycle_;
                ++unfinished;
                continue;
            }
            if (l.parked) {
                // Frozen at the barrier: peripherals hold, telemetry edge
                // detectors hold, the lane just accrues stall time.
                ++l.stall_cycles;
                if (!l.result.finished) ++unfinished;
                continue;
            }
            trace::TraceSink* sink = tracing_ ? lane_sinks_[k] : nullptr;
            const unsigned lk = static_cast<unsigned>(k);

            if (sink != nullptr && get(data_ack_w, k) && !l.prev_ack) {
                const auto& [idx, val] = l.program[l.init_item];
                sink->on_event(lane_event(l, trace::kind::kInitWrite)
                                   .add("index", static_cast<std::uint64_t>(idx))
                                   .add("value", static_cast<std::uint64_t>(val)));
            }
            l.prev_ack = get(data_ack_w, k);

            // GA memory (write-first synchronous RAM).
            const std::uint8_t addr = static_cast<std::uint8_t>(lane_word(addr_t, k));
            if (get(mem_wr_w, k)) {
                const std::uint32_t wdata = static_cast<std::uint32_t>(lane_word(mdo_t, k));
                l.mem[addr] = wdata;
                l.mem_dout = wdata;
            } else {
                l.mem_dout = l.mem[addr];
            }

            // FEM: one-cycle lookup, valid until the request drops.
            if (l.fem_valid && !get(fit_req_w, k)) {
                l.fem_valid = false;
            } else if (get(fit_req_w, k) && !l.fem_valid) {
                const std::uint16_t cand = static_cast<std::uint16_t>(lane_word(cand_t, k));
                l.fem_value = fitness::fitness_u16(l.fn, cand);
                l.fem_valid = true;
                ++l.result.evaluations;
                if (sink != nullptr) {
                    // The software FEM answers in the same cycle, so the
                    // request/value pair collapses here; the stream order
                    // (request then value, one pair per evaluation) matches
                    // the RT-level tap.
                    sink->on_event(lane_event(l, trace::kind::kFemRequest)
                                       .add("candidate", static_cast<std::uint64_t>(cand)));
                    sink->on_event(lane_event(l, trace::kind::kFemValue)
                                       .add("candidate", static_cast<std::uint64_t>(cand))
                                       .add("value", static_cast<std::uint64_t>(l.fem_value)));
                }
            }

            // Init handshake FSM.
            if (!l.init_done) {
                if (l.init_asserting) {
                    if (get(data_ack_w, k)) l.init_asserting = false;
                } else if (!get(data_ack_w, k)) {
                    if (++l.init_item >= l.program.size()) {
                        l.init_done = true;
                        l.start_hold = 2;  // schedule the start_GA pulse
                    } else {
                        l.init_asserting = true;
                    }
                }
            } else if (l.start_hold > 0) {
                if (!l.started) {
                    l.started = true;
                    l.start_cycle = cycle_;
                }
                --l.start_hold;
            }
            if (sink != nullptr) {
                if (l.init_done && !l.init_done_traced) {
                    l.init_done_traced = true;
                    sink->on_event(lane_event(l, trace::kind::kInitDone));
                }
                if (l.started && !l.start_traced) {
                    l.start_traced = true;
                    sink->on_event(lane_event(l, trace::kind::kStart));
                }
                if (get(mon_pulse_w, k) && !l.prev_pulse) {
                    sink->on_event(
                        lane_event(l, trace::kind::kGeneration)
                            .add("gen", core_->word_value(core_src_->mon_gen_id, lk))
                            .add("best_fit", core_->word_value(core_src_->mon_best_fit, lk))
                            .add("best_ind", core_->word_value(core_src_->mon_best_ind, lk))
                            .add("fit_sum", core_->word_value(core_src_->mon_fit_sum, lk))
                            .add("pop", core_->word_value(core_src_->mon_pop_size, lk))
                            .add("bank", get(mon_bank_w, k) ? std::uint64_t{1} : std::uint64_t{0}));
                }
                if (get(mon_bank_w, k) != l.prev_bank) {
                    sink->on_event(lane_event(l, trace::kind::kBankSwap)
                                       .add("bank", get(mon_bank_w, k) ? std::uint64_t{1} : std::uint64_t{0}));
                }
            }
            // Barrier park: the pulse rise IS the monitor capture edge
            // (E2 of the boundary), so gating the lane from the next cycle
            // on freezes it after the pre-migration snapshot and before the
            // elite write reaches the other bank — the exact window the
            // RTL island driver pokes GaMemory in.
            if (barrier_armed_ && !l.result.finished && get(mon_pulse_w, k) && !l.prev_pulse &&
                core_->word_value(core_src_->mon_gen_id, static_cast<unsigned>(k)) ==
                    barrier_gen_) {
                l.parked = true;
                set(stall_, k);
            }
            l.prev_pulse = get(mon_pulse_w, k);
            l.prev_bank = get(mon_bank_w, k);

            // Completion: first GA_done after the start pulse.
            if (!l.result.finished) {
                if (l.started && get(ga_done_w, k)) {
                    const unsigned lane = static_cast<unsigned>(k);
                    l.result.finished = true;
                    l.result.best_fitness = static_cast<std::uint16_t>(
                        core_->word_value(core_src_->best_fit, lane));
                    l.result.best_candidate = static_cast<std::uint16_t>(
                        core_->word_value(core_src_->best_ind, lane));
                    l.result.generations = static_cast<std::uint32_t>(
                        core_->word_value(core_src_->gen_id, lane));
                    l.result.ga_cycles = cycle_ - l.start_cycle;
                    if (sink != nullptr) {
                        sink->on_event(
                            lane_event(l, trace::kind::kDone)
                                .add("best_fit",
                                     static_cast<std::uint64_t>(l.result.best_fitness))
                                .add("best_ind",
                                     static_cast<std::uint64_t>(l.result.best_candidate))
                                .add("gen",
                                     static_cast<std::uint64_t>(l.result.generations)));
                    }
                } else {
                    ++unfinished;
                }
            }
        }
        if (vcd_ != nullptr) vcd_->sample(cycle_ * 20'000);
        return unfinished;
    }

    /// Event envelope for lane telemetry: 50 MHz GA clock -> 20 ns/cycle,
    /// counted from the lane's own reset.
    trace::TraceEvent lane_event(const Lane& l, const char* kind) const {
        const std::uint64_t c = cycle_ - l.base;
        return trace::TraceEvent(kind, c * 20'000, c);
    }

    std::vector<core::GaParameters> params_;
    std::vector<std::uint8_t> presets_;  ///< per-lane Table IV preset mode (0 = user)
    std::unique_ptr<gates::GaCoreNetlist> core_src_;
    std::unique_ptr<gates::RngNetlist> rng_src_;
    std::optional<gates::CompiledNetlist> core_;
    std::optional<gates::CompiledNetlist> rng_;
    unsigned words_ = 1;
    std::vector<Lane> lanes_;
    std::uint64_t cycle_ = 0;
    bool reset_high_ = false;  ///< a reloaded lane's reset bit was driven last cycle
    // island barrier state: per-lane clock-gate mask + armed boundary
    WordVec stall_{};
    bool barrier_armed_ = false;
    std::uint32_t barrier_gen_ = 0;
    std::vector<trace::TraceSink*> lane_sinks_;
    bool tracing_ = false;
    trace::VcdWriter* vcd_ = nullptr;
};

}  // namespace gaip::bench
