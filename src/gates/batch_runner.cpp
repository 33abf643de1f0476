#include "gates/batch_runner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "mem/ga_memory.hpp"
#include "trace/vcd.hpp"
#include "util/bits.hpp"

namespace gaip::gates {

namespace {

constexpr unsigned kWordBits = CompiledNetlist::kWordBits;

template <std::size_t W>
bool get(const std::array<std::uint64_t, W>& v, std::size_t k) noexcept {
    return (v[k / kWordBits] >> (k % kWordBits)) & 1u;
}
template <std::size_t W>
void set(std::array<std::uint64_t, W>& v, std::size_t k) noexcept {
    v[k / kWordBits] |= std::uint64_t{1} << (k % kWordBits);
}
template <std::size_t W>
void clear(std::array<std::uint64_t, W>& v, std::size_t k) noexcept {
    v[k / kWordBits] &= ~(std::uint64_t{1} << (k % kWordBits));
}

/// Drive every primary input of `sim` (compiled from `nl`) to 0.
void zero_inputs(const GateNetlist& nl, CompiledNetlist& sim) {
    for (Net n = 0; n < nl.net_count(); ++n)
        if (nl.op_of(n) == GateOp::kInput) sim.set_input_all(n, false);
}

constexpr std::uint8_t kDoneState = static_cast<std::uint8_t>(core::GaCore::State::kDone);

}  // namespace

BatchGateRunner::BatchGateRunner(fitness::FitnessId fn,
                                 std::vector<core::GaParameters> lane_params, unsigned words,
                                 Backend backend)
    : core_src_(build_ga_core_netlist()), rng_src_(build_rng_netlist()) {
    if (lane_params.empty() || lane_params.size() > kMaxLanes)
        throw std::invalid_argument("BatchGateRunner: need 1.." + std::to_string(kMaxLanes) +
                                    " lane configs");
    if (words == 0)
        for (words = 1; words * kWordBits < lane_params.size(); words *= 2) {
        }
    const auto options = [&](std::vector<Net> keep) {
        return CompiledNetlist::Options{
            .words = words, .cse = true, .prune = true, .keep = std::move(keep), .backend = backend};
    };
    core_.emplace(core_src_->nl, options(core_src_->observable_port_nets()));
    rng_.emplace(rng_src_->nl, options(rng_src_->observable_port_nets()));
    words_ = core_->words();
    mem_.assign(mem::kGaMemoryDepth * core_->lane_count(), 0);

    const GaCoreNetlist& c = *core_src_;
    const RngNetlist& r = *rng_src_;
    hc_reset_ = core_->input_handle(c.reset);
    hc_ga_load_ = core_->input_handle(c.ga_load);
    hc_data_valid_ = core_->input_handle(c.data_valid);
    hc_start_ = core_->input_handle(c.start_ga);
    hc_fit_valid_ = core_->input_handle(c.fit_valid);
    hc_fit_request_ = core_->read_handle(c.fit_request);
    hc_data_ack_ = core_->read_handle(c.data_ack);
    hc_mem_wr_ = core_->read_handle(c.mem_wr);
    hc_rn_next_ = core_->read_handle(c.rn_next);
    hc_mon_pulse_ = core_->read_handle(c.mon_gen_pulse);
    hc_mon_bank_ = core_->read_handle(c.mon_bank);
    for (unsigned j = 0; j < 3; ++j) {
        hc_index_[j] = core_->input_handle(c.index[j]);
        hr_index_[j] = rng_->input_handle(r.index[j]);
    }
    for (unsigned j = 0; j < 16; ++j) {
        hc_value_[j] = core_->input_handle(c.value[j]);
        hc_fit_value_[j] = core_->input_handle(c.fit_value[j]);
        hc_rn_[j] = core_->input_handle(c.rn[j]);
        hc_cand_[j] = core_->read_handle(c.candidate[j]);
        hr_value_[j] = rng_->input_handle(r.value[j]);
        hr_rn_[j] = rng_->read_handle(r.rn[j]);
    }
    for (unsigned j = 0; j < 32; ++j) {
        hc_mdi_[j] = core_->input_handle(c.mem_data_in[j]);
        hc_mdo_[j] = core_->read_handle(c.mem_data_out[j]);
    }
    for (unsigned j = 0; j < 8; ++j) hc_addr_[j] = core_->read_handle(c.mem_address[j]);
    for (unsigned j = 0; j < 6; ++j) hc_state_[j] = core_->read_handle(c.state[j]);
    hr_reset_ = rng_->input_handle(r.reset);
    hr_ga_load_ = rng_->input_handle(r.ga_load);
    hr_data_valid_ = rng_->input_handle(r.data_valid);
    hr_start_ = rng_->input_handle(r.start);
    hr_rn_next_ = rng_->input_handle(r.rn_next);

    std::vector<Net> fit_sources{c.fit_valid};
    fit_sources.insert(fit_sources.end(), c.fit_value.begin(), c.fit_value.end());
    fit_cone_ = core_->make_cone(fit_sources);

    reconfigure(fn, std::move(lane_params));
}

void BatchGateRunner::reconfigure(fitness::FitnessId fn,
                                  std::vector<core::GaParameters> lane_params) {
    if (lane_params.empty() || lane_params.size() > std::size_t{words_} * kWordBits)
        throw std::invalid_argument(
            "BatchGateRunner: " + std::to_string(lane_params.size()) +
            " lane configs do not fit the " + std::to_string(words_ * kWordBits) +
            " lanes of a " + std::to_string(words_) + "-word block");
    params_ = std::move(lane_params);
    presets_.assign(params_.size(), 0);
    lane_sinks_.assign(params_.size(), nullptr);
    tracing_ = false;
    lanes_.assign(params_.size(), Lane{});
    live_ = WordVec{};
    for (std::size_t k = 0; k < params_.size(); ++k) {
        lanes_[k].fn = fn;
        lanes_[k].program = core::init_program(params_[k]);
        set(live_, k);
    }
}

std::uint64_t BatchGateRunner::default_cycle_bound() const {
    std::uint64_t bound = 0;
    for (std::size_t k = 0; k < lanes_.size(); ++k)
        if (get(live_, k)) bound = std::max(bound, lane_cycle_bound(static_cast<unsigned>(k)));
    return bound;
}

std::uint64_t BatchGateRunner::lane_cycle_bound(unsigned lane) const {
    check_lane(lane);
    return core::cycle_bound(core::resolve_parameters(presets_[lane], params_[lane]));
}

void BatchGateRunner::load_lane(unsigned lane, fitness::FitnessId fn,
                                const core::GaParameters& p) {
    if (lane >= std::size_t{words_} * kWordBits)
        throw std::invalid_argument("BatchGateRunner: lane beyond the lane block");
    if (lane >= lanes_.size()) {
        lanes_.resize(lane + 1);
        params_.resize(lane + 1);
        presets_.resize(lane + 1, 0);
        lane_sinks_.resize(lane + 1, nullptr);
    }
    Lane fresh;
    fresh.fn = fn;
    fresh.program = core::init_program(p);
    fresh.base = cycle_;
    lanes_[lane] = std::move(fresh);
    params_[lane] = p;
    set(live_, lane);
    set(reset_, lane);
    clear(stall_, lane);
    clear_lane_memory(lane);
    handshake_quiet_ = false;
    set_lane_sink(lane, nullptr);
    if (presets_[lane] != 0) {
        presets_[lane] = 0;
        drive_presets();
    }
}

void BatchGateRunner::free_lane(unsigned lane) {
    check_lane(lane);
    clear(live_, lane);
    set_lane_sink(lane, nullptr);
}

std::uint8_t BatchGateRunner::lane_state(unsigned lane) const {
    check_lane(lane);
    return static_cast<std::uint8_t>(core_->word_value(core_src_->state, lane));
}

void BatchGateRunner::flip_register_bit(unsigned lane, Net q) {
    check_lane(lane);
    core_->xor_register_word(q, lane / kWordBits, std::uint64_t{1} << (lane % kWordBits));
}

void BatchGateRunner::set_lane_sink(unsigned lane, trace::TraceSink* sink) {
    check_lane(lane);
    lane_sinks_[lane] = sink;
    tracing_ = false;
    for (const trace::TraceSink* s : lane_sinks_) tracing_ |= (s != nullptr);
}

void BatchGateRunner::add_vcd(trace::VcdWriter* vcd, const std::vector<unsigned>& lanes_to_trace) {
    for (const unsigned lane : lanes_to_trace) {
        check_lane(lane);
        const std::string scope = "gates.lane" + std::to_string(lane);
        auto word = [this, lane](const Word& w) {
            const Word* pw = &w;  // stable: lives in *core_src_
            return [this, lane, pw] { return core_->word_value(*pw, lane); };
        };
        auto bit = [this, lane](Net n) {
            return [this, lane, n] { return core_->value(n, lane) ? std::uint64_t{1} : 0; };
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

std::vector<BatchLaneResult> BatchGateRunner::run(std::uint64_t max_cycles) {
    const std::vector<BatchLaneResult> out = run_bounded(max_cycles);
    for (const BatchLaneResult& r : out)
        if (!r.finished)
            throw std::runtime_error("BatchGateRunner: lanes did not finish within bound");
    return out;
}

std::vector<BatchLaneResult> BatchGateRunner::run_bounded(std::uint64_t max_cycles) {
    if (max_cycles == 0) max_cycles = default_cycle_bound();
    begin_run();
    std::size_t unfinished = lanes_.size();
    while (unfinished > 0 && cycle_ < max_cycles) unfinished = step_cycle();
    std::vector<BatchLaneResult> out;
    out.reserve(lanes_.size());
    for (const Lane& l : lanes_) out.push_back(l.result);
    return out;
}

std::size_t BatchGateRunner::run_to_barrier(std::uint64_t max_cycles) {
    while (pending_lanes() > 0 && cycle_ < max_cycles) step_cycle();
    return pending_lanes();
}

std::size_t BatchGateRunner::pending_lanes() const noexcept {
    std::size_t n = 0;
    for (std::size_t k = 0; k < lanes_.size(); ++k)
        if (get(live_, k) && !lanes_[k].result.finished && !lanes_[k].parked) ++n;
    return n;
}

void BatchGateRunner::release_lanes() {
    for (Lane& l : lanes_) l.parked = false;
    stall_ = WordVec{};
}

bool BatchGateRunner::lane_bank(unsigned lane) const {
    check_lane(lane);
    return core_->value(core_src_->bank, lane);
}

std::uint32_t BatchGateRunner::peek_lane_mem(unsigned lane, std::uint8_t addr) const {
    check_lane(lane);
    return mem_[std::size_t{addr} * core_->lane_count() + lane];
}

void BatchGateRunner::poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word) {
    check_lane(lane);
    mem_[std::size_t{addr} * core_->lane_count() + lane] = word;
}

void BatchGateRunner::check_lane(unsigned lane) const {
    if (lane >= lanes_.size()) throw std::invalid_argument("BatchGateRunner: lane out of range");
}

/// Static pins: per-lane Table IV preset mode (user mode = 0).
void BatchGateRunner::drive_presets() {
    for (unsigned j = 0; j < 2; ++j) {
        WordVec pin{};
        for (std::size_t k = 0; k < presets_.size(); ++k)
            if ((presets_[k] >> j) & 1u) set(pin, k);
        for (unsigned w = 0; w < words_; ++w) {
            core_->set_input_word(core_src_->preset[j], w, pin[w]);
            rng_->set_input_word(rng_src_->preset[j], w, pin[w]);
        }
    }
}

void BatchGateRunner::clear_lane_memory(std::size_t lane) {
    const std::size_t block = core_->lane_count();
    for (std::size_t a = 0; a < mem::kGaMemoryDepth; ++a) mem_[a * block + lane] = 0;
}

void BatchGateRunner::begin_run() {
    cycle_ = 0;
    stall_ = WordVec{};
    barrier_armed_ = false;
    barrier_gen_ = 0;
    reset_ = WordVec{};
    reset_high_ = false;
    handshake_quiet_ = false;
    mdi_ = {};
    std::fill(mem_.begin(), mem_.end(), 0u);
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
        Lane fresh;
        fresh.fn = lanes_[k].fn;
        fresh.program = std::move(lanes_[k].program);
        if (presets_[k] != 0) {
            // Preset lane: Table IV pins carry the run — no handshake,
            // start pulse scheduled immediately.
            fresh.init_done = true;
            fresh.start_hold = 2;
        }
        lanes_[k] = std::move(fresh);
    }
    // Every input 0 (fitness slot 0) but the preset pins, then a
    // synchronous reset pulse in every lane.
    zero_inputs(core_src_->nl, *core_);
    zero_inputs(rng_src_->nl, *rng_);
    drive_presets();
    core_->set_input_all(core_src_->reset, true);
    rng_->set_input_all(rng_src_->reset, true);
    core_->eval();
    rng_->eval();
    core_->clock();
    rng_->clock();
    core_->set_input_all(core_src_->reset, false);
    rng_->set_input_all(rng_src_->reset, false);
}

std::size_t BatchGateRunner::step_cycle() {
    if (!handshake_quiet_) drive_handshake();
    // A reloaded lane's reset bit is high for exactly one cycle.
    bool any_reset = false;
    for (unsigned w = 0; w < words_; ++w) any_reset |= (reset_[w] != 0);
    if (any_reset || reset_high_) {
        drive_core(hc_reset_, reset_);
        drive_rng(hr_reset_, reset_);
        reset_high_ = any_reset;
    }
    drive_core(hc_fit_valid_, WordVec{});
    for (unsigned j = 0; j < 16; ++j) {
        drive_core(hc_fit_value_[j], WordVec{});
        // rn comes straight from the RNG's CA state registers.
        WordVec rn{};
        rng_->read_words(hr_rn_[j], rn.data());
        core_->write_words(hc_rn_[j], rn.data());
    }
    for (unsigned j = 0; j < 32; ++j) drive_core(hc_mdi_[j], mdi_[j]);
    core_->eval();
    serve_fitness();

    // Pre-edge samples of the core's outputs. The monitor samples are the
    // observation point the RT-level SystemTap uses, so traced event
    // streams line up across substrates; the island barrier watches the
    // same pulse to spot lanes entering their kGenCheck boundary.
    const WordVec data_ack_w = read_core(hc_data_ack_);
    const WordVec mem_wr_w = read_core(hc_mem_wr_);
    WordVec rn_next_w = read_core(hc_rn_next_);
    for (unsigned w = 0; w < words_; ++w) rn_next_w[w] &= ~reset_[w];
    const WordVec mon_pulse_w =
        (tracing_ || barrier_armed_) ? read_core(hc_mon_pulse_) : WordVec{};
    const WordVec mon_bank_w = tracing_ ? read_core(hc_mon_bank_) : WordVec{};

    drive_rng(hr_rn_next_, rn_next_w);
    rng_->eval();

    // Parked lanes are clock-gated: their registers (core AND RNG) hold
    // while active lanes latch normally.
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

    const std::size_t unfinished = advance_lanes(data_ack_w, mem_wr_w, mon_pulse_w, mon_bank_w);
    reset_ = WordVec{};
    if (vcd_ != nullptr) vcd_->sample(cycle_ * 20'000);
    return unfinished;
}

/// Init-handshake and start-pulse drive words (core and RNG share the
/// init bus and the start pulse).
void BatchGateRunner::drive_handshake() {
    WordVec ga_load_w{}, data_valid_w{}, start_w{};
    std::array<WordVec, 3> index_w{};
    std::array<WordVec, 16> value_w{};
    bool quiet = true;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
        const Lane& l = lanes_[k];
        if (!get(live_, k)) continue;
        if (get(reset_, k)) {
            quiet = false;
            continue;
        }
        if (!l.init_done) {
            quiet = false;
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
        if (l.start_hold > 0) {
            quiet = false;
            set(start_w, k);
        }
    }
    handshake_quiet_ = quiet;
    drive_core(hc_ga_load_, ga_load_w);
    drive_core(hc_data_valid_, data_valid_w);
    drive_core(hc_start_, start_w);
    drive_rng(hr_ga_load_, ga_load_w);
    drive_rng(hr_data_valid_, data_valid_w);
    drive_rng(hr_start_, start_w);
    for (unsigned j = 0; j < 3; ++j) {
        drive_core(hc_index_[j], index_w[j]);
        drive_rng(hr_index_[j], index_w[j]);
    }
    for (unsigned j = 0; j < 16; ++j) {
        drive_core(hc_value_[j], value_w[j]);
        drive_rng(hr_value_[j], value_w[j]);
    }
}

/// Same-cycle FEM, matching the RT-level system where the 200 MHz FEM
/// answers inside one 50 MHz core cycle: fit_valid combinationally tracks
/// fit_request. fit_request and candidate are Moore outputs, so sampling
/// them after the settle and driving the response back is loop-free; the
/// re-settle runs only the fit_valid/fit_value fanout cone.
void BatchGateRunner::serve_fitness() {
    WordVec req = read_core(hc_fit_request_);
    bool any = false;
    for (unsigned w = 0; w < words_; ++w) {
        req[w] &= live_[w] & ~reset_[w] & ~stall_[w];
        any |= (req[w] != 0);
    }
    if (!any) return;
    std::array<WordVec, 16> fitv_w{};
    for (unsigned w = 0; w < words_; ++w) {
        if (req[w] == 0) continue;
        // Gather this word's candidates into one value per lane, evaluate
        // the requesting lanes, scatter the fitness bits back — two 64x64
        // transposes instead of per-lane bit probes.
        std::uint64_t cand[kWordBits] = {};
        for (unsigned j = 0; j < 16; ++j) cand[j] = core_->read_word(hc_cand_[j], w);
        util::transpose64(cand);
        std::uint64_t fv[kWordBits] = {};
        for (std::uint64_t r = req[w]; r != 0; r &= r - 1) {
            const unsigned k = static_cast<unsigned>(std::countr_zero(r));
            const std::size_t lane = std::size_t{w} * kWordBits + k;
            Lane& l = lanes_[lane];
            const auto c = static_cast<std::uint16_t>(cand[k]);
            const std::uint16_t value = fitness::fitness_u16(l.fn, c);
            fv[k] = value;
            ++l.result.evaluations;
            if (trace::TraceSink* sink = tracing_ ? lane_sinks_[lane] : nullptr) {
                // Request and value share one cycle here; the stream order
                // (request then value, one pair per evaluation) matches the
                // RT-level tap.
                sink->on_event(lane_event(l, trace::kind::kFemRequest, cycle_ + 1)
                                   .add("candidate", std::uint64_t{c}));
                sink->on_event(lane_event(l, trace::kind::kFemValue, cycle_ + 1)
                                   .add("candidate", std::uint64_t{c})
                                   .add("value", std::uint64_t{value}));
            }
        }
        util::transpose64(fv);
        for (unsigned j = 0; j < 16; ++j) fitv_w[j][w] = fv[j];
    }
    drive_core(hc_fit_valid_, req);
    for (unsigned j = 0; j < 16; ++j) drive_core(hc_fit_value_[j], fitv_w[j]);
    core_->eval_cone(fit_cone_);
}

/// Post-edge per-lane pass: GA memory, init handshake and start pulse,
/// telemetry, barrier parking and completion. Lane-block <-> per-lane
/// conversions go through one 64x64 transpose per signal group and word.
std::size_t BatchGateRunner::advance_lanes(const WordVec& data_ack_w, const WordVec& mem_wr_w,
                                           const WordVec& mon_pulse_w,
                                           const WordVec& mon_bank_w) {
    const std::size_t n = lanes_.size();
    const std::size_t block = core_->lane_count();
    std::size_t unfinished = 0;
    for (unsigned w = 0; w < words_; ++w) {
        const std::size_t lane_base = std::size_t{w} * kWordBits;
        if (live_[w] == 0) {
            for (WordVec& row : mdi_) row[w] = 0;
            continue;
        }
        // mem_address / mem_data_out are combinational in registers only,
        // so their slots still hold the pre-edge values the RAM samples.
        std::uint64_t addr[kWordBits] = {};
        for (unsigned j = 0; j < 8; ++j) addr[j] = core_->read_word(hc_addr_[j], w);
        util::transpose64(addr);
        const std::uint64_t wr = mem_wr_w[w];
        std::uint64_t wdata[kWordBits] = {};
        if (wr != 0) {
            for (unsigned j = 0; j < 32; ++j) wdata[j] = core_->read_word(hc_mdo_[j], w);
            util::transpose64(wdata);
        }
        // Lanes whose post-edge FSM state is kDone.
        std::uint64_t done = ~std::uint64_t{0};
        for (unsigned j = 0; j < 6; ++j) {
            const std::uint64_t row = core_->read_word(hc_state_[j], w);
            done &= ((kDoneState >> j) & 1u) ? row : ~row;
        }
        // Lanes parked before this edge keep their read data; lanes without
        // a job (free, unconfigured, in reset) read 0.
        const std::uint64_t held = stall_[w];
        std::uint64_t dout[kWordBits] = {};

        const std::size_t m = std::min<std::size_t>(kWordBits, n - lane_base);
        for (std::size_t k = 0; k < m; ++k) {
            const std::size_t lane = lane_base + k;
            Lane& l = lanes_[lane];
            if (!((live_[w] >> k) & 1u)) continue;
            if ((reset_[w] >> k) & 1u) {
                // The reset edge just landed: the lane's own clock starts.
                l.base = cycle_;
                ++unfinished;
                continue;
            }
            if (l.parked) {
                // Frozen at the barrier: peripherals and telemetry edge
                // detectors hold, the lane just accrues stall time.
                ++l.stall_cycles;
                if (!l.result.finished) ++unfinished;
                continue;
            }
            trace::TraceSink* sink = tracing_ ? lane_sinks_[lane] : nullptr;
            const bool ack = (data_ack_w[w] >> k) & 1u;
            if (sink != nullptr && ack && !l.prev_ack) {
                const auto& [idx, val] = l.program[l.init_item];
                sink->on_event(lane_event(l, trace::kind::kInitWrite, cycle_)
                                   .add("index", std::uint64_t{idx})
                                   .add("value", std::uint64_t{val}));
            }
            l.prev_ack = ack;

            // GA memory (write-first synchronous RAM).
            std::uint32_t& cell = mem_[(addr[k] & 0xFF) * block + lane];
            if ((wr >> k) & 1u) cell = static_cast<std::uint32_t>(wdata[k]);
            dout[k] = cell;

            // Init handshake FSM, then the two-cycle start pulse (no lane
            // is in either once the handshake drive went quiet).
            if (!handshake_quiet_ && !l.init_done) {
                if (l.init_asserting) {
                    if (ack) l.init_asserting = false;
                } else if (!ack) {
                    if (++l.init_item >= l.program.size()) {
                        l.init_done = true;
                        l.start_hold = 2;
                    } else {
                        l.init_asserting = true;
                    }
                }
            } else if (!handshake_quiet_ && l.start_hold > 0) {
                if (!l.started) {
                    l.started = true;
                    l.start_cycle = cycle_ - 1;
                }
                --l.start_hold;
            }

            const bool pulse = (mon_pulse_w[w] >> k) & 1u;
            const bool bank = (mon_bank_w[w] >> k) & 1u;
            if (sink != nullptr) {
                if (l.init_done && !l.init_done_traced) {
                    l.init_done_traced = true;
                    sink->on_event(lane_event(l, trace::kind::kInitDone, cycle_));
                }
                if (l.started && !l.start_traced) {
                    l.start_traced = true;
                    sink->on_event(lane_event(l, trace::kind::kStart, cycle_));
                }
                if (pulse && !l.prev_pulse) {
                    const auto lk = static_cast<unsigned>(lane);
                    const GaCoreNetlist& c = *core_src_;
                    sink->on_event(lane_event(l, trace::kind::kGeneration, cycle_)
                                       .add("gen", core_->word_value(c.mon_gen_id, lk))
                                       .add("best_fit", core_->word_value(c.mon_best_fit, lk))
                                       .add("best_ind", core_->word_value(c.mon_best_ind, lk))
                                       .add("fit_sum", core_->word_value(c.mon_fit_sum, lk))
                                       .add("pop", core_->word_value(c.mon_pop_size, lk))
                                       .add("bank", std::uint64_t{bank}));
                }
                if (bank != l.prev_bank)
                    sink->on_event(lane_event(l, trace::kind::kBankSwap, cycle_)
                                       .add("bank", std::uint64_t{bank}));
            }
            // Barrier park: the pulse rise IS the monitor capture edge (E2
            // of the boundary), so gating the lane from the next cycle on
            // freezes it after the pre-migration snapshot and before the
            // elite write reaches the other bank — the exact window the RTL
            // island driver pokes GaMemory in.
            if (barrier_armed_ && !l.result.finished && pulse && !l.prev_pulse &&
                core_->word_value(core_src_->mon_gen_id, static_cast<unsigned>(lane)) ==
                    barrier_gen_) {
                l.parked = true;
                set(stall_, lane);
            }
            l.prev_pulse = pulse;
            l.prev_bank = bank;

            // Completion: GA_done rises at this edge (post-edge kDone).
            if (!l.result.finished) {
                if (l.started && ((done >> k) & 1u)) {
                    const auto lk = static_cast<unsigned>(lane);
                    BatchLaneResult& res = l.result;
                    res.finished = true;
                    res.best_fitness =
                        static_cast<std::uint16_t>(core_->word_value(core_src_->best_fit, lk));
                    res.best_candidate =
                        static_cast<std::uint16_t>(core_->word_value(core_src_->best_ind, lk));
                    res.generations =
                        static_cast<std::uint32_t>(core_->word_value(core_src_->gen_id, lk));
                    res.ga_cycles = cycle_ - l.start_cycle;
                    if (sink != nullptr)
                        sink->on_event(lane_event(l, trace::kind::kDone, cycle_)
                                           .add("best_fit", std::uint64_t{res.best_fitness})
                                           .add("best_ind", std::uint64_t{res.best_candidate})
                                           .add("gen", std::uint64_t{res.generations}));
                } else {
                    ++unfinished;
                }
            }
        }

        util::transpose64(dout);
        for (unsigned j = 0; j < 32; ++j) mdi_[j][w] = (dout[j] & ~held) | (mdi_[j][w] & held);
    }
    return unfinished;
}

/// Event envelope for lane telemetry: 50 MHz GA clock -> 20 ns/cycle,
/// counted from the lane's own reset.
trace::TraceEvent BatchGateRunner::lane_event(const Lane& l, const char* kind,
                                              std::uint64_t at) const {
    const std::uint64_t c = at - l.base;
    return trace::TraceEvent(kind, c * 20'000, c);
}

}  // namespace gaip::gates
