#include "gates/batch_runner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "fitness/rom_builder.hpp"
#include "mem/ga_memory.hpp"
#include "trace/vcd.hpp"

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

/// Calls f(k) for every set bit k of `bits`, lowest first.
template <typename F>
void for_each_bit(std::uint64_t bits, F&& f) {
    for (; bits != 0; bits &= bits - 1) f(static_cast<unsigned>(std::countr_zero(bits)));
}

/// Lane k's value of an N-bit signal held as lane-sliced rows (bit j of
/// the value = bit k of rows[j]), and the lanes of `among` that hold the
/// same value.
template <std::size_t N>
std::pair<std::uint32_t, std::uint64_t> match_lane(const std::uint64_t (&rows)[N], unsigned k,
                                                   std::uint64_t among) noexcept {
    std::uint32_t value = 0;
    for (unsigned j = 0; j < N; ++j) {
        const std::uint64_t b = (rows[j] >> k) & 1u;
        value |= static_cast<std::uint32_t>(b) << j;
        among &= rows[j] ^ (b - 1);  // rows[j] where lane k's bit is 1, ~rows[j] where 0
    }
    return {value, among};
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
    static_assert(kDataBits == mem::kGaMemoryDataBits);
    mem_.assign(mem::kGaMemoryDepth * kDataBits * words_, 0);

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
    live_ = stall_ = WordVec{};
    started_ = finished_ = prev_ack_ = prev_pulse_ = prev_bank_ = WordVec{};
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
    clear_lane_masks(lane);
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
    if (max_cycles == 0) max_cycles = default_cycle_bound();
    begin_run();
    if (!run_to(core::kEnd, max_cycles).ok)
        throw std::runtime_error("BatchGateRunner: lanes did not finish within bound");
    std::vector<BatchLaneResult> out;
    out.reserve(lanes_.size());
    for (const Lane& l : lanes_) out.push_back(l.result);
    return out;
}

core::Advance BatchGateRunner::run_to(std::uint32_t g, std::uint64_t bound) {
    stall_ = WordVec{};
    barrier_armed_ = g != core::kEnd;
    barrier_gen_ = g;
    core::Advance a;
    while (pending_lanes() > 0 && a.cycles < bound) {
        step_cycle();
        ++a.cycles;
    }
    a.ok = pending_lanes() == 0;
    return a;
}

std::size_t BatchGateRunner::pending_lanes() const noexcept {
    std::size_t n = 0;
    for (unsigned w = 0; w < words_; ++w)
        n += static_cast<std::size_t>(std::popcount(live_[w] & ~finished_[w] & ~stall_[w]));
    return n;
}

std::uint32_t BatchGateRunner::lane_generation(unsigned lane) const {
    check_lane(lane);
    return static_cast<std::uint32_t>(core_->word_value(core_src_->gen_id, lane));
}

std::vector<core::Member> BatchGateRunner::lane_population(unsigned lane) const {
    check_lane(lane);
    const bool bank = core_->value(core_src_->mon_bank, lane);
    std::vector<core::Member> out(core_->word_value(core_src_->mon_pop_size, lane));
    for (std::size_t j = 0; j < out.size(); ++j) {
        const std::uint32_t word =
            peek_lane_mem(lane, mem::bank_address(bank, static_cast<std::uint8_t>(j)));
        out[j] = core::Member{mem::member_candidate(word), mem::member_fitness(word)};
    }
    return out;
}

void BatchGateRunner::poke_lane_member(unsigned lane, std::size_t slot, core::Member m) {
    check_lane(lane);
    if (slot >= core_->word_value(core_src_->mon_pop_size, lane))
        throw std::invalid_argument("BatchGateRunner::poke_lane_member: slot out of range");
    poke_lane_mem(lane,
                  mem::bank_address(core_->value(core_src_->mon_bank, lane),
                                    static_cast<std::uint8_t>(slot)),
                  mem::pack_member(m.candidate, m.fitness));
}

std::uint32_t BatchGateRunner::peek_lane_mem(unsigned lane, std::uint8_t addr) const {
    check_lane(lane);
    const unsigned w = lane / kWordBits, k = lane % kWordBits;
    std::uint32_t word = 0;
    for (unsigned j = 0; j < kDataBits; ++j)
        word |= static_cast<std::uint32_t>((mem_[mem_row(addr, j, w)] >> k) & 1u) << j;
    return word;
}

void BatchGateRunner::poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word) {
    check_lane(lane);
    const unsigned w = lane / kWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (lane % kWordBits);
    for (unsigned j = 0; j < kDataBits; ++j) {
        std::uint64_t& row = mem_[mem_row(addr, j, w)];
        row = ((word >> j) & 1u) ? (row | bit) : (row & ~bit);
    }
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
    const auto w = static_cast<unsigned>(lane / kWordBits);
    const std::uint64_t keep = ~(std::uint64_t{1} << (lane % kWordBits));
    for (std::size_t i = w; i < mem_.size(); i += words_) mem_[i] &= keep;
}

void BatchGateRunner::clear_lane_masks(std::size_t lane) {
    for (WordVec* v : {&stall_, &started_, &finished_, &prev_ack_, &prev_pulse_, &prev_bank_})
        clear(*v, lane);
}

void BatchGateRunner::begin_run() {
    cycle_ = 0;
    stall_ = WordVec{};
    barrier_armed_ = false;
    barrier_gen_ = 0;
    reset_ = WordVec{};
    reset_high_ = false;
    handshake_quiet_ = false;
    started_ = finished_ = prev_ack_ = prev_pulse_ = prev_bank_ = WordVec{};
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
    // streams line up across substrates; run_to() watches the same pulse
    // to spot lanes entering their kGenCheck boundary.
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

const std::uint16_t* BatchGateRunner::fem_table(fitness::FitnessId fn) {
    std::shared_ptr<const mem::BlockRom>& rom = roms_[static_cast<std::size_t>(fn)];
    if (!rom) rom = fitness::fitness_rom(fn);
    return rom->words().data();
}

/// Same-cycle FEM, matching the RT-level system where the 200 MHz FEM
/// answers inside one 50 MHz core cycle: fit_valid combinationally tracks
/// fit_request. fit_request and candidate are Moore outputs, so sampling
/// them after the settle and driving the response back is loop-free; the
/// re-settle runs only the fit_valid/fit_value fanout cone. The value is
/// the fitness ROM word at the candidate, as in the FEM's block ROM.
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
        const std::size_t lane_base = std::size_t{w} * kWordBits;
        std::uint64_t cand[16];
        for (unsigned j = 0; j < 16; ++j) cand[j] = core_->read_word(hc_cand_[j], w);
        // One ROM read per group of requesting lanes with the same
        // candidate and fitness function; its bits go out as masks.
        for (std::uint64_t left = req[w]; left != 0;) {
            const unsigned k = static_cast<unsigned>(std::countr_zero(left));
            const auto [c, m] = match_lane(cand, k, left);
            const fitness::FitnessId fn = lanes_[lane_base + k].fn;
            std::uint64_t group = 0;
            for_each_bit(m, [&](unsigned i) {
                Lane& l = lanes_[lane_base + i];
                if (l.fn != fn) return;
                group |= std::uint64_t{1} << i;
                ++l.result.evaluations;
            });
            left &= ~group;
            const std::uint16_t value = fem_table(fn)[c];
            for (unsigned j = 0; j < 16; ++j)
                if ((value >> j) & 1u) fitv_w[j][w] |= group;
        }
        if (!tracing_) continue;
        for_each_bit(req[w], [&](unsigned k) {
            trace::TraceSink* sink = lane_sinks_[lane_base + k];
            if (sink == nullptr) return;
            const Lane& l = lanes_[lane_base + k];
            const std::uint64_t c = match_lane(cand, k, 0).first;
            const std::uint64_t value = fem_table(l.fn)[c];
            // Request and value share one cycle here; the stream order
            // (request then value, one pair per evaluation) matches the
            // RT-level tap.
            sink->on_event(
                lane_event(l, trace::kind::kFemRequest, cycle_ + 1).add("candidate", c));
            sink->on_event(lane_event(l, trace::kind::kFemValue, cycle_ + 1)
                               .add("candidate", c)
                               .add("value", value));
        });
    }
    drive_core(hc_fit_valid_, req);
    for (unsigned j = 0; j < 16; ++j) drive_core(hc_fit_value_[j], fitv_w[j]);
    core_->eval_cone(fit_cone_);
}

void BatchGateRunner::access_memory(unsigned w, std::uint64_t act, std::uint64_t wr,
                                    std::array<std::uint64_t, kDataBits>& dout) {
    // mem_address / mem_data_out are combinational in registers only, so
    // their slots still hold the pre-edge values the RAM samples.
    std::uint64_t addr_rows[8];
    for (unsigned j = 0; j < 8; ++j) addr_rows[j] = core_->read_word(hc_addr_[j], w);
    std::uint64_t wdata[kDataBits];
    if (wr != 0)
        for (unsigned j = 0; j < kDataBits; ++j) wdata[j] = core_->read_word(hc_mdo_[j], w);
    while (act != 0) {
        // The lowest remaining lane's address, and every remaining lane
        // that presents the same one.
        const auto k = static_cast<unsigned>(std::countr_zero(act));
        const auto [addr, m] = match_lane(addr_rows, k, act);
        act &= ~m;
        std::uint64_t* const row = &mem_[mem_row(addr, 0, w)];
        const std::uint64_t wm = wr & m;
        for (unsigned j = 0; j < kDataBits; ++j) {
            std::uint64_t& r = row[std::size_t{j} * words_];
            if (wm != 0) r = (r & ~wm) | (wdata[j] & wm);
            dout[j] |= r & m;
        }
    }
}

/// Init-handshake FSM, then the two-cycle start pulse, of the active lanes
/// of word `w` (called only while some lane is in either).
void BatchGateRunner::step_handshake(unsigned w, std::uint64_t act, std::uint64_t ack) {
    for_each_bit(act, [&](unsigned k) {
        Lane& l = lanes_[std::size_t{w} * kWordBits + k];
        const bool a = (ack >> k) & 1u;
        if (!l.init_done) {
            if (l.init_asserting) {
                if (a) l.init_asserting = false;
            } else if (!a) {
                if (++l.init_item >= l.program.size()) {
                    l.init_done = true;
                    l.start_hold = 2;
                } else {
                    l.init_asserting = true;
                }
            }
        } else if (l.start_hold > 0) {
            if (!((started_[w] >> k) & 1u)) {
                started_[w] |= std::uint64_t{1} << k;
                l.start_cycle = cycle_ - 1;
            }
            --l.start_hold;
        }
    });
}

/// Telemetry of the active lanes of word `w` with a sink, in lane order
/// and, per lane, in the RT-level tap's order. `ack`, `rise`, `bank` are
/// this edge's samples (pulse already edge-detected); `fin` holds the
/// lanes that completed at it.
void BatchGateRunner::emit_lane_events(unsigned w, std::uint64_t act, std::uint64_t ack,
                                       std::uint64_t rise, std::uint64_t bank,
                                       std::uint64_t fin) {
    const std::uint64_t ack_rise = ack & ~prev_ack_[w];
    const std::uint64_t bank_edge = bank ^ prev_bank_[w];
    for_each_bit(act, [&](unsigned k) {
        const std::size_t lane = std::size_t{w} * kWordBits + k;
        trace::TraceSink* sink = lane_sinks_[lane];
        if (sink == nullptr) return;
        Lane& l = lanes_[lane];
        const auto lk = static_cast<unsigned>(lane);
        const GaCoreNetlist& c = *core_src_;
        if ((ack_rise >> k) & 1u) {
            // The handshake FSM leaves init_item alone while ack is high.
            const auto& [idx, val] = l.program[l.init_item];
            sink->on_event(lane_event(l, trace::kind::kInitWrite, cycle_)
                               .add("index", std::uint64_t{idx})
                               .add("value", std::uint64_t{val}));
        }
        if (l.init_done && !l.init_done_traced) {
            l.init_done_traced = true;
            sink->on_event(lane_event(l, trace::kind::kInitDone, cycle_));
        }
        if (((started_[w] >> k) & 1u) && !l.start_traced) {
            l.start_traced = true;
            sink->on_event(lane_event(l, trace::kind::kStart, cycle_));
        }
        const std::uint64_t b = (bank >> k) & 1u;
        if ((rise >> k) & 1u)
            sink->on_event(lane_event(l, trace::kind::kGeneration, cycle_)
                               .add("gen", core_->word_value(c.mon_gen_id, lk))
                               .add("best_fit", core_->word_value(c.mon_best_fit, lk))
                               .add("best_ind", core_->word_value(c.mon_best_ind, lk))
                               .add("fit_sum", core_->word_value(c.mon_fit_sum, lk))
                               .add("pop", core_->word_value(c.mon_pop_size, lk))
                               .add("bank", b));
        if ((bank_edge >> k) & 1u)
            sink->on_event(lane_event(l, trace::kind::kBankSwap, cycle_).add("bank", b));
        if ((fin >> k) & 1u) {
            const BatchLaneResult& res = l.result;
            sink->on_event(lane_event(l, trace::kind::kDone, cycle_)
                               .add("best_fit", std::uint64_t{res.best_fitness})
                               .add("best_ind", std::uint64_t{res.best_candidate})
                               .add("gen", std::uint64_t{res.generations}));
        }
    });
}

/// Post-edge pass, one lane-block word at a time and on whole masks: GA
/// memory, init handshake and start pulse, telemetry, boundary parking
/// and completion.
std::size_t BatchGateRunner::advance_lanes(const WordVec& data_ack_w, const WordVec& mem_wr_w,
                                           const WordVec& mon_pulse_w,
                                           const WordVec& mon_bank_w) {
    std::size_t unfinished = 0;
    for (unsigned w = 0; w < words_; ++w) {
        const std::uint64_t live = live_[w];
        if (live == 0) {
            for (WordVec& row : mdi_) row[w] = 0;
            continue;
        }
        const std::size_t lane_base = std::size_t{w} * kWordBits;
        // The reset edge just landed in these lanes: their own clock starts.
        const std::uint64_t reset = live & reset_[w];
        for_each_bit(reset, [&](unsigned k) { lanes_[lane_base + k].base = cycle_; });
        // Lanes parked before this edge are frozen at their boundary:
        // peripherals and edge detectors hold, the lane accrues stall time
        // and keeps its read data.
        const std::uint64_t held = stall_[w];
        for_each_bit(live & held & ~reset,
                     [&](unsigned k) { ++lanes_[lane_base + k].stall_cycles; });
        const std::uint64_t act = live & ~reset & ~held;

        // GA memory (write-first synchronous RAM); lanes without a job
        // (free, unconfigured, in reset) read 0.
        std::array<std::uint64_t, kDataBits> dout{};
        if (act != 0) access_memory(w, act, mem_wr_w[w] & act, dout);
        for (unsigned j = 0; j < kDataBits; ++j)
            mdi_[j][w] = (dout[j] & ~held) | (mdi_[j][w] & held);

        const std::uint64_t ack = data_ack_w[w] & act;
        if (!handshake_quiet_) step_handshake(w, act, ack);

        const std::uint64_t pulse = mon_pulse_w[w] & act;
        const std::uint64_t rise = pulse & ~prev_pulse_[w];
        // Boundary park: the pulse rise IS the monitor capture edge (E2 of
        // the boundary), so gating the lane from the next cycle on freezes
        // it after the pre-migration snapshot and before the elite write
        // reaches the other bank — the point where GaSystem::run_to()
        // parks the RT-level system.
        if (barrier_armed_)
            for_each_bit(rise & ~finished_[w], [&](unsigned k) {
                const auto lk = static_cast<unsigned>(lane_base + k);
                if (core_->word_value(core_src_->mon_gen_id, lk) == barrier_gen_)
                    stall_[w] |= std::uint64_t{1} << k;
            });

        // Completion: GA_done rises at this edge (post-edge kDone).
        std::uint64_t fin = act & started_[w] & ~finished_[w];
        if (fin != 0) {
            for (unsigned j = 0; j < 6; ++j) {
                const std::uint64_t row = core_->read_word(hc_state_[j], w);
                fin &= ((kDoneState >> j) & 1u) ? row : ~row;
            }
            finished_[w] |= fin;
            for_each_bit(fin, [&](unsigned k) {
                const auto lk = static_cast<unsigned>(lane_base + k);
                Lane& l = lanes_[lk];
                BatchLaneResult& res = l.result;
                res.finished = true;
                res.best_fitness =
                    static_cast<std::uint16_t>(core_->word_value(core_src_->best_fit, lk));
                res.best_candidate =
                    static_cast<std::uint16_t>(core_->word_value(core_src_->best_ind, lk));
                res.generations =
                    static_cast<std::uint32_t>(core_->word_value(core_src_->gen_id, lk));
                res.ga_cycles = cycle_ - l.start_cycle;
            });
        }

        const std::uint64_t bank = mon_bank_w[w] & act;
        if (tracing_) emit_lane_events(w, act, ack, rise, bank, fin);
        prev_ack_[w] = (prev_ack_[w] & ~act) | ack;
        prev_pulse_[w] = (prev_pulse_[w] & ~act) | pulse;
        prev_bank_[w] = (prev_bank_[w] & ~act) | bank;
        unfinished += static_cast<std::size_t>(std::popcount(live & ~finished_[w]));
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
