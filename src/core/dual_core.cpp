#include "core/dual_core.hpp"

#include <cmath>
#include <stdexcept>

#include "mem/ga_memory.hpp"
#include "system/dcm.hpp"

namespace gaip::core {

std::uint8_t split_threshold_for_rate32(double target_rate32) noexcept {
    if (target_rate32 <= 0.0) return 0;
    if (target_rate32 >= 1.0) return 15;
    // Equal per-half rates p with p + p - p^2 == target  =>  p = 1 - sqrt(1-t)
    const double p = 1.0 - std::sqrt(1.0 - target_rate32);
    const double t = std::floor(p * 16.0);
    return static_cast<std::uint8_t>(t < 0 ? 0 : (t > 15 ? 15 : t));
}

// ---------------------------------------------------------------- memory --

DualGaMemory::DualGaMemory(Ports ports)
    : Module("dual_ga_memory"), p_(ports), mem_(mem::kGaMemoryDepth, 0) {
    attach(dout_reg_);
}

void DualGaMemory::eval() {
    const std::uint64_t w = dout_reg_.read();
    const auto fit = static_cast<std::uint16_t>((w >> 32) & 0xFFFF);
    const auto msb = static_cast<std::uint16_t>((w >> 16) & 0xFFFF);
    const auto lsb = static_cast<std::uint16_t>(w & 0xFFFF);
    p_.dout1.drive(mem::pack_member(msb, fit));
    // scalingLogic_parSel read path: the LSB core always sees zero fitness,
    // so its selection scan can never terminate on its own.
    p_.dout2.drive(mem::pack_member(lsb, 0));
}

void DualGaMemory::tick() {
    const std::size_t a = p_.addr.read();
    if (p_.write.read()) {
        const std::uint32_t d1 = p_.data1.read();
        const std::uint32_t d2 = p_.data2.read();
        const std::uint64_t word = (static_cast<std::uint64_t>(d1 >> 16) << 32) |
                                   (static_cast<std::uint64_t>(d1 & 0xFFFF) << 16) |
                                   (d2 & 0xFFFF);
        mem_.at(a) = word;
        dout_reg_.load(word);
    } else {
        dout_reg_.load(mem_.at(a));
    }
}

void DualGaMemory::reset_state() { std::fill(mem_.begin(), mem_.end(), 0); }

std::uint32_t DualGaMemory::candidate32_at(bool bank, std::uint8_t idx) const {
    const std::uint64_t w = mem_.at(mem::bank_address(bank, idx));
    return static_cast<std::uint32_t>(w & 0xFFFFFFFFu);
}

std::uint16_t DualGaMemory::fitness_at(bool bank, std::uint8_t idx) const {
    return static_cast<std::uint16_t>((mem_.at(mem::bank_address(bank, idx)) >> 32) & 0xFFFF);
}

// ----------------------------------------------------------------- fem32 --

Fem32::Fem32(Ports ports, FitnessFn32 fn) : Module("fem32"), p_(ports), fn_(std::move(fn)) {
    if (!fn_) throw std::invalid_argument("Fem32: null fitness function");
    attach_all(state_, cand_, value_);
}

void Fem32::eval() {
    const State s = state_.read();
    const bool valid = (s == State::kPresent || s == State::kWaitDrop);
    p_.fit_valid1.drive(valid);
    p_.fit_valid2.drive(valid);
    p_.fit_value1.drive(value_.read());
    p_.fit_value2.drive(value_.read());
}

void Fem32::tick() {
    switch (state_.read()) {
        case State::kIdle:
            if (p_.fit_request.read()) {
                cand_.load((static_cast<std::uint32_t>(p_.cand_msb.read()) << 16) |
                           p_.cand_lsb.read());
                state_.load(State::kLookup);
            }
            break;
        case State::kLookup:
            value_.load(fn_(cand_.read()));
            state_.load(State::kPresent);
            break;
        case State::kPresent:
            ++evaluations_;
            state_.load(State::kWaitDrop);
            break;
        case State::kWaitDrop:
            if (!p_.fit_request.read()) state_.load(State::kIdle);
            break;
    }
}

// ---------------------------------------------------------------- system --

DualGaSystem::DualGaSystem(DualGaConfig cfg) : cfg_(std::move(cfg)) {
    if (!cfg_.fitness) throw std::invalid_argument("DualGaSystem: fitness function required");

    const system::ClockTree clocks = system::make_clock_tree(kernel_);
    ga_clk_ = &clocks.ga_clk;
    app_clk_ = &clocks.app_clk;

    // Slot 0 internal on both cores (the Fem32 answers on the internal pair).
    const GaCoreConfig core_cfg{.external_slot_mask = 0x00};
    core1_ = std::make_unique<GaCore>("ga_core_msb", w1_.core_ports(), core_cfg);
    core2_ = std::make_unique<GaCore>("ga_core_lsb", w2_.core_ports(), core_cfg);
    rng1_ = std::make_unique<prng::RngModule>(w1_.rng_ports());
    rng2_ = std::make_unique<prng::RngModule>(w2_.rng_ports());

    memory_ = std::make_unique<DualGaMemory>(DualGaMemory::Ports{
        w1_.mem_address, w1_.mem_wr, w1_.mem_data_out, w2_.mem_data_out, w1_.mem_data_in,
        w2_.mem_data_in});

    glue_ = std::make_unique<DualGlue>(DualGlue::Ports{w1_.start_ga, w2_.start_ga, w1_.sel_found,
                                                       w2_.sel_force_found, init_done1_,
                                                       init_done2_, init_done_both_});

    fem_ = std::make_unique<Fem32>(
        Fem32::Ports{w1_.fit_request, w1_.candidate, w2_.candidate, w1_.fit_value, w1_.fit_valid,
                     w2_.fit_value, w2_.fit_valid},
        cfg_.fitness);

    init1_ = std::make_unique<system::InitModule>(system::InitModulePorts{
        w1_.ga_load, w1_.index, w1_.value, w1_.data_valid, w1_.data_ack, init_done1_});
    init1_->program_parameters(GaParameters{.pop_size = cfg_.pop_size, .n_gens = cfg_.n_gens,
                                            .xover_threshold = cfg_.xover_threshold_msb,
                                            .mut_threshold = cfg_.mut_threshold_msb,
                                            .seed = cfg_.seed_msb});
    init2_ = std::make_unique<system::InitModule>(system::InitModulePorts{
        w2_.ga_load, w2_.index, w2_.value, w2_.data_valid, w2_.data_ack, init_done2_});
    init2_->program_parameters(GaParameters{.pop_size = cfg_.pop_size, .n_gens = cfg_.n_gens,
                                            .xover_threshold = cfg_.xover_threshold_lsb,
                                            .mut_threshold = cfg_.mut_threshold_lsb,
                                            .seed = cfg_.seed_lsb});

    app_ = std::make_unique<system::AppModule>(system::AppModulePorts{
        init_done_both_, w1_.start_ga, w1_.ga_done, w1_.candidate, app_done_});

    kernel_.bind(*core1_, *ga_clk_);
    kernel_.bind(*core2_, *ga_clk_);
    kernel_.bind(*rng1_, *ga_clk_);
    kernel_.bind(*rng2_, *ga_clk_);
    kernel_.bind(*memory_, *ga_clk_);
    kernel_.bind(*fem_, *app_clk_);
    kernel_.bind(*init1_, *app_clk_);
    kernel_.bind(*init2_, *app_clk_);
    kernel_.bind(*app_, *app_clk_);
    kernel_.add_combinational(*glue_);
}

DualRunResult DualGaSystem::run() {
    kernel_.reset();

    const std::uint64_t max_app_edges =
        cycle_bound(GaParameters{.pop_size = cfg_.pop_size, .n_gens = cfg_.n_gens}) * 4;

    std::uint64_t start_edge = 0;
    bool start_seen = false;
    std::uint64_t done_edge = 0;
    bool done_seen = false;

    const bool finished = kernel_.run_until(
        *app_clk_,
        [&] {
            if (!start_seen && w1_.start_ga.read()) {
                start_seen = true;
                start_edge = ga_clk_->edges();
            }
            if (start_seen && !done_seen && w1_.ga_done.read()) {
                done_seen = true;
                done_edge = ga_clk_->edges();
            }
            return app_done_.read();
        },
        max_app_edges);
    if (!finished)
        throw std::runtime_error("DualGaSystem::run: did not complete within cycle bound");

    DualRunResult r;
    r.best_candidate = (static_cast<std::uint32_t>(core1_->best_candidate()) << 16) |
                       core2_->best_candidate();
    r.best_fitness = core1_->best_fitness();
    r.evaluations = fem_->evaluations();
    r.ga_cycles = done_seen ? done_edge - start_edge : 0;
    return r;
}

}  // namespace gaip::core
