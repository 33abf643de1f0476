#include "system/ga_system.hpp"

#include <stdexcept>

#include "fitness/rom_builder.hpp"

namespace gaip::system {

GaSystem::GaSystem(GaSystemConfig cfg) : cfg_(std::move(cfg)) {
    const ClockTree clocks = make_clock_tree(kernel_);
    ga_clk_ = &clocks.ga_clk;
    app_clk_ = &clocks.app_clk;

    if (cfg_.use_gate_level_core) {
        gate_core_ = std::make_unique<gates::GateLevelGaCore>("ga_core_gates",
                                                              wires_.core_ports(),
                                                              cfg_.core_config);
    } else {
        core_ = std::make_unique<core::GaCore>("ga_core", wires_.core_ports(),
                                               cfg_.core_config);
    }
    if (cfg_.use_gate_level_core) {
        if (cfg_.rng_kind != prng::RngKind::kCellularAutomaton)
            throw std::invalid_argument(
                "GaSystem: the gate-level GA module only implements the CA RNG");
        gate_rng_ = std::make_unique<gates::GateLevelRngModule>(wires_.rng_ports());
    } else {
        rng_ = std::make_unique<prng::RngModule>(wires_.rng_ports(), cfg_.rng_kind);
    }
    memory_ = std::make_unique<mem::GaMemory>(wires_.memory_ports());
    mux_ = std::make_unique<fitness::FemMux>(wires_.mux_ports());

    // Internal FEM slots: either application-specific tables or the named
    // benchmark functions.
    std::vector<std::pair<std::string, std::shared_ptr<const mem::BlockRom>>> slots;
    if (!cfg_.custom_roms.empty()) {
        for (std::size_t i = 0; i < cfg_.custom_roms.size(); ++i)
            slots.emplace_back("fem_custom_" + std::to_string(i), cfg_.custom_roms[i]);
    } else {
        for (const fitness::FitnessId id : cfg_.internal_fems)
            slots.emplace_back("fem_" + fitness::fitness_name(id), fitness::fitness_rom(id));
    }
    if (slots.size() > fitness::kMaxFitnessSlots)
        throw std::invalid_argument("GaSystem: too many internal FEMs");
    for (std::size_t i = 0; i < slots.size(); ++i) {
        auto fem = std::make_unique<fitness::RomFitnessModule>(
            slots[i].first, wires_.slot_fem_ports(i), slots[i].second);
        mux_->set_slot(i, fitness::FemMuxSlot{&wires_.slots[i].request, &wires_.slots[i].value,
                                              &wires_.slots[i].valid});
        internal_fems_.push_back(std::move(fem));
    }
    if (cfg_.external_fem.has_value()) {
        external_fem_ = std::make_unique<fitness::RomFitnessModule>(
            "ext_fem_" + fitness::fitness_name(*cfg_.external_fem), wires_.external_fem_ports(),
            fitness::fitness_rom(*cfg_.external_fem),
            fitness::FemConfig{.extra_latency_cycles = cfg_.external_latency_cycles});
    }

    init_ = std::make_unique<InitModule>(
        InitModulePorts{wires_.ga_load, wires_.index, wires_.value, wires_.data_valid,
                        wires_.data_ack, init_done_});
    if (!cfg_.skip_initialization) {
        init_->program_parameters(cfg_.params);
        for (const auto& [index, value] : cfg_.extra_init_writes)
            init_->append_write(index, value);
    }

    app_ = std::make_unique<AppModule>(
        AppModulePorts{init_done_, wires_.start_ga, wires_.ga_done, wires_.candidate, app_done_});

    monitor_ = std::make_unique<GenerationMonitor>(
        MonitorPorts{wires_.mon_gen_pulse, wires_.mon_gen_id, wires_.mon_best_fit,
                     wires_.mon_best_ind, wires_.mon_fit_sum, wires_.mon_bank,
                     wires_.mon_pop_size},
        memory_.get(), cfg_.keep_populations);

    // Static pins.
    wires_.preset.drive(cfg_.preset & 0x3);
    wires_.fitfunc_select.drive(cfg_.fitfunc_select & 0x7);

    // Clock domain assignment per the paper's setup.
    if (gate_core_) {
        kernel_.bind(*gate_core_, *ga_clk_);
    } else {
        kernel_.bind(*core_, *ga_clk_);
    }
    if (gate_rng_) {
        kernel_.bind(*gate_rng_, *ga_clk_);
    } else {
        kernel_.bind(*rng_, *ga_clk_);
    }
    kernel_.bind(*memory_, *ga_clk_);
    kernel_.bind(*monitor_, *ga_clk_);
    kernel_.bind(*init_, *app_clk_);
    kernel_.bind(*app_, *app_clk_);
    for (auto& fem : internal_fems_) kernel_.bind(*fem, *app_clk_);
    if (external_fem_) kernel_.bind(*external_fem_, *app_clk_);
    kernel_.add_combinational(*mux_);

    if (!cfg_.vcd_path.empty()) {
        vcd_ = std::make_unique<trace::VcdWriter>(cfg_.vcd_path);
        if (core_) vcd_->add_module(*core_, "ga_system." + core_->name());
        if (rng_) vcd_->add_module(*rng_, "ga_system." + rng_->name());
        vcd_->add_module(*memory_, "ga_system." + memory_->name());
        // Top-level protocol nets — the waveform view of Figs. 8-12 (init
        // handshake, start pulse, fitness handshake, monitor taps).
        const std::string ports = "ga_system.ports";
        vcd_->add_wire(ports, "ga_load", wires_.ga_load, 1);
        vcd_->add_wire(ports, "index", wires_.index, 3);
        vcd_->add_wire(ports, "value", wires_.value);
        vcd_->add_wire(ports, "data_valid", wires_.data_valid, 1);
        vcd_->add_wire(ports, "data_ack", wires_.data_ack, 1);
        vcd_->add_wire(ports, "start_GA", wires_.start_ga, 1);
        vcd_->add_wire(ports, "GA_done", wires_.ga_done, 1);
        vcd_->add_wire(ports, "fitness_request", wires_.fit_request, 1);
        vcd_->add_wire(ports, "fitness_valid", wires_.fit_valid, 1);
        vcd_->add_wire(ports, "fitness_value", wires_.fit_value);
        vcd_->add_wire(ports, "candidate", wires_.candidate);
        vcd_->add_wire(ports, "rn", wires_.rn);
        vcd_->add_wire(ports, "preset", wires_.preset, 2);
        vcd_->add_wire(ports, "mon_gen_pulse", wires_.mon_gen_pulse, 1);
        vcd_->add_wire(ports, "mon_bank", wires_.mon_bank, 1);
        kernel_.add_observer(vcd_.get());
    }

    if (cfg_.trace_sink != nullptr || !cfg_.trace_path.empty()) {
        if (!cfg_.trace_path.empty()) {
            trace_file_ = std::make_unique<trace::JsonlSink>(cfg_.trace_path);
            trace_tee_.add(trace_file_.get());
        }
        trace_tee_.add(cfg_.trace_sink);
        tap_ = std::make_unique<trace::SystemTap>(
            trace::SystemTapPorts{wires_.ga_load, wires_.index, wires_.value,
                                  wires_.data_valid, wires_.data_ack, init_done_,
                                  wires_.start_ga, wires_.ga_done, wires_.preset,
                                  wires_.fit_request, wires_.fit_valid, wires_.fit_value,
                                  wires_.candidate, wires_.mon_gen_pulse, wires_.mon_gen_id,
                                  wires_.mon_best_fit, wires_.mon_fit_sum, wires_.mon_best_ind,
                                  wires_.mon_bank, wires_.mon_pop_size},
            &trace_tee_, &kernel_, ga_clk_, core_.get());
        // Bound to the fast peripheral clock: every GA edge coincides with
        // an app edge, so the tap sees every protocol transition.
        kernel_.bind(*tap_, *app_clk_);
    }
}

std::uint64_t GaSystem::fitness_evaluations() const noexcept {
    std::uint64_t n = 0;
    for (const auto& fem : internal_fems_) n += fem->evaluations();
    if (external_fem_) n += external_fem_->evaluations();
    return n;
}

std::vector<const fitness::RomFitnessModule*> GaSystem::fems() const {
    std::vector<const fitness::RomFitnessModule*> out;
    for (const auto& fem : internal_fems_) out.push_back(fem.get());
    if (external_fem_) out.push_back(external_fem_.get());
    return out;
}

core::RunResult GaSystem::run() {
    if (!start() || !run_to(core::kEnd, cycle_bound()).ok)
        throw std::runtime_error("GaSystem::run: did not complete within cycle bound");
    return finish();
}

bool GaSystem::start(const CycleFn& on_cycle) {
    kernel_.reset();
    // Static pins must be re-driven after reset (reset clears nothing, but
    // keep them authoritative in case a test poked them).
    wires_.preset.drive(cfg_.preset & 0x3);
    wires_.fitfunc_select.drive(cfg_.fitfunc_select & 0x7);
    prev_pulse_ = false;
    bool pulse_seen = false;
    for (std::uint64_t c = 0; c < kInitBound;) {
        if (state() == core::GaCore::State::kStart) return true;
        // One GA cycle, time point by time point: the GA counter starts at
        // the GA edge count the start pulse rose at, which may fall between
        // two GA edges.
        const std::uint64_t edge = ga_clk_->edges() + 1;
        while (ga_clk_->edges() < edge) {
            kernel_.step();
            if (!pulse_seen && wires_.start_ga.read()) {
                pulse_seen = true;
                start_edge_ = ga_clk_->edges();
            }
        }
        ++c;
        if (on_cycle) on_cycle(c);
    }
    return false;
}

core::Advance GaSystem::run_to(std::uint32_t g, std::uint64_t bound, const CycleFn& on_cycle) {
    core::Advance a;
    while (true) {
        if (done()) {
            // A core in kDone never pulses again: a generation target is missed.
            a.ok = g == core::kEnd;
            return a;
        }
        if (a.cycles >= bound) return a;
        ga_cycle();
        ++a.cycles;
        if (on_cycle) on_cycle(a.cycles);
        const bool pulse = wires_.mon_gen_pulse.read();
        const bool boundary = pulse && !prev_pulse_ && wires_.mon_gen_id.read() == g;
        prev_pulse_ = pulse;
        if (boundary) {
            // The pulse edge committed; one more edge commits the monitor
            // capture and leaves the memory quiescent for a poke.
            if (a.cycles >= bound) return a;
            ga_cycle();
            ++a.cycles;
            if (on_cycle) on_cycle(a.cycles);
            prev_pulse_ = wires_.mon_gen_pulse.read();
            a.ok = true;
            return a;
        }
    }
}

core::RunResult GaSystem::finish() {
    ga_cycles_ = ga_clk_->edges() - start_edge_;
    if (!kernel_.run_until(*app_clk_, [&] { return app_done_.read(); }, 10'000))
        throw std::runtime_error("GaSystem::finish: the application never took the result");
    trace_tee_.flush();

    core::RunResult result;
    result.best_candidate = best_candidate();
    result.best_fitness = best_fitness();
    result.evaluations = fitness_evaluations();
    result.history = monitor_->history();
    return result;
}

unsigned GaSystem::drain_start_pulse() {
    unsigned k = 0;
    for (; k < 32 && wires_.start_ga.read(); ++k) ga_cycle();
    return k;
}

std::uint32_t GaSystem::generation() const {
    return gate_core_ ? gate_core_->generation() : core_->generation();
}

core::GaCore::State GaSystem::state() const {
    return gate_core_ ? gate_core_->state() : core_->state();
}

std::vector<core::Member> GaSystem::population() const {
    const bool bank = wires_.mon_bank.read();
    std::vector<core::Member> out(wires_.mon_pop_size.read());
    for (std::size_t j = 0; j < out.size(); ++j) {
        const auto slot = static_cast<std::uint8_t>(j);
        out[j] = core::Member{memory_->candidate_at(bank, slot), memory_->fitness_at(bank, slot)};
    }
    return out;
}

void GaSystem::poke_member(std::size_t slot, core::Member m) {
    if (slot >= wires_.mon_pop_size.read())
        throw std::invalid_argument("GaSystem::poke_member: slot out of range");
    memory_->poke(mem::bank_address(wires_.mon_bank.read(), static_cast<std::uint8_t>(slot)),
                  mem::pack_member(m.candidate, m.fitness));
}

void GaSystem::flip_register_bit(const std::string& reg, unsigned bit) {
    if (!core_)
        throw std::logic_error("GaSystem::flip_register_bit: the gate-level core has no scan chain");
    rtl::ScanChain& chain = core_->scan_chain();
    chain.flip(chain.position_of(reg, bit));
    core_->input_changed();  // re-evaluate the Moore outputs pre-edge
}

std::uint64_t GaSystem::cycle_bound() const {
    return core::cycle_bound(core::resolve_parameters(cfg_.preset, cfg_.params),
                             4ull * cfg_.external_latency_cycles);
}

core::RunResult run_ga_system(const GaSystemConfig& cfg) {
    GaSystem sys(cfg);
    return sys.run();
}

}  // namespace gaip::system
