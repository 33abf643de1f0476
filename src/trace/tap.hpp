// SystemTap: a passive Module that turns the wires of a running GA system
// into the structured telemetry stream (trace/event.hpp). The model's
// equivalent of the ChipScope ILA + software monitors the authors attached:
// it samples on its clock edges (bind it to the fast peripheral clock so no
// protocol edge is missed), performs edge detection in plain simulator
// state, and emits one TraceEvent per protocol step:
//
//   init_write   one parameter write of the Sec. III-B.6 handshake
//   init_done    initialization module finished
//   start        start_GA pulse
//   preset       PRESET pins changed (the fault-recovery fallback path)
//   fem_request  fitness request rose (candidate on the bus)
//   fem_value    fitness valid rose (value on the bus)
//   generation   monitor pulse: per-generation stats incl. op counters
//   bank_swap    population bank toggled
//   done         GA_done rose
//
// The tap is only instantiated when a sink is configured (GaSystemConfig
// ::trace_sink / ::trace_path), so tracing costs nothing when off. While
// the sink wants no events (TraceSink::wants_events, e.g. a gaipd job
// nobody streams) the tap only tracks its edges and counter snapshots. It
// senses its 20 ports and declares a pure tick (rtl::Module), so the
// kernel ticks it only on edges after one of them moved.
#pragma once

#include <cstdint>

#include "core/ga_core.hpp"
#include "rtl/clock.hpp"
#include "rtl/kernel.hpp"
#include "rtl/module.hpp"
#include "trace/event.hpp"

namespace gaip::trace {

/// The nets the tap observes (a subset of system::CoreWireBundle, taken as
/// individual references so the trace layer does not depend on src/system).
struct SystemTapPorts {
    // init handshake bus
    rtl::Wire<bool>& ga_load;
    rtl::Wire<std::uint8_t>& index;
    rtl::Wire<std::uint16_t>& value;
    rtl::Wire<bool>& data_valid;
    rtl::Wire<bool>& data_ack;
    rtl::Wire<bool>& init_done;

    // control
    rtl::Wire<bool>& start_ga;
    rtl::Wire<bool>& ga_done;
    rtl::Wire<std::uint8_t>& preset;

    // fitness handshake (core side, post-mux)
    rtl::Wire<bool>& fit_request;
    rtl::Wire<bool>& fit_valid;
    rtl::Wire<std::uint16_t>& fit_value;
    rtl::Wire<std::uint16_t>& candidate;

    // monitor taps
    rtl::Wire<bool>& mon_gen_pulse;
    rtl::Wire<std::uint32_t>& mon_gen_id;
    rtl::Wire<std::uint16_t>& mon_best_fit;
    rtl::Wire<std::uint32_t>& mon_fit_sum;
    rtl::Wire<std::uint16_t>& mon_best_ind;
    rtl::Wire<bool>& mon_bank;
    rtl::Wire<std::uint8_t>& mon_pop_size;
};

class SystemTap final : public rtl::Module {
public:
    /// `core` (optional) supplies the crossover/mutation/RNG-draw counters
    /// for generation events; pass nullptr for gate-level cores, which do
    /// not expose them. `kernel`/`ga_clk` stamp events with time and the
    /// GA-cycle count.
    SystemTap(SystemTapPorts ports, TraceSink* sink, const rtl::Kernel* kernel,
              const rtl::Clock* ga_clk, const core::GaCore* core = nullptr);

    void tick() override;
    void reset_state() override;

    std::uint64_t events_emitted() const noexcept { return emitted_; }

private:
    TraceEvent make(const char* kind) const;
    void emit(TraceEvent e);

    SystemTapPorts p_;
    TraceSink* sink_;
    const rtl::Kernel* kernel_;
    const rtl::Clock* ga_clk_;
    const core::GaCore* core_;

    // Edge detectors / previous samples (plain simulator state, not Regs:
    // the tap must not alter the design's flip-flop or scan-chain census).
    bool prev_ack_ = false;
    bool prev_init_done_ = false;
    bool prev_start_ = false;
    bool prev_req_ = false;
    bool prev_valid_ = false;
    bool prev_pulse_ = false;
    bool prev_bank_ = false;
    bool prev_done_ = false;
    bool preset_seen_ = false;
    std::uint8_t prev_preset_ = 0;

    // Counter snapshots for per-generation deltas.
    std::uint64_t last_rng_draws_ = 0;
    std::uint64_t last_crossovers_ = 0;
    std::uint64_t last_mutations_ = 0;

    std::uint64_t emitted_ = 0;
};

}  // namespace gaip::trace
