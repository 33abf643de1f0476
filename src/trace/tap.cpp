#include "trace/tap.hpp"

namespace gaip::trace {

SystemTap::SystemTap(SystemTapPorts ports, TraceSink* sink, const rtl::Kernel* kernel,
                     const rtl::Clock* ga_clk, const core::GaCore* core)
    : Module("system_tap"), p_(ports), sink_(sink), kernel_(kernel), ga_clk_(ga_clk),
      core_(core) {
    // No eval(): purely a sampling tap on its clock edges. The edge
    // detectors hold the last sampled inputs, so a tick with no changed port
    // emits nothing and changes nothing — the kernel skips it.
    sense(p_.ga_load, p_.index, p_.value, p_.data_valid, p_.data_ack, p_.init_done,
          p_.start_ga, p_.ga_done, p_.preset, p_.fit_request, p_.fit_valid, p_.fit_value,
          p_.candidate, p_.mon_gen_pulse, p_.mon_gen_id, p_.mon_best_fit, p_.mon_fit_sum,
          p_.mon_best_ind, p_.mon_bank, p_.mon_pop_size);
    pure_tick();
}

void SystemTap::reset_state() {
    prev_ack_ = prev_init_done_ = prev_start_ = prev_req_ = prev_valid_ = false;
    prev_pulse_ = prev_bank_ = prev_done_ = false;
    preset_seen_ = false;
    prev_preset_ = 0;
    last_rng_draws_ = last_crossovers_ = last_mutations_ = 0;
}

TraceEvent SystemTap::make(const char* kind) const {
    return TraceEvent(kind, kernel_ != nullptr ? kernel_->now() : 0,
                      ga_clk_ != nullptr ? ga_clk_->edges() : 0);
}

void SystemTap::emit(TraceEvent e) {
    sink_->on_event(e);
    ++emitted_;
}

void SystemTap::tick() {
    if (sink_ == nullptr) return;

    // An edge builds its event only while the sink wants it; the edge
    // detectors and counter snapshots advance regardless, so a sink that
    // starts wanting events mid-run gets the stream from that point on.
    const auto on = [this] { return sink_->wants_events(); };

    // Fixed check order = deterministic intra-cycle event order: handshake
    // first, then control, then fitness, then generation bookkeeping.
    const bool ack = p_.data_ack.read();
    if (ack && !prev_ack_ && on()) {
        emit(make(kind::kInitWrite)
                 .add("index", static_cast<std::uint64_t>(p_.index.read()))
                 .add("value", static_cast<std::uint64_t>(p_.value.read())));
    }
    prev_ack_ = ack;

    const bool idone = p_.init_done.read();
    if (idone && !prev_init_done_ && on()) emit(make(kind::kInitDone));
    prev_init_done_ = idone;

    const bool start = p_.start_ga.read();
    if (start && !prev_start_ && on()) emit(make(kind::kStart));
    prev_start_ = start;

    const std::uint8_t preset = p_.preset.read();
    if (preset_seen_ && preset != prev_preset_ && on()) {
        emit(make(kind::kPreset)
                 .add("preset", static_cast<std::uint64_t>(preset))
                 .add("was", static_cast<std::uint64_t>(prev_preset_)));
    }
    prev_preset_ = preset;
    preset_seen_ = true;

    const bool req = p_.fit_request.read();
    if (req && !prev_req_ && on()) {
        emit(make(kind::kFemRequest)
                 .add("candidate", static_cast<std::uint64_t>(p_.candidate.read())));
    }
    prev_req_ = req;

    const bool valid = p_.fit_valid.read();
    if (valid && !prev_valid_ && on()) {
        emit(make(kind::kFemValue)
                 .add("candidate", static_cast<std::uint64_t>(p_.candidate.read()))
                 .add("value", static_cast<std::uint64_t>(p_.fit_value.read())));
    }
    prev_valid_ = valid;

    const bool pulse = p_.mon_gen_pulse.read();
    if (pulse && !prev_pulse_) {
        if (on()) {
            TraceEvent e = make(kind::kGeneration);
            e.add("gen", static_cast<std::uint64_t>(p_.mon_gen_id.read()))
                .add("best_fit", static_cast<std::uint64_t>(p_.mon_best_fit.read()))
                .add("best_ind", static_cast<std::uint64_t>(p_.mon_best_ind.read()))
                .add("fit_sum", static_cast<std::uint64_t>(p_.mon_fit_sum.read()))
                .add("pop", static_cast<std::uint64_t>(p_.mon_pop_size.read()))
                .add("bank", static_cast<std::uint64_t>(p_.mon_bank.read() ? 1 : 0));
            // Per-generation operation counts (deltas of the core's
            // simulator-side totals).
            if (core_ != nullptr)
                e.add("rng_draws", core_->rng_draws() - last_rng_draws_)
                    .add("crossovers", core_->crossovers() - last_crossovers_)
                    .add("mutations", core_->mutations() - last_mutations_);
            emit(std::move(e));
        }
        if (core_ != nullptr) {
            last_rng_draws_ = core_->rng_draws();
            last_crossovers_ = core_->crossovers();
            last_mutations_ = core_->mutations();
        }
    }
    prev_pulse_ = pulse;

    const bool bank = p_.mon_bank.read();
    if (bank != prev_bank_ && on()) {
        emit(make(kind::kBankSwap).add("bank", static_cast<std::uint64_t>(bank ? 1 : 0)));
    }
    prev_bank_ = bank;

    const bool done = p_.ga_done.read();
    if (done && !prev_done_ && on()) {
        emit(make(kind::kDone)
                 .add("best_fit", static_cast<std::uint64_t>(p_.mon_best_fit.read()))
                 .add("best_ind", static_cast<std::uint64_t>(p_.mon_best_ind.read()))
                 .add("gen", static_cast<std::uint64_t>(p_.mon_gen_id.read())));
    }
    prev_done_ = done;
}

}  // namespace gaip::trace
