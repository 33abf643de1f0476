// Application module: the target-application side of the handshakes. Waits
// for the initialization module to finish, issues the start_GA pulse
// (stretched across the 200->50 MHz domain crossing), waits for GA_done and
// latches the delivered best candidate. Supports repeated runs for the
// adaptive (EHW-style) scenarios where the application re-invokes the GA
// whenever the environment drifts.
#pragma once

#include <cstdint>

#include "rtl/module.hpp"

namespace gaip::system {

struct AppModulePorts {
    rtl::Wire<bool>& init_done;   // in
    rtl::Wire<bool>& start_ga;    // out
    rtl::Wire<bool>& ga_done;     // in
    rtl::Wire<std::uint16_t>& candidate;  // in
    rtl::Wire<bool>& app_done;    // out
};

class AppModule final : public rtl::Module {
public:
    explicit AppModule(AppModulePorts ports) : Module("app_module"), p_(ports) {
        attach_all(state_, hold_, result_);
        // eval() reads the FSM state register only; tick() reads the three
        // inputs besides (and restart_pending_, whose setter wakes it).
        sense(p_.init_done, p_.ga_done, p_.candidate);
        pure_tick();
    }

    void eval() override {
        p_.start_ga.drive(state_.read() == State::kStart);
        p_.app_done.drive(state_.read() == State::kDone);
    }

    void tick() override {
        switch (state_.read()) {
            case State::kWaitInit:
                if (p_.init_done.read()) {
                    hold_.load(kStartHoldCycles);
                    state_.load(State::kStart);
                }
                break;
            case State::kStart:
                // Hold start_GA long enough for the slow domain to sample it.
                if (hold_.read() > 0) {
                    hold_.load(static_cast<std::uint8_t>(hold_.read() - 1));
                } else {
                    state_.load(State::kWaitDone);
                }
                break;
            case State::kWaitDone:
                if (p_.ga_done.read()) {
                    result_.load(p_.candidate.read());
                    state_.load(State::kDone);
                } else if (restart_pending_) {
                    // Supervisor watchdog path: GA_done never came (e.g. an
                    // SEU corrupted the run) and the application re-issues
                    // the start pulse — typically after selecting a PRESET
                    // mode so the rerun cannot depend on corrupted state.
                    restart_pending_ = false;
                    hold_.load(kStartHoldCycles);
                    state_.load(State::kStart);
                }
                break;
            case State::kDone:
                if (restart_pending_) {
                    restart_pending_ = false;
                    hold_.load(kStartHoldCycles);
                    state_.load(State::kStart);
                }
                break;
        }
    }

    void reset_state() override { restart_pending_ = false; }

    bool done() const noexcept { return state_.read() == State::kDone; }
    std::uint16_t result() const noexcept { return result_.read(); }

    /// Software request (from the scenario driver) to run the GA again.
    /// Honored from kDone (adaptive re-invocation) and from kWaitDone (the
    /// supervisor's hung-run recovery: re-pulse start_GA without a reset).
    void request_restart() noexcept {
        restart_pending_ = true;
        input_changed();  // a plain member tick() reads: wake the tick
    }

private:
    enum class State : std::uint8_t { kWaitInit = 0, kStart, kWaitDone, kDone };

    /// 8 cycles at 200 MHz = two full 50 MHz periods: the slow domain is
    /// guaranteed to see the start pulse exactly once (edge-detected there).
    static constexpr std::uint8_t kStartHoldCycles = 8;

    AppModulePorts p_;
    bool restart_pending_ = false;
    rtl::Reg<State> state_{"app_state", State::kWaitInit, 2};
    rtl::Reg<std::uint8_t> hold_{"app_hold", 0, 4};
    rtl::Reg<std::uint16_t> result_{"app_result", 0};
};

}  // namespace gaip::system
