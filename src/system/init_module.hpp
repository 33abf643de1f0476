// Initialization module (Fig. 4): "a simple finite state machine to perform
// the two-way handshaking operation using the data_valid and data_ack
// signals to initialize the various GA parameters one by one." Runs in the
// fast (200 MHz) peripheral clock domain, as in the paper's FPGA setup.
//
// The parameter program (the index/value pairs to write) is configured in
// software before reset — the hardware analog is the small config ROM such
// an FSM would carry.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "rtl/module.hpp"

namespace gaip::system {

struct InitModulePorts {
    rtl::Wire<bool>& ga_load;      // out
    rtl::Wire<std::uint8_t>& index;    // out
    rtl::Wire<std::uint16_t>& value;   // out
    rtl::Wire<bool>& data_valid;   // out
    rtl::Wire<bool>& data_ack;     // in
    rtl::Wire<bool>& init_done;    // out
};

class InitModule final : public rtl::Module {
public:
    InitModule(InitModulePorts ports) : Module("init_module"), p_(ports) {
        attach_all(state_, item_);
        sense();  // eval() reads the FSM registers (and the pre-run program) only
    }

    /// Replace the parameter program with the six writes covering Table III
    /// for `params` (both halves of n_gens, pop size, both rates, seed).
    void program_parameters(const core::GaParameters& params) {
        program_ = core::init_program(params);
    }

    /// Arbitrary write program (tests exercise partial initialization).
    void set_program(std::vector<std::pair<std::uint8_t, std::uint16_t>> program) {
        program_ = std::move(program);
    }

    /// Append one write to the program — extension registers (e.g. the
    /// island interconnect's migration registers at indices 6/7) ride the
    /// same handshake after the six Table III parameters. The core ACKs
    /// every index; modules that own extension registers snoop the bus.
    void append_write(std::uint8_t index, std::uint16_t value) {
        program_.emplace_back(index, value);
    }

    void eval() override {
        const State s = state_.read();
        const bool active = s == State::kAssert || s == State::kDrop;
        p_.ga_load.drive(active);
        p_.data_valid.drive(s == State::kAssert);
        p_.init_done.drive(s == State::kDone);
        if (active && item_.read() < program_.size()) {
            p_.index.drive(program_[item_.read()].first);
            p_.value.drive(program_[item_.read()].second);
        } else {
            p_.index.drive(0);
            p_.value.drive(0);
        }
    }

    void tick() override {
        switch (state_.read()) {
            case State::kIdle:
                state_.load(program_.empty() ? State::kDone : State::kAssert);
                break;
            case State::kAssert:
                if (p_.data_ack.read()) state_.load(State::kDrop);
                break;
            case State::kDrop:
                if (!p_.data_ack.read()) {
                    const std::uint16_t next = static_cast<std::uint16_t>(item_.read() + 1);
                    if (next >= program_.size()) {
                        state_.load(State::kDone);
                    } else {
                        item_.load(next);
                        state_.load(State::kAssert);
                    }
                }
                break;
            case State::kDone:
                break;
        }
    }

    bool done() const noexcept { return state_.read() == State::kDone; }

private:
    enum class State : std::uint8_t { kIdle = 0, kAssert, kDrop, kDone };

    InitModulePorts p_;
    std::vector<std::pair<std::uint8_t, std::uint16_t>> program_;
    rtl::Reg<State> state_{"init_state", State::kIdle, 2};
    rtl::Reg<std::uint16_t> item_{"init_item", 0, 8};
};

}  // namespace gaip::system
