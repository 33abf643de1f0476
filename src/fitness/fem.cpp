#include "fitness/fem.hpp"

#include <stdexcept>

namespace gaip::fitness {

RomFitnessModule::RomFitnessModule(std::string name, FemPorts ports,
                                   std::shared_ptr<const mem::BlockRom> rom, FemConfig cfg)
    : Module(std::move(name)), p_(ports), rom_(std::move(rom)), cfg_(cfg) {
    if (!rom_) throw std::invalid_argument("RomFitnessModule: null rom");
    attach_all(state_, addr_, value_, delay_);
    // eval() reads the FSM/value registers only; the handshake is ticked, and
    // a tick with unchanged inputs and registers does nothing (evaluations_
    // counts the kPresent tick, which a state commit always wakes).
    sense(p_.fit_request, p_.candidate);
    pure_tick();
}

void RomFitnessModule::eval() {
    const State s = state_.read();
    p_.fit_valid.drive(s == State::kPresent || s == State::kWaitDrop);
    p_.fit_value.drive(value_.read());
}

void RomFitnessModule::tick() {
    switch (state_.read()) {
        case State::kIdle:
            if (p_.fit_request.read()) {
                addr_.load(p_.candidate.read());
                delay_.load(static_cast<std::uint16_t>(cfg_.extra_latency_cycles));
                state_.load(State::kLookup);
            }
            break;
        case State::kLookup:
            if (delay_.read() > 0) {
                delay_.load(static_cast<std::uint16_t>(delay_.read() - 1));
            } else {
                // The synchronous ROM read: one cycle from address to data.
                value_.load(rom_->read(addr_.read() % rom_->depth()));
                state_.load(State::kPresent);
            }
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

}  // namespace gaip::fitness
