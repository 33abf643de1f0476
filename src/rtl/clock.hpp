// Clock definition for the multi-domain simulation kernel.
//
// The paper's system runs the GA module at 50 MHz and the initialization /
// application modules at 200 MHz, both derived from the board's 100 MHz
// oscillator by a DCM. The kernel schedules rising edges of every clock on
// a shared picosecond timeline, so four-phase handshakes between the domains
// are exercised with real relative timing.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace gaip::rtl {

/// Simulation time in picoseconds.
using SimTime = std::uint64_t;

class Kernel;

class Clock {
public:
    Clock(std::string name, std::uint64_t freq_hz, SimTime phase_ps = 0)
        : name_(std::move(name)), freq_hz_(freq_hz), phase_ps_(phase_ps) {
        if (freq_hz == 0) throw std::invalid_argument("clock frequency must be nonzero");
        period_ps_ = 1'000'000'000'000ull / freq_hz;
        if (period_ps_ == 0) throw std::invalid_argument("clock frequency too high to model");
        next_edge_ = phase_ps_;
    }

    const std::string& name() const noexcept { return name_; }
    std::uint64_t freq_hz() const noexcept { return freq_hz_; }
    SimTime period_ps() const noexcept { return period_ps_; }
    SimTime phase_ps() const noexcept { return phase_ps_; }

    /// Time of the next rising edge not yet processed.
    SimTime next_edge() const noexcept { return next_edge_; }

    /// Number of rising edges processed so far.
    std::uint64_t edges() const noexcept { return edges_; }

    /// Called by the kernel after processing the edge at next_edge().
    void advance() noexcept {
        next_edge_ += period_ps_;
        ++edges_;
    }

    void restart() noexcept {
        next_edge_ = phase_ps_;
        edges_ = 0;
    }

private:
    friend class Kernel;

    std::string name_;
    std::uint64_t freq_hz_;
    SimTime phase_ps_;
    SimTime period_ps_ = 0;
    SimTime next_edge_ = 0;
    std::uint64_t edges_ = 0;
    const Kernel* kernel_ = nullptr;  ///< the kernel that defined this clock
};

}  // namespace gaip::rtl
