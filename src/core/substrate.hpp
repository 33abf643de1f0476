// The three bit-exact simulation substrates one GA job can run on: the
// RT-level system (system::GaSystem), the behavioral model
// (core::BehavioralEngine) and the compiled gate-level netlist in SIMD
// lanes (gates::BatchGateRunner). Every layer that picks one — islands,
// supervisor, scheduler, CLIs — names it with this enum and spells it with
// this one name table.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace gaip::core {

enum class Substrate : std::uint8_t {
    kRtl = 0,
    kBehavioral,
    kGates,
    /// Old spelling of kGates, kept while perfbench/ still uses it; the
    /// benchmark change that retires the service/supervisor aliases
    /// (ROADMAP item 7) deletes it.
    kGateLane = kGates,
};

inline constexpr const char* substrate_name(Substrate s) noexcept {
    switch (s) {
        case Substrate::kRtl: return "rtl";
        case Substrate::kBehavioral: return "behavioral";
        case Substrate::kGates: return "gates";
    }
    return "?";
}

/// Inverse of substrate_name; nullopt for any other spelling.
inline constexpr std::optional<Substrate> parse_substrate(std::string_view name) noexcept {
    for (const Substrate s : {Substrate::kRtl, Substrate::kBehavioral, Substrate::kGates})
        if (name == substrate_name(s)) return s;
    return std::nullopt;
}

}  // namespace gaip::core
