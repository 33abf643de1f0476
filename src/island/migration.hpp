// Migration spec of the island-model GA: the pure, substrate-independent
// definition of what one migration boundary does. Every substrate driver
// (RT-level GaSystem array, behavioral engines, gate-level lane block)
// extracts its islands' populations at a generation-synchronous barrier,
// calls plan_migration() to obtain the exact member movements, and applies
// them through its own memory backdoor — so the migrated payloads and every
// downstream trajectory are byte-identical across substrates by
// construction (asserted in tests/island/).
//
// Hardware model (grounded in Torquato & Fernandes' multi-core FPGA GA,
// PAPERS.md): N GA engines run disjoint subpopulations; a migration
// interconnect wakes at every `interval` generations, copies each island's
// best `count` members to its neighbor(s), and overwrites victims chosen by
// the replacement policy. The interconnect owns three programmable values
// carried over the same init handshake as the Table III parameters:
//
//   index 6   migration interval, 16 bits (0 = migration off)
//   index 7   bits [7:0] emigrant count, bit [8] replacement policy
//             (0 = worst-replaced, 1 = random-replaced); upper bits ignored
//
// The GA core ACKs every 3-bit index and latches registers only for 0..5,
// so the extension writes ride the handshake unchanged; the interconnect
// snoops the bus exactly like the RNG module snoops the seed write
// (MigrationRegisterBus in island.hpp).
//
// Clamp contract (see DESIGN.md): values arriving over the REGISTER path
// clamp silently, like the pop-size register — the effective emigrant count
// saturates at min(kMaxEmigrants, pop_size / 2) so migration can never
// replace the majority of a subpopulation. Structural errors in the C++
// API (zero islands, seed-vector size mismatch, ...) throw
// std::invalid_argument instead; they have no hardware register analog.
//
// Migration semantics shared by all substrates:
//   * migration touches ONLY the current population bank, at the boundary
//     between generations; the core's fit_sum register stays STALE until
//     the next generation completes (the next selection threshold uses the
//     pre-migration sum while the scan reads post-migration fitness
//     values), and the best-ever registers are untouched — a migrant
//     enters an island's best tracking only via an evaluated offspring;
//   * emigrants are COPIES of the island's top-`count` members (fitness
//     descending, slot ascending on ties), captured before any import is
//     applied, so simultaneous exchange can never cascade;
//   * victims are chosen per destination on its pre-migration population:
//     worst-replaced takes the bottom-`count` (fitness ascending, slot
//     DESCENDING on ties — the slot-0 elite copy survives longest);
//     random-replaced draws `count` distinct slots from the interconnect's
//     own CA RNG stream (destinations visited in ascending island order);
//   * ring topology: island i imports from island (i-1+N) mod N;
//   * star topology: every spoke sends its top-`count` to the hub (island
//     0), which imports the best `count` of the pooled candidates (ties:
//     source island ascending, then slot ascending) and broadcasts its own
//     pre-import top-`count` back to every spoke.
#pragma once

#include <cstdint>
#include <vector>

#include "core/behavioral.hpp"
#include "core/params.hpp"

namespace gaip::island {

/// Interconnect shapes of the migration network.
enum class Topology : std::uint8_t { kRing = 0, kStar = 1 };

inline const char* topology_name(Topology t) noexcept {
    switch (t) {
        case Topology::kRing: return "ring";
        case Topology::kStar: return "star";
    }
    return "?";
}

/// Who an arriving migrant overwrites.
enum class ReplacePolicy : std::uint8_t { kWorst = 0, kRandom = 1 };

inline const char* policy_name(ReplacePolicy p) noexcept {
    switch (p) {
        case ReplacePolicy::kWorst: return "worst";
        case ReplacePolicy::kRandom: return "random";
    }
    return "?";
}

/// Init-handshake indices of the interconnect's extension registers.
inline constexpr std::uint8_t kMigIntervalIndex = 6;
inline constexpr std::uint8_t kMigCountIndex = 7;

/// Hardware ceiling on emigrants per island per boundary (register clamp).
inline constexpr unsigned kMaxEmigrants = 16;

/// The three programmable migration values (plus the interconnect-local
/// RNG seed, which is a construction-time constant like a netlist generic,
/// not a bus register).
struct MigrationConfig {
    std::uint16_t interval = 0;  ///< generations between boundaries (0 = off)
    std::uint16_t count = 1;     ///< requested emigrants per island (clamped)
    ReplacePolicy policy = ReplacePolicy::kWorst;
    std::uint16_t mig_seed = 0x5EED;  ///< interconnect CA-RNG seed (kRandom)

    friend bool operator==(const MigrationConfig&, const MigrationConfig&) = default;
};

/// Pack count + policy into the index-7 register value.
constexpr std::uint16_t pack_count_policy(const MigrationConfig& cfg) noexcept {
    return static_cast<std::uint16_t>((cfg.count & 0xFF) |
                                      (cfg.policy == ReplacePolicy::kRandom ? 0x100 : 0));
}

/// Decode the two register values (raw bus view; clamp separately).
constexpr MigrationConfig decode_registers(std::uint16_t interval_reg,
                                           std::uint16_t count_reg) noexcept {
    MigrationConfig cfg;
    cfg.interval = interval_reg;
    cfg.count = static_cast<std::uint16_t>(count_reg & 0xFF);
    cfg.policy = (count_reg & 0x100) != 0 ? ReplacePolicy::kRandom : ReplacePolicy::kWorst;
    return cfg;
}

/// Register-path clamp: the effective emigrant count saturates at
/// min(kMaxEmigrants, pop_size / 2). Silent, like the pop-size clamp.
constexpr MigrationConfig clamp_migration(const MigrationConfig& raw,
                                          std::uint8_t pop_size) noexcept {
    MigrationConfig eff = raw;
    const unsigned cap =
        kMaxEmigrants < static_cast<unsigned>(pop_size / 2) ? kMaxEmigrants : pop_size / 2u;
    if (eff.count > cap) eff.count = static_cast<std::uint16_t>(cap);
    return eff;
}

/// The migration config every substrate runs for a requested one: the
/// register view (16-bit interval, 8-bit count + policy bit), then the
/// silent clamp against the subpopulation size; mig_seed carried over.
constexpr MigrationConfig effective_migration(const MigrationConfig& raw,
                                              std::uint8_t pop_size) noexcept {
    MigrationConfig eff =
        clamp_migration(decode_registers(raw.interval, pack_count_policy(raw)), pop_size);
    eff.mig_seed = raw.mig_seed;
    return eff;
}

/// One member movement at one boundary — the migrated-individual payload
/// the differential harness compares byte-for-byte across substrates.
struct MigrationRecord {
    std::uint32_t gen = 0;        ///< boundary generation
    std::uint8_t from = 0;        ///< source island
    std::uint8_t to = 0;          ///< destination island
    std::uint8_t src_slot = 0;    ///< emigrant's slot in the source bank
    std::uint8_t dst_slot = 0;    ///< victim slot overwritten at the destination
    core::Member member{};        ///< migrant payload (candidate + fitness)
    core::Member victim{};        ///< pre-migration member it replaced

    friend bool operator==(const MigrationRecord&, const MigrationRecord&) = default;
};

/// All movements of one boundary, in the canonical deterministic order:
/// destination islands ascending, import rank ascending within an island.
struct MigrationPlan {
    std::vector<MigrationRecord> records;
};

/// THE migration spec: compute one boundary's plan from the pre-migration
/// populations. `eff` must already be clamped (clamp_migration); `mig_rng`
/// is the interconnect's persistent RNG stream, advanced only by the
/// random-replacement draws. Returns an empty plan for fewer than two
/// islands or a zero emigrant count. Throws std::invalid_argument if the
/// subpopulations are not all the same nonzero size.
MigrationPlan plan_migration(const std::vector<std::vector<core::Member>>& pops,
                             Topology topology, const MigrationConfig& eff,
                             core::RngState& mig_rng, std::uint32_t gen);

/// Apply a plan to the populations it was computed from. Records reference
/// pre-migration state only, so application order cannot cascade.
void apply_plan(const MigrationPlan& plan, std::vector<std::vector<core::Member>>& pops);

/// The migration boundaries of a run: every multiple of `interval` in
/// (0, n_gens). Empty when migration is off or there is a single island.
std::vector<std::uint32_t> migration_boundaries(const MigrationConfig& eff, unsigned islands,
                                                std::uint32_t n_gens);

}  // namespace gaip::island
