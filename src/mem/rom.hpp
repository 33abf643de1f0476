// Block-ROM contents: read-only storage for precomputed tables. The paper
// populates block ROMs with precomputed fitness values ("lookup-based
// fitness computation", Sec. IV-B); fitness::RomFitnessModule is the
// clocked FEM that reads one, and the software baselines and the gate-lane
// harness read the very same table.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace gaip::mem {

/// Immutable ROM contents, shareable between modules (e.g. the software GA
/// baseline and the hardware FEM read the very same table).
class BlockRom {
public:
    explicit BlockRom(std::vector<std::uint16_t> words) : words_(std::move(words)) {}

    std::uint16_t read(std::size_t a) const { return words_.at(a); }
    std::size_t depth() const noexcept { return words_.size(); }
    std::uint64_t storage_bits() const noexcept { return words_.size() * 16ull; }

    const std::vector<std::uint16_t>& words() const noexcept { return words_; }

private:
    std::vector<std::uint16_t> words_;
};

}  // namespace gaip::mem
