// NAND geometry and physical addressing.
//
// A chip is planes x blocks x pages; a physical page number (PPN) addresses
// one page globally within a chip. Only touched blocks are materialised in
// memory, so multi-hundred-gigabyte devices stay cheap to simulate.
#pragma once

#include <cstdint>

#include "sim/enum_names.hpp"

namespace pofi::nand {

using Ppn = std::uint64_t;      ///< physical page number (chip-global)
using BlockId = std::uint64_t;  ///< physical block number (chip-global)

struct Geometry {
  std::uint32_t page_size_bytes = 16 * 1024;  ///< user data per page
  std::uint32_t pages_per_block = 256;
  std::uint32_t blocks_per_plane = 1024;
  std::uint32_t planes = 4;

  bool operator==(const Geometry&) const = default;

  [[nodiscard]] constexpr std::uint64_t total_blocks() const {
    return static_cast<std::uint64_t>(blocks_per_plane) * planes;
  }
  [[nodiscard]] constexpr std::uint64_t total_pages() const {
    return total_blocks() * pages_per_block;
  }
  [[nodiscard]] constexpr std::uint64_t capacity_bytes() const {
    return total_pages() * page_size_bytes;
  }
  [[nodiscard]] constexpr std::uint64_t page_bits() const {
    return static_cast<std::uint64_t>(page_size_bytes) * 8;
  }

  [[nodiscard]] constexpr BlockId block_of(Ppn ppn) const { return ppn / pages_per_block; }
  [[nodiscard]] constexpr std::uint32_t page_in_block(Ppn ppn) const {
    return static_cast<std::uint32_t>(ppn % pages_per_block);
  }
  [[nodiscard]] constexpr std::uint32_t plane_of(Ppn ppn) const {
    return static_cast<std::uint32_t>(block_of(ppn) % planes);
  }
  [[nodiscard]] constexpr Ppn first_page(BlockId b) const {
    return static_cast<Ppn>(b) * pages_per_block;
  }

  /// Geometry for a device of roughly `gib` GiB of user capacity, keeping
  /// page/block shape fixed and scaling block count.
  [[nodiscard]] static Geometry for_capacity_gib(std::uint32_t gib) {
    Geometry g;
    const std::uint64_t want = static_cast<std::uint64_t>(gib) << 30;
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(g.page_size_bytes) * g.pages_per_block;
    const std::uint64_t blocks = (want + block_bytes - 1) / block_bytes;
    g.blocks_per_plane = static_cast<std::uint32_t>((blocks + g.planes - 1) / g.planes);
    return g;
  }
};

/// Cell technology. Determines levels per cell, timing class, raw BER and the
/// paired-page topology (shared wordlines).
enum class CellTech : std::uint8_t { kSlc, kMlc, kTlc };

[[nodiscard]] constexpr int bits_per_cell(CellTech t) {
  switch (t) {
    case CellTech::kSlc: return 1;
    case CellTech::kMlc: return 2;
    case CellTech::kTlc: return 3;
  }
  return 1;
}

[[nodiscard]] constexpr auto enum_names(CellTech) {
  return std::to_array<sim::EnumName<CellTech>>(
      {{CellTech::kSlc, "SLC"}, {CellTech::kMlc, "MLC"}, {CellTech::kTlc, "TLC"}});
}
[[nodiscard]] constexpr const char* to_string(CellTech t) { return sim::enum_name(t); }

/// Role a page plays on its wordline. Upper/extra pages are the slow, late
/// programming passes whose interruption corrupts already-programmed lower
/// pages — the paper's "previously written data" corruption channel.
enum class PageRole : std::uint8_t { kLower, kUpper, kExtra };

[[nodiscard]] constexpr PageRole page_role(CellTech tech, std::uint32_t page_in_block) {
  switch (tech) {
    case CellTech::kSlc: return PageRole::kLower;
    case CellTech::kMlc: return (page_in_block % 2 == 0) ? PageRole::kLower : PageRole::kUpper;
    case CellTech::kTlc:
      switch (page_in_block % 3) {
        case 0: return PageRole::kLower;
        case 1: return PageRole::kUpper;
        default: return PageRole::kExtra;
      }
  }
  return PageRole::kLower;
}

/// Index of the first page sharing this page's wordline group. Pages
/// [base, base + bits_per_cell) form the shared group.
[[nodiscard]] constexpr std::uint32_t wordline_base(CellTech tech, std::uint32_t page_in_block) {
  const auto group = static_cast<std::uint32_t>(bits_per_cell(tech));
  return (page_in_block / group) * group;
}

}  // namespace pofi::nand
