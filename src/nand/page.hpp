// Per-page and per-block simulated state.
//
// Pages do not store payload bytes on the hot path; they store a 64-bit
// *content tag* identifying what was written. Tags are collision-free by
// construction (allocated by the host-side shadow store), so tag equality is
// exactly checksum equality. Full-payload mode (tests) carries real bytes in
// a side table owned by the chip.
#pragma once

#include <cstdint>

#include "nand/geometry.hpp"

namespace pofi::nand {

/// Content tag of an erased/never-written page (all-0xFF flash reads).
inline constexpr std::uint64_t kErasedContent = ~0ULL;

enum class PageStatus : std::uint8_t {
  kErased,   ///< never programmed since last erase
  kValid,    ///< program completed and verified
  kPartial,  ///< program interrupted mid-ISPP by power loss
  kCorrupt,  ///< cell states undefined (e.g. interrupted erase)
};

[[nodiscard]] constexpr const char* to_string(PageStatus s) {
  switch (s) {
    case PageStatus::kErased: return "erased";
    case PageStatus::kValid: return "valid";
    case PageStatus::kPartial: return "partial";
    case PageStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

/// Out-of-band (spare-area) metadata programmed with each page. Real FTLs
/// stamp every page with its logical address and a write sequence number so
/// the mapping can be rebuilt by scanning flash after a crash.
struct Oob {
  std::uint64_t lpn = ~0ULL;  ///< logical page this physical page holds
  std::uint64_t seq = 0;      ///< global write sequence number
  [[nodiscard]] bool valid() const { return lpn != ~0ULL; }
};

/// The fields of a page a consistency audit reads on every visit: status,
/// content tag and OOB. Unlike `Page` it carries none of the fault-site side
/// data (ISPP progress, upset errors), so reading it costs no side-table
/// lookup. Default-constructed, it is an erased page.
struct PageFields {
  PageStatus status = PageStatus::kErased;
  std::uint64_t content = kErasedContent;
  Oob oob;
};

/// AoS view of one page's state. Storage lives in the chip's BlockArena as
/// struct-of-arrays lanes; `Page` is the assembled snapshot handed out by
/// inspection paths (NandChip::peek) and tests.
struct Page {
  PageStatus status = PageStatus::kErased;
  /// ISPP completion fraction in [0,1); meaningful for kPartial.
  float progress = 0.0f;
  /// Tag of the data the host intended to store here.
  std::uint64_t content = kErasedContent;
  /// Spare-area metadata (shares the page's fate: unreadable when the page
  /// is uncorrectable).
  Oob oob;
  /// Raw bit errors accumulated from discrete upset events (paired-page
  /// damage on interrupted sibling passes). Disturb from ordinary traffic is
  /// modelled statistically from block counters at read time.
  std::uint32_t upset_errors = 0;
};

}  // namespace pofi::nand
