// BlockArena: slab-backed struct-of-arrays storage for NAND block/page state.
//
// The chip used to keep an unordered_map<BlockId, Block> of ~40-byte AoS Page
// vectors; every program/read/erase paid a hash probe plus pointer-chasing
// into a node-allocated block. The arena replaces that with:
//
//   block_index_ : flat BlockId -> Slot vector (lazily grown, kNoSlot holes)
//                  — sparse `touched_blocks()` semantics are preserved: a
//                  block occupies a Slot only after its first touch.
//   per-Slot SoA : erase/read/program counters, program cursor, flags — one
//                  dense u32/u8 lane per field, indexed by Slot.
//   page lanes   : dense per-block page state (2-bit packed status, u32
//                  content / OOB lpn / OOB seq), allocated from slab-granular
//                  flat arrays only once a block is first programmed and
//                  recycled through a free list on clean erase — an
//                  erased-only block carries no page storage at all.
//   side tables  : rare state that exists only around fault sites (ISPP
//                  progress on interrupted pages, discrete upset errors,
//                  64-bit values too wide for the u32 page lanes) lives in
//                  hash side tables keyed by (Slot, page), with per-Slot
//                  entry counts so the hot path can skip the lookup when a
//                  block has none (the overwhelmingly common case).
//
// 64-bit narrowing is exact, not lossy: content tags are allocated
// sequentially by the shadow store and OOB sequence numbers count host
// writes, so they fit u32 for any simulatable run; the rare wide values
// (journal tags ORed with a high marker, ~0 sentinels) divert to the
// overflow side table via in-band markers. Decoding reproduces the original
// u64 bit-for-bit in every case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "nand/geometry.hpp"
#include "nand/page.hpp"

namespace pofi::nand {

class BlockArena {
 public:
  /// Dense index of a materialised block. Slots are never recycled.
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  BlockArena(const Geometry& geometry, std::uint32_t initial_pe_cycles);

  // --- Block lookup -------------------------------------------------------
  /// Materialise `b` on first touch (erase_count starts at the configured
  /// pre-age); returns its slot.
  Slot touch(BlockId b);
  /// Slot of `b`, or kNoSlot if never touched.
  [[nodiscard]] Slot find(BlockId b) const {
    return b < block_index_.size() ? block_index_[b] : kNoSlot;
  }
  [[nodiscard]] std::size_t touched_blocks() const { return slots_; }
  /// Visit every materialised block, in ascending BlockId order.
  template <typename Fn>
  void for_each_touched(Fn&& fn) const {
    for (BlockId b = 0; b < block_index_.size(); ++b) {
      if (block_index_[b] != kNoSlot) fn(b);
    }
  }

  // --- Per-block counters and flags --------------------------------------
  [[nodiscard]] std::uint32_t erase_count(Slot s) const { return erase_count_[s]; }
  void set_erase_count(Slot s, std::uint32_t v) { erase_count_[s] = v; }
  [[nodiscard]] std::uint32_t reads_since_erase(Slot s) const { return reads_since_erase_[s]; }
  void bump_reads_since_erase(Slot s) { reads_since_erase_[s] += 1; }
  [[nodiscard]] std::uint32_t programs_since_erase(Slot s) const {
    return programs_since_erase_[s];
  }
  void bump_programs_since_erase(Slot s) { programs_since_erase_[s] += 1; }
  [[nodiscard]] std::uint32_t next_program_page(Slot s) const { return next_program_page_[s]; }
  void set_next_program_page(Slot s, std::uint32_t v) { next_program_page_[s] = v; }
  [[nodiscard]] bool bad(Slot s) const { return (flags_[s] & kFlagBad) != 0; }
  void set_bad(Slot s) { flags_[s] |= kFlagBad; }
  [[nodiscard]] bool partially_erased(Slot s) const {
    return (flags_[s] & kFlagPartialErase) != 0;
  }
  void set_partially_erased(Slot s) { flags_[s] |= kFlagPartialErase; }

  // --- Page state (hot path) ----------------------------------------------
  [[nodiscard]] PageStatus status(Slot s, std::uint32_t pib) const {
    const std::uint32_t lane = lane_[s];
    if (lane == kNoLane) return PageStatus::kErased;
    const std::uint64_t word = status_[lane * words_per_lane_ + (pib >> 5)];
    return static_cast<PageStatus>((word >> ((pib & 31U) * 2)) & 3U);
  }

  [[nodiscard]] std::uint64_t content(Slot s, std::uint32_t pib) const {
    const std::uint32_t lane = lane_[s];
    if (lane == kNoLane) return kErasedContent;
    return widen(content_[lane * pages_per_block_ + pib], content_overflow_, s, pib,
                 kErasedContent);
  }

  [[nodiscard]] Oob oob(Slot s, std::uint32_t pib) const {
    const std::uint32_t lane = lane_[s];
    if (lane == kNoLane) return Oob{};
    Oob o;
    o.lpn = widen(oob_lpn_[lane * pages_per_block_ + pib], lpn_overflow_, s, pib, ~0ULL);
    o.seq = widen(oob_seq_[lane * pages_per_block_ + pib], seq_overflow_, s, pib, 0);
    return o;
  }

  /// Effective ISPP progress: kValid pages are complete (1.0), erased pages
  /// untouched (0.0); interrupted/corrupted pages carry a side-table entry.
  [[nodiscard]] float progress(Slot s, std::uint32_t pib) const {
    switch (status(s, pib)) {
      case PageStatus::kErased: return 0.0f;
      case PageStatus::kValid: return 1.0f;
      default: break;
    }
    const auto it = progress_.find(page_key(s, pib));
    return it == progress_.end() ? 0.0f : it->second;
  }

  [[nodiscard]] std::uint32_t upset_errors(Slot s, std::uint32_t pib) const {
    if (upset_count_[s] == 0) return 0;  // common case: no fault damage here
    const auto it = upsets_.find(page_key(s, pib));
    return it == upsets_.end() ? 0 : it->second;
  }

  /// Status, content and OOB of one page, read straight from the lanes; a
  /// lane-less block reads erased. Touches no side table unless a value
  /// took the overflow marker.
  [[nodiscard]] PageFields fields(Slot s, std::uint32_t pib) const {
    const std::uint32_t lane = lane_[s];
    if (lane == kNoLane) return PageFields{};
    const std::size_t idx = static_cast<std::size_t>(lane) * pages_per_block_ + pib;
    const std::uint64_t word = status_[lane * words_per_lane_ + (pib >> 5)];
    PageFields f;
    f.status = static_cast<PageStatus>((word >> ((pib & 31U) * 2)) & 3U);
    f.content = widen(content_[idx], content_overflow_, s, pib, kErasedContent);
    f.oob.lpn = widen(oob_lpn_[idx], lpn_overflow_, s, pib, ~0ULL);
    f.oob.seq = widen(oob_seq_[idx], seq_overflow_, s, pib, 0);
    return f;
  }

  /// First page of the block that is not erased, or pages_per_block when
  /// all are. A lane-less block answers without a scan; otherwise the scan
  /// reads the packed status words, 32 pages a word.
  [[nodiscard]] std::uint32_t first_unerased(Slot s) const;

  /// AoS view of one page, assembled from the lanes (peek/debug path).
  [[nodiscard]] Page snapshot(Slot s, std::uint32_t pib) const;

  // --- Page mutation ------------------------------------------------------
  /// Completed program: page becomes kValid with the given payload.
  void set_programmed(Slot s, std::uint32_t pib, std::uint64_t content, Oob oob);
  /// Interrupted program: page becomes kPartial at `progress` completion.
  void set_partial(Slot s, std::uint32_t pib, float progress, std::uint64_t content, Oob oob);
  /// Interrupted erase landed on a kValid/kPartial page: cell states are now
  /// undefined. Content/OOB/upsets are untouched (they were, after all,
  /// physically written); the pre-corruption progress is preserved.
  void corrupt_page(Slot s, std::uint32_t pib);
  /// Overwrite the discrete-upset error count (0 removes the entry).
  void set_upset_errors(Slot s, std::uint32_t pib, std::uint32_t value);
  /// Whether any page of this block carries upset errors (cheap pre-check).
  [[nodiscard]] bool has_upsets(Slot s) const { return upset_count_[s] != 0; }

  /// Clean erase: all pages revert to kErased, per-erase counters and the
  /// partial-erase flag reset, the page lane (if any) returns to the free
  /// list. erase_count and the bad flag are the caller's business.
  void erase_block(Slot s);

  /// Session reset: back to the just-constructed state (no touched blocks,
  /// no lanes, empty side tables) while keeping every vector's capacity and
  /// the slab storage. Lane bytes are left stale — ensure_lane scrubs each
  /// lane to the erased state when it is next bound, exactly as it does for
  /// recycled lanes.
  void reset();

  /// Full copyable state of the arena. Captured with bulk lane copies of the
  /// `lanes` created so far (status words, content, OOB lpn/seq hold exactly
  /// `lanes` blocks' worth, not the rest of their slab); the image's
  /// containers are reused across capture cycles (vector/map assignment
  /// keeps capacity/buckets), so warmed snapshots allocate nothing.
  struct StateImage {
    std::vector<Slot> block_index;
    std::size_t slots = 0;
    std::vector<std::uint32_t> erase_count;
    std::vector<std::uint32_t> reads_since_erase;
    std::vector<std::uint32_t> programs_since_erase;
    std::vector<std::uint32_t> next_program_page;
    std::vector<std::uint8_t> flags;
    std::vector<std::uint32_t> lane;
    std::vector<std::uint32_t> upset_count;
    std::vector<std::uint32_t> progress_count;
    std::vector<std::uint32_t> overflow_count;
    std::vector<std::uint64_t> status;
    std::vector<std::uint32_t> content;
    std::vector<std::uint32_t> oob_lpn;
    std::vector<std::uint32_t> oob_seq;
    std::vector<std::uint32_t> free_lanes;
    std::uint32_t lanes = 0;
    std::unordered_map<std::uint64_t, float> progress;
    std::unordered_map<std::uint64_t, std::uint32_t> upsets;
    std::unordered_map<std::uint64_t, std::uint64_t> content_overflow;
    std::unordered_map<std::uint64_t, std::uint64_t> lpn_overflow;
    std::unordered_map<std::uint64_t, std::uint64_t> seq_overflow;

    bool operator==(const StateImage&) const = default;
  };

  void snapshot(StateImage& out) const;
  void restore(const StateImage& image);

 private:
  static constexpr std::uint32_t kNoLane = ~std::uint32_t{0};
  static constexpr std::uint8_t kFlagBad = 1;
  static constexpr std::uint8_t kFlagPartialErase = 2;
  /// Page-lane storage grows in slabs of this many blocks.
  static constexpr std::uint32_t kSlabBlocks = 32;
  /// In-band markers in the u32 page lanes; see widen()/narrow().
  static constexpr std::uint32_t kU32Sentinel = 0xFFFFFFFFU;  ///< field's ~0/default
  static constexpr std::uint32_t kU32Overflow = 0xFFFFFFFEU;  ///< value in side table

  using OverflowMap = std::unordered_map<std::uint64_t, std::uint64_t>;

  [[nodiscard]] std::uint64_t page_key(Slot s, std::uint32_t pib) const {
    return static_cast<std::uint64_t>(s) * pages_per_block_ + pib;
  }

  [[nodiscard]] std::uint64_t widen(std::uint32_t narrow, const OverflowMap& overflow, Slot s,
                                    std::uint32_t pib, std::uint64_t sentinel) const {
    if (narrow == kU32Sentinel) return sentinel;
    if (narrow == kU32Overflow) return overflow.at(page_key(s, pib));
    return narrow;
  }

  std::uint32_t narrow(std::uint64_t value, OverflowMap& overflow, Slot s, std::uint32_t pib,
                       std::uint64_t sentinel);

  void set_status(std::uint32_t lane, std::uint32_t pib, PageStatus st) {
    std::uint64_t& word = status_[lane * words_per_lane_ + (pib >> 5)];
    const std::uint32_t shift = (pib & 31U) * 2;
    word = (word & ~(3ULL << shift)) | (static_cast<std::uint64_t>(st) << shift);
  }

  std::uint32_t ensure_lane(Slot s);
  void write_payload(std::uint32_t lane, Slot s, std::uint32_t pib, std::uint64_t content,
                     Oob oob);

  std::uint32_t pages_per_block_;
  std::uint32_t words_per_lane_;  ///< 2-bit-packed status words per block
  std::uint32_t initial_pe_cycles_;
  std::uint64_t total_blocks_;  ///< geometry hint; the index can exceed it

  std::vector<Slot> block_index_;  ///< BlockId -> Slot (kNoSlot holes)
  std::size_t slots_ = 0;

  // Per-Slot lanes (index: Slot).
  std::vector<std::uint32_t> erase_count_;
  std::vector<std::uint32_t> reads_since_erase_;
  std::vector<std::uint32_t> programs_since_erase_;
  std::vector<std::uint32_t> next_program_page_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> lane_;           ///< page lane, kNoLane until programmed
  std::vector<std::uint32_t> upset_count_;    ///< side-table entries per Slot
  std::vector<std::uint32_t> progress_count_;
  std::vector<std::uint32_t> overflow_count_;

  // Page lanes (index: lane * pages_per_block_ + pib), slab-granular growth.
  std::vector<std::uint64_t> status_;  ///< 2 bits per page, padded per lane
  std::vector<std::uint32_t> content_;
  std::vector<std::uint32_t> oob_lpn_;
  std::vector<std::uint32_t> oob_seq_;
  std::vector<std::uint32_t> free_lanes_;
  std::uint32_t lanes_ = 0;  ///< lanes ever created (free or bound)

  // Sparse side tables, keyed by page_key().
  std::unordered_map<std::uint64_t, float> progress_;
  std::unordered_map<std::uint64_t, std::uint32_t> upsets_;
  OverflowMap content_overflow_;
  OverflowMap lpn_overflow_;
  OverflowMap seq_overflow_;
};

}  // namespace pofi::nand
