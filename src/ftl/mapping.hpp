// Logical-to-physical mapping with explicit volatility.
//
// The map lives in controller DRAM. Updates are *volatile* until a journal
// batch containing them is durably programmed to flash; a power loss reverts
// every not-yet-committed update to its last persisted value. This is the
// FTL-level mechanism behind FWA failures, and the reason sequential
// workloads fail harder (§IV-D): with the hybrid-extent policy the FTL
// coalesces a dense sequential region into one extent entry ("only keeps the
// first address"), which is journaled only once the region stops growing —
// so one power fault reverts the whole run.
//
// Extent detection is address-based (64-page frames), not arrival-order
// based: the DRAM cache scrambles flush order, but a sequential host stream
// still lands dense in LPN space, which is what real stream detectors key on.
//
// The L2P itself is a two-level paged table, as a DFTL keeps it in
// translation pages: a directory with one entry per 512-LPN region, and a
// chunk store of 4 KiB translation pages (512 Ppn slots each, kUnmappedPpn =
// "no mapping") appended on the first write into a region. Lookup and update
// on the IO hot path are two array indexes, no hashing, and memory, snapshot
// copies and the auditor's walk cost the regions a workload touched rather
// than the device's whole LPN space. The sparse *bookkeeping*
// (volatile/dirty state, journal batches, extent frames) lives in hash maps
// and costs O(1) per IO: the FTL asks for the committable count after every
// host write, so it is kept as counters updated on each state change (dirty
// entries, and those of them sitting in withheld frames) rather than scanned.
// Only a batch cut walks the volatile set, once per journal cycle.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ftl/types.hpp"
#include "sim/enum_names.hpp"

namespace pofi::ftl {

enum class MappingPolicy : std::uint8_t {
  kPageLevel,     ///< every LPN individually journaled
  kHybridExtent,  ///< dense sequential regions coalesce into extent entries
};

[[nodiscard]] constexpr auto enum_names(MappingPolicy) {
  return std::to_array<sim::EnumName<MappingPolicy>>(
      {{MappingPolicy::kPageLevel, "page-level"}, {MappingPolicy::kHybridExtent, "hybrid-extent"}});
}
[[nodiscard]] constexpr const char* to_string(MappingPolicy p) { return sim::enum_name(p); }

/// One reverted update, reported to the FTL so physical-page accounting
/// (valid counts, reverse map) can be repaired after a power loss.
struct RevertedUpdate {
  Lpn lpn = 0;
  std::optional<Ppn> dropped_ppn;   ///< the new mapping that was lost (if any)
  std::optional<Ppn> restored_ppn;  ///< persisted mapping, if any
};

/// Sentinel PPN meaning "LPN has no mapping" in an L2P translation page.
inline constexpr Ppn kUnmappedPpn = ~Ppn{0};

class MappingTable {
 public:
  /// `extent_pages`: frame size for sequential-region detection; a frame is
  /// treated as an extent (withheld from the journal while it still grows)
  /// once `min_extent_fill` of its pages are dirty. A full or stagnant frame
  /// closes and becomes journalable.
  ///
  /// `lpn_capacity`: size of the LPN space (device geometry). Sizes the
  /// translation-page directory; 0 means unknown, and the directory grows as
  /// high LPNs are touched. Either way the table serves any LPN — capacity
  /// is a sizing hint, not a limit.
  explicit MappingTable(MappingPolicy policy, std::uint32_t extent_pages = 64,
                        std::uint32_t min_extent_fill = 16,
                        std::uint64_t lpn_capacity = 0)
      : policy_(policy),
        extent_pages_(extent_pages),
        min_extent_fill_(min_extent_fill),
        lpn_capacity_(lpn_capacity),
        dir_(regions_for(lpn_capacity), kNoChunk) {}

  /// LPNs per translation page (4 KiB of Ppn slots).
  static constexpr std::uint32_t kTranslationPageLpns = 512;

  [[nodiscard]] MappingPolicy policy() const { return policy_; }

  [[nodiscard]] std::optional<Ppn> lookup(Lpn lpn) const;

  /// Install lpn -> ppn. The update is volatile until committed.
  void update(Lpn lpn, Ppn ppn);

  /// Drop the mapping (TRIM). Also volatile until committed.
  void remove(Lpn lpn);

  // --- Journal interface ----------------------------------------------------
  /// Move committable dirty entries into a persist batch. With the hybrid
  /// policy, entries inside an open (still-growing) extent frame are NOT
  /// committable until the frame fills or stagnates — unless
  /// `include_withheld` is set (PLP emergency shutdown persists everything).
  /// Returns the batch id (0 if nothing to do).
  [[nodiscard]] std::uint64_t begin_persist_batch(bool include_withheld = false);
  /// The journal page holding `batch` was durably programmed.
  void commit_batch(std::uint64_t batch);
  /// The journal page holding `batch` will never be programmed (no journal
  /// space, failed program): members still in the batch return to the dirty
  /// set so the next cut picks them up again, and members re-dirtied since
  /// the cut get back the persisted value the batch would have replaced.
  /// Exact while batches resolve one at a time, in cut order (the FTL keeps
  /// at most one journal page in flight).
  void abort_batch(std::uint64_t batch);
  [[nodiscard]] std::size_t batch_size(std::uint64_t batch) const;

  /// Number of updates that a power loss right now would revert.
  [[nodiscard]] std::size_t volatile_count() const;
  /// Dirty entries eligible for the next batch (open extents excluded). O(1).
  [[nodiscard]] std::size_t committable_count() const {
    return unbatched_ - withheld_unbatched_;
  }

  /// Power loss: revert every volatile update (dirty + in-flight batches).
  /// Returns the reverted updates for accounting repair.
  std::vector<RevertedUpdate> on_power_lost();

  [[nodiscard]] std::size_t entry_count() const { return mapped_count_; }
  /// Translation pages allocated: the distinct 512-LPN regions written since
  /// construction or reset(). Removing mappings does not free a page.
  [[nodiscard]] std::size_t translation_pages() const {
    return chunks_.size() / kTranslationPageLpns;
  }

  // --- Audit interface (read-only; src/torture/) ----------------------------
  /// Visit every installed mapping as fn(lpn, ppn), in ascending LPN order:
  /// the directory is walked in region order and only allocated translation
  /// pages are scanned, so the cost follows the regions written.
  template <class Fn>
  void for_each_mapping(Fn&& fn) const {
    for (std::size_t region = 0; region < dir_.size(); ++region) {
      if (dir_[region] == kNoChunk) continue;
      const Ppn* page = chunks_.data() + std::size_t{dir_[region]} * kTranslationPageLpns;
      const Lpn base = static_cast<Lpn>(region) * kTranslationPageLpns;
      for (std::uint32_t i = 0; i < kTranslationPageLpns; ++i) {
        if (page[i] != kUnmappedPpn) fn(base + i, page[i]);
      }
    }
  }
  /// True while a power loss right now would revert this LPN's mapping.
  [[nodiscard]] bool entry_volatile(Lpn lpn) const { return volatile_.count(lpn) != 0; }
  /// LPNs captured into an in-flight persist batch, in cut order. Empty for
  /// unknown/committed batch ids.
  [[nodiscard]] const std::vector<Lpn>& batch_lpns(std::uint64_t batch) const {
    static const std::vector<Lpn> kEmpty;
    const auto it = batches_.find(batch);
    return it == batches_.end() ? kEmpty : it->second.lpns;
  }

  // --- Corruption hooks (tests + torture fault injection only) --------------
  /// Overwrite the slot directly, bypassing dirty tracking and the extent
  /// detector — deliberately desynchronising the map from the FTL's physical
  /// accounting so the auditor has something to find.
  void debug_set_slot(Lpn lpn, Ppn ppn) {
    if (ppn == kUnmappedPpn) {
      clear_slot(lpn);
    } else {
      set_slot(lpn, ppn);
    }
  }
  /// Silently drop a mapping, again bypassing all bookkeeping.
  void debug_clear_slot(Lpn lpn) { clear_slot(lpn); }

  /// Session reset: back to the just-constructed (empty) state. Every
  /// translation page is dropped and the directory re-sized to the capacity
  /// hint (shrinking any growth past it); both vectors and the bookkeeping
  /// maps keep their capacity/buckets, so a warmed session allocates nothing.
  void reset() {
    dir_.assign(regions_for(lpn_capacity_), kNoChunk);
    chunks_.clear();
    mapped_count_ = 0;
    volatile_.clear();
    batches_.clear();
    next_batch_ = 1;
    frames_.clear();
    extents_closed_full_ = 0;
    unbatched_ = 0;
    withheld_unbatched_ = 0;
  }

  /// Frames currently detected as open (growing) extents.
  [[nodiscard]] std::size_t open_extents() const;
  /// Extents that filled completely and were journaled as one unit.
  [[nodiscard]] std::uint64_t extents_closed_full() const { return extents_closed_full_; }

  struct StateImage;
  void snapshot(StateImage& out) const;
  void restore(const StateImage& image);

 private:
  struct DirtyState {
    std::optional<Ppn> persisted;  ///< value to restore on revert
    std::uint64_t batch = 0;       ///< 0 = dirty, else in-flight batch id
  };
  struct Batch {
    std::vector<Lpn> lpns;  ///< members, in cut order
    /// Members re-dirtied while the batch was in flight, with the persisted
    /// value that re-dirtying displaced (restored if the batch aborts).
    std::vector<std::pair<Lpn, std::optional<Ppn>>> redirtied;
  };
  struct Frame {
    std::uint32_t touched = 0;      ///< monotone count of dirtied pages
    std::uint32_t dirty = 0;        ///< currently volatile entries inside
    std::uint32_t unbatched = 0;    ///< of those, entries with batch == 0
    std::uint32_t at_last_cut = 0;  ///< `touched` at the previous batch cut
    bool closed = false;            ///< journalable
  };

  /// Directory entry of a region that has no translation page yet.
  static constexpr std::uint32_t kNoChunk = ~std::uint32_t{0};
  /// Returned by slot_of() for an LPN whose region has no translation page.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  [[nodiscard]] static std::size_t regions_for(std::uint64_t lpns) {
    return static_cast<std::size_t>((lpns + kTranslationPageLpns - 1) / kTranslationPageLpns);
  }
  /// Index of `lpn`'s slot in chunks_, or kNoSlot.
  [[nodiscard]] std::size_t slot_of(Lpn lpn) const {
    const std::uint64_t region = lpn / kTranslationPageLpns;
    if (region >= dir_.size() || dir_[region] == kNoChunk) return kNoSlot;
    return std::size_t{dir_[region]} * kTranslationPageLpns + lpn % kTranslationPageLpns;
  }
  /// Index of `lpn`'s slot, appending its region's translation page (and
  /// growing the directory past the capacity hint) on first write.
  [[nodiscard]] std::size_t slot_for_write(Lpn lpn);

  void mark_dirty(Lpn lpn, std::optional<Ppn> old_value);
  [[nodiscard]] std::uint64_t frame_of(Lpn lpn) const { return lpn / extent_pages_; }
  /// An open extent: its dirty entries stay out of the journal.
  [[nodiscard]] bool withheld(const Frame& f) const {
    return !f.closed && f.touched >= min_extent_fill_;
  }
  /// The frame holding `lpn` (hybrid policy), or nullptr.
  [[nodiscard]] Frame* frame_for(Lpn lpn);
  /// An entry in frame `f` (nullptr: none) joined / left the batch == 0 set.
  void add_unbatched(Frame* f);
  void drop_unbatched(Frame* f);
  void frame_entry_resolved(Lpn lpn);

  void set_slot(Lpn lpn, Ppn ppn);
  void clear_slot(Lpn lpn);

  MappingPolicy policy_;
  std::uint32_t extent_pages_;
  std::uint32_t min_extent_fill_;
  std::uint64_t lpn_capacity_;

  std::vector<std::uint32_t> dir_;  ///< region -> translation page index, or kNoChunk
  std::vector<Ppn> chunks_;         ///< translation pages, kTranslationPageLpns slots each
  std::size_t mapped_count_ = 0;
  std::unordered_map<Lpn, DirtyState> volatile_;  ///< first-touch persisted values
  std::unordered_map<std::uint64_t, Batch> batches_;
  std::uint64_t next_batch_ = 1;

  std::unordered_map<std::uint64_t, Frame> frames_;
  std::uint64_t extents_closed_full_ = 0;

  // committable_count() == unbatched_ - withheld_unbatched_.
  std::size_t unbatched_ = 0;           ///< volatile entries with batch == 0
  std::size_t withheld_unbatched_ = 0;  ///< sum of `unbatched` over withheld frames
};

/// Copyable mapping state: the translation-page directory and chunk store
/// plus all journal/extent bookkeeping. The chunk store holds only the
/// regions touched and the directory 4 bytes per 512 LPNs; container
/// assignment reuses capacity/buckets across capture cycles.
struct MappingTable::StateImage {
  std::vector<std::uint32_t> dir;
  std::vector<Ppn> chunks;
  std::size_t mapped_count = 0;
  std::unordered_map<Lpn, DirtyState> volatile_entries;
  std::unordered_map<std::uint64_t, Batch> batches;
  std::uint64_t next_batch = 1;
  std::unordered_map<std::uint64_t, Frame> frames;
  std::uint64_t extents_closed_full = 0;
  std::size_t unbatched = 0;
  std::size_t withheld_unbatched = 0;
};

inline void MappingTable::snapshot(StateImage& out) const {
  out.dir = dir_;
  out.chunks = chunks_;
  out.mapped_count = mapped_count_;
  out.volatile_entries = volatile_;
  out.batches = batches_;
  out.next_batch = next_batch_;
  out.frames = frames_;
  out.extents_closed_full = extents_closed_full_;
  out.unbatched = unbatched_;
  out.withheld_unbatched = withheld_unbatched_;
}

inline void MappingTable::restore(const StateImage& image) {
  dir_ = image.dir;
  chunks_ = image.chunks;
  mapped_count_ = image.mapped_count;
  volatile_ = image.volatile_entries;
  batches_ = image.batches;
  next_batch_ = image.next_batch;
  frames_ = image.frames;
  extents_closed_full_ = image.extents_closed_full;
  unbatched_ = image.unbatched;
  withheld_unbatched_ = image.withheld_unbatched;
}

}  // namespace pofi::ftl
