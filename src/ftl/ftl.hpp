// The flash translation layer.
//
// Composes the mapping table, wear-aware allocator, map journal and greedy
// garbage collector over one NandChip. All host-visible operations are
// asynchronous. The FTL is power-aware: on power loss the volatile half of
// the mapping reverts (journal batches in flight included) and physical-page
// accounting is repaired; recovery opens fresh active blocks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ftl/allocator.hpp"
#include "ftl/mapping.hpp"
#include "ftl/types.hpp"
#include "nand/chip_array.hpp"
#include "sim/inplace_function.hpp"
#include "sim/simulator.hpp"

namespace pofi::ftl {

struct FtlStats {
  std::uint64_t host_writes = 0;
  std::uint64_t host_reads = 0;
  std::uint64_t por_pages_scanned = 0;
  std::uint64_t por_entries_recovered = 0;
  std::uint64_t failed_writes = 0;    ///< no space / bad block / power
  std::uint64_t gc_relocations = 0;
  std::uint64_t gc_erases = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t journal_entries_persisted = 0;
  std::uint64_t map_updates_reverted = 0;  ///< across all power losses
  std::uint64_t extents_coalesced = 0;
  std::uint64_t gc_invocations = 0;
  std::uint64_t badblocks_retired = 0;  ///< GC victims that wore out
};

class Ftl {
 public:
  struct Config {
    MappingPolicy mapping_policy = MappingPolicy::kHybridExtent;
    /// Journal cadence: a batch is cut on whichever comes first.
    sim::Duration journal_interval = sim::Duration::ms(50);
    std::size_t journal_batch_threshold = 4096;
    /// GC starts when the free pool dips below this many blocks.
    std::size_t gc_low_watermark = 6;
    /// Hybrid-extent policy: frame size for sequential-stream detection.
    /// Must exceed the largest single request (256 pages = 1 MiB) so only
    /// genuine multi-request sequential streams are coalesced.
    std::uint32_t extent_frame_pages = 512;
    /// Dirty pages within a frame before it is treated as a growing extent
    /// (just above the largest single request, so only streams qualify).
    std::uint32_t extent_min_fill = 260;
    /// Commodity controllers install the L2P entry when the program is
    /// issued, not when it verifies; a power fault can then leave the map
    /// pointing at a partially-programmed page (the paper's garbage-read
    /// data failures). false = conservative map-on-completion (enterprise).
    bool map_update_on_issue = true;
    /// LPN address-space size; sizes the L2P translation-page directory.
    /// 0 derives it from the chip array's geometry at construction (the
    /// normal path; ssd::Ssd threads its device geometry through here).
    std::uint64_t lpn_capacity = 0;
    /// Power-on recovery: after a crash, scan recently-programmed blocks'
    /// spare areas (lpn + write-sequence stamps) and rebuild mapping entries
    /// newer than the last journal checkpoint. Recovers flushed-but-
    /// unjournaled data at the cost of a longer mount. Off by default: the
    /// paper's commodity drives demonstrably do not manage this.
    bool por_scan = false;

    bool operator==(const Config&) const = default;
  };

  /// The LPN space the L2P map covers: `config.lpn_capacity`, or every page
  /// of the chip array's flat geometry when that is 0. Host LPNs at or past
  /// it are outside the drive.
  [[nodiscard]] static std::uint64_t lpn_space(const Config& config,
                                               const nand::Geometry& array_geometry) {
    return config.lpn_capacity != 0 ? config.lpn_capacity : array_geometry.total_pages();
  }

  /// Write completion: ok=false on power loss, bad block or full device.
  /// Inline storage, so a write allocates nothing for its completion; 48
  /// bytes fit the fattest caller, Ssd's write-through continuation (this,
  /// epoch and two shared_ptrs).
  using WriteCallback = sim::InplaceFunction<void(bool ok), 48>;
  /// Read completion: the chip's own callback, handed to the NAND read
  /// unwrapped. A never-written LPN completes at once with kErasedContent
  /// (kPowerLost when the FTL is unpowered).
  using ReadCallback = nand::OpCallback;

  Ftl(sim::Simulator& simulator, nand::ChipArray& chips, Config config);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  void write(Lpn lpn, std::uint64_t content, WriteCallback cb);
  void read(Lpn lpn, ReadCallback cb);
  void trim(Lpn lpn);

  /// Rail crossed cutoff: revert volatile mapping, repair accounting, halt
  /// background machinery.
  void on_power_lost();
  /// Rail restored: reopen active blocks and restart the journal.
  void on_power_good();

  /// Session reset: back to the just-constructed (unpowered, empty-map)
  /// state with container capacities retained. Precondition: the simulator's
  /// events are already drained (journal ticks, GC chains and PoR scans must
  /// not fire into a reset FTL).
  void reset();

  /// True when no background machinery could fire an event: GC idle, no
  /// journal batch in flight, no host FLUSH draining (snapshot precondition;
  /// the periodic journal tick may be armed — it is captured as a timer).
  [[nodiscard]] bool quiescent() const {
    return !gc_running_ && !journal_in_flight_ && !draining_ && drain_waiters_.empty();
  }

  /// Deliberately broken recovery paths, used to prove the invariant auditor
  /// can catch real bugs. kSkipLastJournalRecord mimics a replay that drops
  /// the newest committed journal entry: on the next power loss the FTL
  /// silently forgets the last durably-journaled mapping (without repairing
  /// valid counts or the reverse map, exactly as a skipped record would).
  enum class TortureFault : std::uint8_t { kNone, kSkipLastJournalRecord };

  /// Copyable FTL state at a quiescent boundary. The armed journal tick is
  /// captured as a TimerImage; restore() re-creates its callback and hands
  /// the re-arm to the TimerRearmer so tie-breaks replay in original order.
  struct StateImage {
    MappingTable::StateImage map;
    BlockAllocator::StateImage alloc;
    FtlStats stats;
    std::vector<Lpn> reverse_map;
    std::vector<std::uint32_t> valid_count;
    bool powered = false;
    bool emergency = false;
    std::uint64_t write_seq = 1;
    std::uint64_t checkpoint_seq = 0;
    std::uint64_t journal_horizon = 0;
    std::vector<Lpn> last_reverted_lpns;
    std::optional<Lpn> last_committed_lpn;
    TortureFault torture_fault = TortureFault::kNone;
    std::unordered_set<BlockId> por_candidates;
    sim::TimerImage journal_timer;
  };

  void snapshot(StateImage& out) const;
  void restore(const StateImage& image, sim::TimerRearmer& rearm);

  /// Whether the periodic journal tick is currently scheduled (quiescence
  /// census: armed re-armable timers are the only events a quiescent stack
  /// may hold).
  [[nodiscard]] bool journal_timer_armed() const { return sim_.event_pending(journal_event_); }

  /// Power-on recovery scan (no-op unless config.por_scan): read the spare
  /// areas of candidate blocks, re-install mapping entries newer than the
  /// journal checkpoint, then checkpoint. `done` fires when the scan (and
  /// its checkpoint) completes. Call after on_power_good().
  void recover_por(std::function<void()> done);

  [[nodiscard]] const MappingTable& mapping() const { return map_; }
  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t free_blocks() const { return alloc_.free_blocks(); }
  [[nodiscard]] bool gc_running() const { return gc_running_; }

  // --- Audit interface (read-only; src/torture/) ----------------------------
  [[nodiscard]] const BlockAllocator& allocator() const { return alloc_; }
  /// LPN this physical page holds, or kUnmappedLpn for dead/never-written.
  [[nodiscard]] Lpn reverse_lpn(Ppn ppn) const {
    return ppn < reverse_map_.size() ? reverse_map_[ppn] : kUnmappedLpn;
  }
  /// Live-page count the FTL believes `block` has.
  [[nodiscard]] std::uint32_t valid_count(BlockId block) const {
    return block < valid_count_.size() ? valid_count_[block] : 0;
  }
  [[nodiscard]] std::uint64_t write_seq() const { return write_seq_; }
  [[nodiscard]] std::uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  /// Highest OOB write-sequence stamp covered by a durably committed journal
  /// batch. Any *persisted* (non-volatile) mapping must carry seq <= horizon;
  /// a newer one means journal replay lost or skipped a record.
  [[nodiscard]] std::uint64_t journal_horizon() const { return journal_horizon_; }
  /// LPNs whose mapping was reverted by the most recent power loss — the
  /// FTL's own declaration of which ACKed writes it knowingly rolled back
  /// (FWA candidates). Sorted; cleared on reset, replaced on each loss.
  [[nodiscard]] const std::vector<Lpn>& last_reverted_lpns() const {
    return last_reverted_lpns_;
  }

  // --- Torture fault hooks (tests + torture exploration only) ---------------
  void set_torture_fault(TortureFault fault) { torture_fault_ = fault; }

  /// Test-only corruption hooks for auditor self-tests: desynchronise the
  /// map from physical accounting in targeted ways.
  void debug_corrupt_map(Lpn lpn, Ppn ppn) { map_.debug_set_slot(lpn, ppn); }
  void debug_corrupt_drop_mapping(Lpn lpn) { map_.debug_clear_slot(lpn); }
  void debug_set_valid_count(BlockId block, std::uint32_t count) {
    if (block < valid_count_.size()) valid_count_[block] = count;
  }
  /// Mutable allocator access for BlockAllocator::debug_force_free.
  [[nodiscard]] BlockAllocator& debug_allocator() { return alloc_; }

  /// Force a journal flush now (used by PLP emergency shutdown and tests).
  void flush_journal_now();

  /// Emergency (PLP) mode: journal batches include withheld extents and are
  /// re-cut immediately after each commit until the map is fully persisted.
  void set_emergency(bool on);

  /// Host FLUSH semantics: persist every volatile mapping (withheld extents
  /// included), then fire `done`. Fires immediately if nothing is volatile;
  /// dropped (never fired) if power is lost first.
  void flush_all(std::function<void()> done);

 private:
  void finish_host_write(Lpn lpn, Ppn ppn, std::uint64_t content);
  void invalidate(Ppn ppn);
  void make_valid(Lpn lpn, Ppn ppn);

  void schedule_journal_tick();
  void journal_tick();
  void persist_batch(std::uint64_t batch);

  void maybe_start_gc();
  void gc_relocate_next(BlockId victim, std::uint32_t page_index);
  void gc_erase_victim(BlockId victim);

  sim::Simulator& sim_;
  nand::ChipArray& chip_;
  Config config_;
  MappingTable map_;
  BlockAllocator alloc_;
  FtlStats stats_;

  // Dense, never iterated: flat vectors beat hash maps on the write hot
  // path (see dense.hpp). reverse_map_ holds kUnmappedLpn for dead pages;
  // valid_count_ defaults to 0 for blocks never written.
  std::vector<Lpn> reverse_map_;
  std::vector<std::uint32_t> valid_count_;

  bool powered_ = false;
  bool gc_running_ = false;
  bool journal_in_flight_ = false;
  bool emergency_ = false;
  bool draining_ = false;
  std::vector<std::function<void()>> drain_waiters_;
  sim::EventId journal_event_{};

  // Power-on recovery state.
  std::uint64_t write_seq_ = 1;            ///< global OOB sequence stamp
  std::uint64_t checkpoint_seq_ = 0;  ///< highest seq covered by the journal
  std::uint64_t journal_horizon_ = 0;  ///< highest committed batch cut_seq
  std::vector<Lpn> last_reverted_lpns_;  ///< declared FWA set, latest loss
  std::optional<Lpn> last_committed_lpn_;  ///< newest journaled LPN (fault hook)
  TortureFault torture_fault_ = TortureFault::kNone;
  std::unordered_set<BlockId> por_candidates_;  ///< blocks with post-checkpoint data
  struct PorHit {
    Ppn ppn;
    std::uint64_t seq;
  };
  void por_scan_next(std::shared_ptr<std::vector<Ppn>> pages, std::size_t index,
                     std::shared_ptr<std::unordered_map<Lpn, PorHit>> hits,
                     std::function<void()> done);
  void por_apply(const std::unordered_map<Lpn, PorHit>& hits, std::function<void()> done);
  void por_apply_next(std::shared_ptr<std::vector<std::pair<Lpn, PorHit>>> remaining,
                      std::function<void()> done);
  void install_por_hit(Lpn lpn, const PorHit& hit, std::optional<Ppn> current);

  /// Close the GC trace span on whichever of the collector's many exit
  /// paths fires (TraceLog tolerates unmatched ends).
  void obs_gc_span_end();

  // Observability handles (no-ops unless a registry is attached to sim_).
  std::uint32_t obs_span_gc_ = 0;
  std::uint32_t obs_span_journal_ = 0;
  std::uint32_t obs_span_por_ = 0;
};

}  // namespace pofi::ftl
