// NandChip: an asynchronous, power-aware NAND flash die model.
//
// Operations are queued per plane (one in-flight op per plane, as on real
// dies) and complete after technology-accurate latencies. A power loss
// freezes the die: queued ops vanish, the in-flight op on each plane is
// interrupted at an ISPP-step boundary and the page (and, for upper-page
// passes, its already-programmed wordline partners) takes damage accordingly.
// This is the physical substrate for every failure the paper observes.
#pragma once

#include <cstdint>
#include <string_view>
#include <memory>
#include <vector>

#include "nand/block_arena.hpp"
#include "nand/ecc.hpp"
#include "nand/geometry.hpp"
#include "nand/page.hpp"
#include "nand/timing.hpp"
#include "sim/inplace_function.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulator.hpp"

namespace pofi::nand {

/// What a NAND op delivers to its callback. Program and erase set only
/// `status`; a read also carries the page as seen through ECC: its content
/// tag, the raw bit errors and soft retries the decode took, and the spare
/// area (OOB). The OOB shares the data's codewords, so it is filled only
/// when the read is ok and the page is not erased; otherwise it stays
/// invalid.
struct OpResult {
  enum class Status : std::uint8_t {
    kOk,
    kUncorrectable,   ///< read: ECC could not correct the raw errors
    kPowerLost,       ///< the die was unpowered when the op was issued
    kBadBlock,        ///< program or erase on a worn-out block
    kOrderViolation,  ///< program out of the block's page order
  };
  Status status = Status::kOk;
  std::uint64_t content = kErasedContent;  ///< tag as seen through ECC
  std::uint64_t raw_errors = 0;
  std::uint32_t soft_retries = 0;
  Oob oob{};  ///< read: the spare area, as described above

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// Completion callbacks ride the event hot path (one per flash op), so they
/// use inline-storage callables: no heap allocation per operation. 128
/// bytes covers the fattest controller continuation (the FTL's PoR scan
/// chain); oversized captures are a compile error. A null callback is
/// allowed for ops whose outcome nobody reads.
using OpCallback = sim::InplaceFunction<void(const OpResult&), 128>;

struct ChipStats {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t interrupted_programs = 0;
  std::uint64_t interrupted_erases = 0;
  std::uint64_t paired_page_upsets = 0;
  std::uint64_t dropped_queued_ops = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t ispp_started = 0;        ///< programs issued to a powered die
  std::uint64_t read_bit_errors = 0;     ///< raw bit errors seen by ECC
  std::uint64_t ecc_corrected_bits = 0;  ///< raw bit errors ECC corrected
  std::uint64_t blocks_retired = 0;      ///< erases refused on a worn-out block

  /// Field-wise sum (ChipArray aggregates its dies with it).
  ChipStats& operator+=(const ChipStats& o) {
    reads += o.reads;
    programs += o.programs;
    erases += o.erases;
    uncorrectable_reads += o.uncorrectable_reads;
    interrupted_programs += o.interrupted_programs;
    interrupted_erases += o.interrupted_erases;
    paired_page_upsets += o.paired_page_upsets;
    dropped_queued_ops += o.dropped_queued_ops;
    order_violations += o.order_violations;
    ispp_started += o.ispp_started;
    read_bit_errors += o.read_bit_errors;
    ecc_corrected_bits += o.ecc_corrected_bits;
    blocks_retired += o.blocks_retired;
    return *this;
  }
};

class NandChip {
 public:
  struct Config {
    Geometry geometry;
    CellTech tech = CellTech::kMlc;
    EccKind ecc = EccKind::kBch;
    std::uint32_t endurance_pe_cycles = 3000;  ///< erases before a block wears out
    /// Pre-age the die: every block starts with this many P/E cycles (wear
    /// studies; worn cells also have wider Vt distributions, making
    /// interrupted programs and paired-page upsets more damaging).
    std::uint32_t initial_pe_cycles = 0;
    bool enforce_program_order = true;

    bool operator==(const Config&) const = default;
  };

  /// `rng_label` keeps per-die random streams independent when several
  /// dies share one simulator (see ChipArray).
  NandChip(sim::Simulator& simulator, Config config,
           std::string_view rng_label = "nand-chip");

  NandChip(const NandChip&) = delete;
  NandChip& operator=(const NandChip&) = delete;

  // --- Asynchronous command interface (used by the SSD controller) --------
  /// Each op delivers one OpResult to its callback when it completes, or at
  /// once (kPowerLost) on an unpowered die. A power loss drops the callbacks
  /// of ops it interrupts or discards.
  void read(Ppn ppn, OpCallback cb);
  void program(Ppn ppn, std::uint64_t content, OpCallback cb) {
    program(ppn, content, Oob{}, std::move(cb));
  }
  /// Program with spare-area metadata (lpn + write sequence), which a
  /// power-on recovery scan can later use to rebuild the mapping.
  void program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb);
  void erase(BlockId block, OpCallback cb);

  // --- Power interface -----------------------------------------------------
  /// Rail crossed the die's cutoff: interrupt in-flight work, drop queues.
  void on_power_lost();
  /// Rail restored; the die is usable again (persistent state kept).
  void on_power_good();
  [[nodiscard]] bool powered() const { return powered_; }

  /// Session reset: back to a factory-fresh, unpowered die with the arena's
  /// slabs retained. Precondition: the simulator's event queue has already
  /// been drained (completion events for in-flight ops must not fire into a
  /// reset die). The per-die RNG stream is re-forked from the (reseeded)
  /// master under the original label.
  void reset();

  /// True when no plane has in-flight or queued work (snapshot precondition).
  [[nodiscard]] bool quiescent() const {
    for (const Plane& p : planes_) {
      if (!p.ops.empty()) return false;
    }
    return true;
  }

  /// Copyable die state at a quiescent boundary: persistent arena contents,
  /// RNG position, power flag and statistics. Plane queues are empty by the
  /// quiescence precondition and are not captured; restore() clears them so
  /// a dirty (post-crash) die can be rewound.
  struct StateImage {
    std::array<std::uint64_t, 4> rng_state{};
    bool powered = false;
    BlockArena::StateImage arena;
    ChipStats stats;
  };

  void snapshot(StateImage& out) const {
    out.rng_state = rng_.state();
    out.powered = powered_;
    arena_.snapshot(out.arena);
    out.stats = stats_;
  }

  void restore(const StateImage& image) {
    rng_.set_state(image.rng_state);
    powered_ = image.powered;
    for (Plane& p : planes_) {
      p.ops.clear();
      p.busy = false;
    }
    arena_.restore(image.arena);
    stats_ = image.stats;
  }

  // --- Inspection (tests, analyzer ground-truthing) ------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Geometry& geometry() const { return config_.geometry; }
  [[nodiscard]] const ChipStats& stats() const { return stats_; }
  [[nodiscard]] const EccScheme& ecc() const { return *ecc_; }

  /// Direct page peek without timing or ECC (ground truth for tests). The
  /// page state lives in SoA lanes, so the returned pointer targets a
  /// per-chip snapshot slot: it stays valid (same address) until the next
  /// peek on this die, which overwrites it.
  [[nodiscard]] const Page* peek(Ppn ppn) const;
  /// peek() without the Page: status, content and OOB of page `pib` of
  /// block `b`, from the arena lanes. A never-touched block reads erased
  /// (where peek() returns nullptr).
  [[nodiscard]] PageFields page_fields(BlockId b, std::uint32_t pib) const {
    const BlockArena::Slot slot = arena_.find(b);
    return slot == BlockArena::kNoSlot ? PageFields{} : arena_.fields(slot, pib);
  }
  /// First page of block `b` that is not erased, or pages_per_block when
  /// every page is (a never-touched or lane-less block answers at once).
  [[nodiscard]] std::uint32_t first_unerased_page(BlockId b) const {
    const BlockArena::Slot slot = arena_.find(b);
    return slot == BlockArena::kNoSlot ? config_.geometry.pages_per_block
                                       : arena_.first_unerased(slot);
  }
  /// Synchronous read through the full error/ECC path, bypassing timing.
  /// Used by tests; the production path is the async read().
  [[nodiscard]] OpResult read_now(Ppn ppn);

  [[nodiscard]] std::uint32_t erase_count(BlockId b) const;
  [[nodiscard]] bool is_bad(BlockId b) const;
  /// Number of materialised (touched) blocks.
  [[nodiscard]] std::size_t touched_blocks() const { return arena_.touched_blocks(); }
  /// Whether block `b` has an arena slot (was ever touched).
  [[nodiscard]] bool materialized(BlockId b) const {
    return arena_.find(b) != BlockArena::kNoSlot;
  }
  /// Visit every materialised block, in ascending BlockId order.
  template <typename Fn>
  void for_each_materialized_block(Fn&& fn) const {
    arena_.for_each_touched(fn);
  }

 private:
  /// One queued or running op. It is built in place at the back of its
  /// plane's ring and stays there until it completes.
  struct InFlight {
    enum class Kind : std::uint8_t { kRead, kProgram, kErase } kind = Kind::kRead;
    Ppn ppn = 0;
    BlockId block = 0;
    std::uint64_t content = 0;
    Oob oob;
    sim::TimePoint start;
    sim::Duration duration;
    OpCallback cb;
    sim::EventId completion;
  };
  /// The plane's ops in issue order. When `busy`, the front is the op in
  /// flight and its completion event is armed; the rest wait behind it.
  struct Plane {
    sim::RingQueue<InFlight> ops;
    bool busy = false;
  };

  [[nodiscard]] double wear_severity(BlockArena::Slot slot) const;

  /// Queue an op on `plane_idx` (or fail it at once on an unpowered die)
  /// and start it if the plane is idle.
  void submit(std::uint32_t plane_idx, InFlight::Kind kind, Ppn ppn, BlockId block,
              sim::Duration duration, std::uint64_t content, Oob oob, OpCallback&& cb);
  void start_next(std::uint32_t plane_idx);
  void complete(std::uint32_t plane_idx);

  [[nodiscard]] OpResult finish_program(const InFlight& op);
  [[nodiscard]] OpResult finish_erase(const InFlight& op);

  /// Raw bit-error count for reading page `pib` of the block at `slot` now.
  [[nodiscard]] std::uint64_t raw_errors_for(BlockArena::Slot slot, std::uint32_t pib);
  [[nodiscard]] OpResult read_through_ecc(Ppn ppn);

  void interrupt_program(const InFlight& op);
  void interrupt_erase(const InFlight& op);
  void apply_paired_page_damage(BlockId block_id, std::uint32_t page_in_block, double severity);

  sim::Simulator& sim_;
  Config config_;
  Timing timing_;
  ErrorModel errors_;
  std::unique_ptr<EccScheme> ecc_;
  std::string rng_label_;  ///< kept so reset() re-forks the same stream
  sim::Rng rng_;
  bool powered_ = false;
  std::vector<Plane> planes_;
  BlockArena arena_;
  mutable Page peek_scratch_;  ///< snapshot slot backing peek()
  ChipStats stats_;
};

}  // namespace pofi::nand
