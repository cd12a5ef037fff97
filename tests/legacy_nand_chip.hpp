// Frozen pre-arena NandChip: the unordered_map<BlockId, Block> + AoS
// vector<Page> implementation exactly as it shipped before the BlockArena
// refactor. Kept as the *reference model* for the differential fuzz in
// nand_chip_fuzz_test.cpp: both chips are driven through identical op/fault
// sequences from identical RNG streams and must agree on every observable
// (page snapshots, stats, erase counts, bad blocks, touched_blocks).
//
// Do not modernise this file; its value is being the old implementation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nand/chip.hpp"
#include "nand/ecc.hpp"
#include "nand/geometry.hpp"
#include "nand/page.hpp"
#include "nand/timing.hpp"
#include "obs/metrics.hpp"
#include "sim/inplace_function.hpp"
#include "sim/simulator.hpp"

namespace pofi::nand::legacy {

/// The old result types, frozen with the chip: before the command interface
/// was unified, a page read and a program/erase completed with different
/// structs, and read_oob with a third (LegacyNandChip::OobResult).
struct ReadResult {
  enum class Status : std::uint8_t { kOk, kUncorrectable, kPowerLost };
  Status status = Status::kOk;
  std::uint64_t content = kErasedContent;  ///< tag as seen through ECC
  std::uint64_t raw_errors = 0;
  std::uint32_t soft_retries = 0;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

struct OpResult {
  enum class Status : std::uint8_t { kOk, kPowerLost, kBadBlock, kOrderViolation };
  Status status = Status::kOk;
  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// The old AoS block: a heap vector of ~40-byte Page structs per block.
struct LegacyBlock {
  explicit LegacyBlock(std::uint32_t pages_per_block) : pages(pages_per_block) {}

  std::vector<Page> pages;
  std::uint32_t erase_count = 0;
  std::uint32_t reads_since_erase = 0;
  std::uint32_t programs_since_erase = 0;
  std::uint32_t next_program_page = 0;  ///< in-order programming cursor
  bool bad = false;
  bool partially_erased = false;
};

class LegacyNandChip {
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
  };

  /// Completion callbacks ride the event hot path (one per flash op), so
  /// they use inline-storage callables: no heap allocation per operation.
  /// 128 bytes covers the fattest controller continuation (the FTL's PoR
  /// scan chain); oversized captures are a compile error.
  using ReadCallback = sim::InplaceFunction<void(ReadResult), 128>;
  using OpCallback = sim::InplaceFunction<void(OpResult), 128>;

  /// `rng_label` keeps per-die random streams independent when several
  /// dies share one simulator (see ChipArray).
  LegacyNandChip(sim::Simulator& simulator, Config config,
           std::string_view rng_label = "nand-chip");

  LegacyNandChip(const LegacyNandChip&) = delete;
  LegacyNandChip& operator=(const LegacyNandChip&) = delete;

  // --- Asynchronous command interface (used by the SSD controller) --------
  void read(Ppn ppn, ReadCallback cb);
  void program(Ppn ppn, std::uint64_t content, OpCallback cb) {
    program(ppn, content, Oob{}, std::move(cb));
  }
  /// Program with spare-area metadata (lpn + write sequence), which a
  /// power-on recovery scan can later use to rebuild the mapping.
  void program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb);
  void erase(BlockId block, OpCallback cb);

  /// Read only the spare area: same timing and ECC fate as a page read.
  struct OobResult {
    bool ok = false;  ///< false when the page is uncorrectable/unpowered
    Oob oob;
  };
  using OobCallback = sim::InplaceFunction<void(OobResult), 128>;
  void read_oob(Ppn ppn, OobCallback cb);

  // --- Power interface -----------------------------------------------------
  /// Rail crossed the die's cutoff: interrupt in-flight work, drop queues.
  void on_power_lost();
  /// Rail restored; the die is usable again (persistent state kept).
  void on_power_good();
  [[nodiscard]] bool powered() const { return powered_; }

  // --- Inspection (tests, analyzer ground-truthing) ------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Geometry& geometry() const { return config_.geometry; }
  [[nodiscard]] const ChipStats& stats() const { return stats_; }
  [[nodiscard]] const EccScheme& ecc() const { return *ecc_; }

  /// Direct page peek without timing or ECC (ground truth for tests).
  [[nodiscard]] const Page* peek(Ppn ppn) const;
  /// Synchronous read through the full error/ECC path, bypassing timing.
  /// Used by tests; the production path is the async read().
  [[nodiscard]] ReadResult read_now(Ppn ppn);

  [[nodiscard]] std::uint32_t erase_count(BlockId b) const;
  [[nodiscard]] bool is_bad(BlockId b) const;
  /// Number of materialised (touched) blocks.
  [[nodiscard]] std::size_t touched_blocks() const { return blocks_.size(); }

 private:
  struct InFlight {
    enum class Kind : std::uint8_t { kRead, kProgram, kErase, kReadOob } kind = Kind::kRead;
    Ppn ppn = 0;
    BlockId block = 0;
    std::uint64_t content = 0;
    Oob oob;
    sim::TimePoint start;
    sim::Duration duration;
    ReadCallback read_cb;
    OpCallback op_cb;
    OobCallback oob_cb;
    sim::EventId completion;
  };
  struct Plane {
    std::optional<InFlight> busy;
    std::deque<InFlight> queue;
  };

  LegacyBlock& touch_block(BlockId b);
  [[nodiscard]] const LegacyBlock* find_block(BlockId b) const;
  [[nodiscard]] double wear_severity(const LegacyBlock& block) const;

  void enqueue(std::uint32_t plane_idx, InFlight op);
  void start_next(std::uint32_t plane_idx);
  void complete(std::uint32_t plane_idx);

  void finish_read(InFlight& op);
  void finish_read_oob(InFlight& op);
  void finish_program(InFlight& op);
  void finish_erase(InFlight& op);

  /// Raw bit-error count for reading `page` in `block` right now.
  [[nodiscard]] std::uint64_t raw_errors_for(const Page& page, const LegacyBlock& block);
  [[nodiscard]] ReadResult read_through_ecc(Ppn ppn);

  void interrupt_program(InFlight& op);
  void interrupt_erase(InFlight& op);
  void apply_paired_page_damage(BlockId block_id, std::uint32_t page_in_block, double severity);

  sim::Simulator& sim_;
  Config config_;
  Timing timing_;
  ErrorModel errors_;
  std::unique_ptr<EccScheme> ecc_;
  sim::Rng rng_;
  bool powered_ = false;
  std::vector<Plane> planes_;
  std::unordered_map<BlockId, LegacyBlock> blocks_;
  ChipStats stats_;

  // Observability handles (no-ops unless a registry is attached to sim_).
  // Registration is name-deduped, so the dies of a ChipArray aggregate.
  obs::MetricId obs_ispp_started_ = obs::kNoMetric;
  obs::MetricId obs_ispp_interrupted_ = obs::kNoMetric;
  obs::MetricId obs_erase_interrupted_ = obs::kNoMetric;
  obs::MetricId obs_bit_errors_ = obs::kNoMetric;
  obs::MetricId obs_ecc_corrected_ = obs::kNoMetric;
  obs::MetricId obs_ecc_uncorrectable_ = obs::kNoMetric;
  obs::MetricId obs_paired_upsets_ = obs::kNoMetric;
  obs::MetricId obs_blocks_retired_ = obs::kNoMetric;
};


inline LegacyNandChip::LegacyNandChip(sim::Simulator& simulator, Config config,
                                      std::string_view rng_label)
    : sim_(simulator),
      config_(config),
      timing_(timing_for(config.tech)),
      errors_(error_model_for(config.tech)),
      ecc_(make_ecc(config.ecc)),
      rng_(simulator.fork_rng(rng_label)),
      planes_(config.geometry.planes) {
  if (auto* m = sim_.metrics()) {
    obs_ispp_started_ = m->counter("nand.ispp.started");
    obs_ispp_interrupted_ = m->counter("nand.ispp.interrupted");
    obs_erase_interrupted_ = m->counter("nand.erase.interrupted");
    obs_bit_errors_ = m->counter("nand.read.bit_errors");
    obs_ecc_corrected_ = m->counter("nand.ecc.corrected");
    obs_ecc_uncorrectable_ = m->counter("nand.ecc.uncorrectable");
    obs_paired_upsets_ = m->counter("nand.paired_page.upsets");
    obs_blocks_retired_ = m->counter("nand.block.retired");
  }
}

inline LegacyBlock& LegacyNandChip::touch_block(BlockId b) {
  auto it = blocks_.find(b);
  if (it == blocks_.end()) {
    it = blocks_.emplace(b, LegacyBlock(config_.geometry.pages_per_block)).first;
    it->second.erase_count = config_.initial_pe_cycles;
  }
  return it->second;
}

inline double LegacyNandChip::wear_severity(const LegacyBlock& block) const {
  // Worn cells have wider threshold-voltage distributions: the same
  // interruption or paired-page upset lands more raw errors near end of
  // life. Superlinear in wear (distribution tails fatten late in life),
  // quadrupling the damage at the endurance limit.
  const double ratio = static_cast<double>(block.erase_count) /
                       std::max(1u, config_.endurance_pe_cycles);
  return 1.0 + 3.0 * ratio * ratio;
}

inline const LegacyBlock* LegacyNandChip::find_block(BlockId b) const {
  const auto it = blocks_.find(b);
  return it == blocks_.end() ? nullptr : &it->second;
}

inline const Page* LegacyNandChip::peek(Ppn ppn) const {
  const LegacyBlock* b = find_block(config_.geometry.block_of(ppn));
  if (b == nullptr) return nullptr;
  return &b->pages[config_.geometry.page_in_block(ppn)];
}

inline std::uint32_t LegacyNandChip::erase_count(BlockId b) const {
  const LegacyBlock* blk = find_block(b);
  return blk == nullptr ? 0 : blk->erase_count;
}

inline bool LegacyNandChip::is_bad(BlockId b) const {
  const LegacyBlock* blk = find_block(b);
  return blk != nullptr && blk->bad;
}

// ------------------------------------------------------------- submission

inline void LegacyNandChip::read(Ppn ppn, ReadCallback cb) {
  if (!powered_) {
    cb(ReadResult{ReadResult::Status::kPowerLost, kErasedContent, 0, 0});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kRead;
  op.ppn = ppn;
  op.block = config_.geometry.block_of(ppn);
  op.duration = timing_.read_page;
  op.read_cb = std::move(cb);
  enqueue(config_.geometry.plane_of(ppn), std::move(op));
}

inline void LegacyNandChip::program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb) {
  if (!powered_) {
    cb(OpResult{OpResult::Status::kPowerLost});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kProgram;
  op.ppn = ppn;
  op.block = config_.geometry.block_of(ppn);
  op.content = content;
  op.oob = oob;
  const PageRole role = page_role(config_.tech, config_.geometry.page_in_block(ppn));
  op.duration = timing_.program_time(role);
  op.op_cb = std::move(cb);
  if (auto* m = sim_.metrics()) m->add(obs_ispp_started_);
  enqueue(config_.geometry.plane_of(ppn), std::move(op));
}

inline void LegacyNandChip::read_oob(Ppn ppn, OobCallback cb) {
  if (!powered_) {
    cb(OobResult{});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kReadOob;
  op.ppn = ppn;
  op.block = config_.geometry.block_of(ppn);
  op.duration = timing_.read_page;
  op.oob_cb = std::move(cb);
  enqueue(config_.geometry.plane_of(ppn), std::move(op));
}

inline void LegacyNandChip::erase(BlockId block, OpCallback cb) {
  if (!powered_) {
    cb(OpResult{OpResult::Status::kPowerLost});
    return;
  }
  InFlight op;
  op.kind = InFlight::Kind::kErase;
  op.block = block;
  op.ppn = config_.geometry.first_page(block);
  op.duration = timing_.erase_block;
  op.op_cb = std::move(cb);
  enqueue(static_cast<std::uint32_t>(block % config_.geometry.planes), std::move(op));
}

inline void LegacyNandChip::enqueue(std::uint32_t plane_idx, InFlight op) {
  Plane& plane = planes_[plane_idx];
  plane.queue.push_back(std::move(op));
  if (!plane.busy.has_value()) start_next(plane_idx);
}

inline void LegacyNandChip::start_next(std::uint32_t plane_idx) {
  Plane& plane = planes_[plane_idx];
  if (plane.busy.has_value() || plane.queue.empty() || !powered_) return;
  plane.busy = std::move(plane.queue.front());
  plane.queue.pop_front();
  InFlight& op = *plane.busy;
  op.start = sim_.now();
  op.completion = sim_.after(op.duration, [this, plane_idx] { complete(plane_idx); });
}

inline void LegacyNandChip::complete(std::uint32_t plane_idx) {
  Plane& plane = planes_[plane_idx];
  assert(plane.busy.has_value());
  InFlight op = std::move(*plane.busy);
  plane.busy.reset();
  switch (op.kind) {
    case InFlight::Kind::kRead: finish_read(op); break;
    case InFlight::Kind::kReadOob: finish_read_oob(op); break;
    case InFlight::Kind::kProgram: finish_program(op); break;
    case InFlight::Kind::kErase: finish_erase(op); break;
  }
  start_next(plane_idx);
}

// -------------------------------------------------------------- completion

inline std::uint64_t LegacyNandChip::raw_errors_for(const Page& page, const LegacyBlock& block) {
  const double bits = static_cast<double>(config_.geometry.page_bits());
  double ber = 0.0;
  switch (page.status) {
    case PageStatus::kErased:
      // A clean erased page has no errors to read; but inside a partially-
      // erased block even "erased" cells sit at unstable thresholds.
      if (!block.partially_erased) return page.upset_errors;
      break;  // fall through to the partially_erased bump below
    case PageStatus::kValid:
      ber = errors_.base_ber + errors_.ber_per_pe_cycle * block.erase_count +
            errors_.read_disturb_ber * block.reads_since_erase +
            errors_.program_disturb_ber * block.programs_since_erase;
      break;
    case PageStatus::kPartial: {
      const double incomplete = 1.0 - static_cast<double>(page.progress);
      ber = 0.5 * std::pow(incomplete, errors_.interrupt_shape) * wear_severity(block) +
            errors_.base_ber;
      break;
    }
    case PageStatus::kCorrupt:
      // Undefined cell states: a quarter of the bits read wrong.
      return static_cast<std::uint64_t>(bits / 4.0) + page.upset_errors;
  }
  if (block.partially_erased) ber += 0.05;  // unstable threshold voltages
  const double lambda = ber * bits;
  return rng_.poisson(lambda) + page.upset_errors;
}

inline ReadResult LegacyNandChip::read_through_ecc(Ppn ppn) {
  LegacyBlock& block = touch_block(config_.geometry.block_of(ppn));
  Page& page = block.pages[config_.geometry.page_in_block(ppn)];
  block.reads_since_erase += 1;

  ReadResult result;
  result.raw_errors = raw_errors_for(page, block);
  const DecodeOutcome out = ecc_->decode(config_.geometry.page_bits(), result.raw_errors, rng_);
  result.soft_retries = out.soft_retries;
  if (out.correctable) {
    result.status = ReadResult::Status::kOk;
    result.content = page.content;
  } else {
    result.status = ReadResult::Status::kUncorrectable;
    // Deterministic garbage distinct from any allocated tag.
    result.content = page.content ^ (0x9e3779b97f4a7c15ULL * (result.raw_errors | 1ULL));
    ++stats_.uncorrectable_reads;
  }
  if (auto* m = sim_.metrics()) {
    m->add(obs_bit_errors_, result.raw_errors);
    if (out.correctable && result.raw_errors > 0) {
      m->add(obs_ecc_corrected_, result.raw_errors);
    } else if (!out.correctable) {
      m->add(obs_ecc_uncorrectable_);
    }
  }
  return result;
}

inline void LegacyNandChip::finish_read(InFlight& op) {
  ++stats_.reads;
  ReadResult result = read_through_ecc(op.ppn);
  if (op.read_cb) op.read_cb(result);
}

inline void LegacyNandChip::finish_read_oob(InFlight& op) {
  ++stats_.reads;
  // The spare area is covered by the same codewords as the data: its
  // readability shares the page's ECC fate.
  const ReadResult page = read_through_ecc(op.ppn);
  OobResult result;
  if (page.ok()) {
    const Page* p = peek(op.ppn);
    if (p != nullptr && p->status != PageStatus::kErased) {
      result.ok = true;
      result.oob = p->oob;
    }
  }
  if (op.oob_cb) op.oob_cb(result);
}

inline ReadResult LegacyNandChip::read_now(Ppn ppn) {
  ++stats_.reads;
  return read_through_ecc(ppn);
}

inline void LegacyNandChip::finish_program(InFlight& op) {
  LegacyBlock& block = touch_block(op.block);
  const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
  if (block.bad) {
    if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kBadBlock});
    return;
  }
  if (config_.enforce_program_order && pib != block.next_program_page) {
    ++stats_.order_violations;
    if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kOrderViolation});
    return;
  }
  Page& page = block.pages[pib];
  page.status = PageStatus::kValid;
  page.progress = 1.0f;
  page.content = op.content;
  page.oob = op.oob;
  page.upset_errors = 0;
  block.programs_since_erase += 1;
  block.next_program_page = pib + 1;
  ++stats_.programs;
  if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kOk});
}

inline void LegacyNandChip::finish_erase(InFlight& op) {
  LegacyBlock& block = touch_block(op.block);
  if (block.erase_count >= config_.endurance_pe_cycles) {
    block.bad = true;
    if (auto* m = sim_.metrics()) m->add(obs_blocks_retired_);
    if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kBadBlock});
    return;
  }
  for (Page& p : block.pages) p = Page{};
  block.erase_count += 1;
  block.reads_since_erase = 0;
  block.programs_since_erase = 0;
  block.next_program_page = 0;
  block.partially_erased = false;
  ++stats_.erases;
  if (op.op_cb) op.op_cb(OpResult{OpResult::Status::kOk});
}

// -------------------------------------------------------------- power loss

inline void LegacyNandChip::on_power_lost() {
  if (!powered_) return;
  powered_ = false;
  for (auto& plane : planes_) {
    stats_.dropped_queued_ops += plane.queue.size();
    plane.queue.clear();
    if (!plane.busy.has_value()) continue;
    InFlight& op = *plane.busy;
    sim_.cancel(op.completion);
    switch (op.kind) {
      case InFlight::Kind::kRead:
      case InFlight::Kind::kReadOob:
        break;  // reads leave no trace on the array
      case InFlight::Kind::kProgram:
        interrupt_program(op);
        break;
      case InFlight::Kind::kErase:
        interrupt_erase(op);
        break;
    }
    // No callbacks: the controller that issued these just lost power too.
    plane.busy.reset();
  }
}

inline void LegacyNandChip::on_power_good() { powered_ = true; }

inline void LegacyNandChip::interrupt_program(InFlight& op) {
  ++stats_.interrupted_programs;
  if (auto* m = sim_.metrics()) m->add(obs_ispp_interrupted_);
  LegacyBlock& block = touch_block(op.block);
  const std::uint32_t pib = config_.geometry.page_in_block(op.ppn);
  Page& page = block.pages[pib];
  const PageRole role = page_role(config_.tech, pib);
  const std::uint32_t steps = timing_.ispp_steps(role);

  const double frac = std::clamp(
      (sim_.now() - op.start).to_sec() / std::max(1e-12, op.duration.to_sec()), 0.0, 1.0);
  // Interruption lands on an ISPP step boundary: completed pulses stick.
  const double progress =
      std::floor(frac * static_cast<double>(steps)) / static_cast<double>(steps);

  if (progress >= 1.0) {
    // All pulses and the final verify finished; effectively a completed
    // program whose ACK never made it out of the die.
    page.status = PageStatus::kValid;
    page.progress = 1.0f;
    page.content = op.content;
    page.oob = op.oob;
    block.programs_since_erase += 1;
    block.next_program_page = pib + 1;
    return;
  }
  page.status = PageStatus::kPartial;
  page.progress = static_cast<float>(progress);
  page.content = op.content;
  page.oob = op.oob;
  block.programs_since_erase += 1;
  block.next_program_page = pib + 1;  // the cursor burned this page either way

  // Interrupting a later pass on a shared wordline shifts charge under the
  // partners that were already programmed and ACKed (the paper's corruption
  // of previously-written data, present even with the DRAM cache off).
  if (role != PageRole::kLower) {
    apply_paired_page_damage(op.block, pib, 1.0 - progress);
  }
}

inline void LegacyNandChip::apply_paired_page_damage(BlockId block_id, std::uint32_t page_in_block,
                                        double severity) {
  if (errors_.paired_page_upset_ber <= 0.0) return;
  LegacyBlock& block = touch_block(block_id);
  const std::uint32_t base = wordline_base(config_.tech, page_in_block);
  const double bits = static_cast<double>(config_.geometry.page_bits());
  for (std::uint32_t p = base; p < page_in_block && p < block.pages.size(); ++p) {
    Page& partner = block.pages[p];
    if (partner.status != PageStatus::kValid) continue;
    const double lambda =
        errors_.paired_page_upset_ber * severity * wear_severity(block) * bits;
    const std::uint64_t upset = rng_.poisson(lambda);
    if (upset == 0) continue;
    partner.upset_errors += static_cast<std::uint32_t>(
        std::min<std::uint64_t>(upset, std::numeric_limits<std::uint32_t>::max() -
                                           partner.upset_errors));
    ++stats_.paired_page_upsets;
    if (auto* m = sim_.metrics()) m->add(obs_paired_upsets_);
  }
}

inline void LegacyNandChip::interrupt_erase(InFlight& op) {
  ++stats_.interrupted_erases;
  if (auto* m = sim_.metrics()) m->add(obs_erase_interrupted_);
  LegacyBlock& block = touch_block(op.block);
  const double frac = std::clamp(
      (sim_.now() - op.start).to_sec() / std::max(1e-12, op.duration.to_sec()), 0.0, 1.0);
  if (frac >= 1.0) {
    // Completed under dying power; treat as a normal erase.
    for (Page& p : block.pages) p = Page{};
    block.erase_count += 1;
    block.reads_since_erase = 0;
    block.programs_since_erase = 0;
    block.next_program_page = 0;
    block.partially_erased = false;
    return;
  }
  // Cells are somewhere between their old states and erased: every page that
  // held data is now undefined, and the whole block reads unstably until a
  // clean erase completes.
  for (Page& p : block.pages) {
    if (p.status == PageStatus::kValid || p.status == PageStatus::kPartial) {
      p.status = PageStatus::kCorrupt;
    }
  }
  block.partially_erased = true;
}

}  // namespace pofi::nand::legacy
