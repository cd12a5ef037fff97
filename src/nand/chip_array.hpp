// ChipArray: the SSD's full NAND complement — `channels` independent dies
// behind independent channel buses.
//
// Global physical addressing interleaves blocks across channels (global
// block b lives on chip b % channels), so consecutively-allocated blocks
// spread over every die and channel-level parallelism falls out of the
// allocator's striping. The array mirrors the single-chip command interface
// with global PPNs/BlockIds and fans power events out to every die.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nand/chip.hpp"

namespace pofi::nand {

class ChipArray {
 public:
  struct Config {
    std::uint32_t channels = 1;
    /// Per-die configuration (geometry describes ONE die).
    NandChip::Config chip;

    bool operator==(const Config&) const = default;
  };

  ChipArray(sim::Simulator& simulator, Config config);

  /// The flat geometry an array of `config` presents (see geometry()).
  [[nodiscard]] static Geometry flat_geometry(const Config& config) {
    Geometry g = config.chip.geometry;
    g.planes = config.chip.geometry.planes * config.channels;
    return g;
  }

  ChipArray(const ChipArray&) = delete;
  ChipArray& operator=(const ChipArray&) = delete;

  /// Address space the FTL sees: one flat geometry whose plane count is
  /// channels x per-die planes (each "lane" is a real (die, plane) pair).
  [[nodiscard]] const Geometry& geometry() const { return effective_geometry_; }
  [[nodiscard]] std::uint32_t channels() const { return config_.channels; }
  [[nodiscard]] const NandChip::Config& chip_config() const { return config_.chip; }

  // --- Command interface (global addresses), mirrors NandChip -------------
  void read(Ppn ppn, OpCallback cb);
  void program(Ppn ppn, std::uint64_t content, OpCallback cb) {
    program(ppn, content, Oob{}, std::move(cb));
  }
  void program(Ppn ppn, std::uint64_t content, Oob oob, OpCallback cb);
  void erase(BlockId block, OpCallback cb);

  // --- Power ----------------------------------------------------------------
  void on_power_lost();
  void on_power_good();
  [[nodiscard]] bool powered() const;

  /// Session reset: reset every die (see NandChip::reset preconditions).
  void reset() {
    for (auto& chip : chips_) chip->reset();
  }

  [[nodiscard]] bool quiescent() const {
    for (const auto& chip : chips_) {
      if (!chip->quiescent()) return false;
    }
    return true;
  }

  /// Per-die images, in channel order. The vector is sized on first capture
  /// and reused afterwards.
  struct StateImage {
    std::vector<NandChip::StateImage> dies;
  };

  void snapshot(StateImage& out) const {
    out.dies.resize(chips_.size());
    for (std::size_t i = 0; i < chips_.size(); ++i) chips_[i]->snapshot(out.dies[i]);
  }

  void restore(const StateImage& image) {
    for (std::size_t i = 0; i < chips_.size(); ++i) chips_[i]->restore(image.dies[i]);
  }

  // --- Inspection (global addressing) ----------------------------------------
  [[nodiscard]] const Page* peek(Ppn ppn) const;
  /// peek() for audits: decodes `ppn` once into block, page in block and
  /// die, then reads status, content and OOB straight from that die's lanes.
  /// Builds no Page and leaves every die's peek() slot alone. A page of a
  /// never-touched block, or past the geometry, reads erased (where peek()
  /// returns nullptr).
  [[nodiscard]] PageFields page_fields(Ppn ppn) const;
  /// Global PPN of the first page of block `b` that is not erased, or
  /// nullopt when every page is; a block without a page lane (never
  /// programmed since its last erase) answers without a scan.
  [[nodiscard]] std::optional<Ppn> first_unerased_page(BlockId b) const;
  [[nodiscard]] OpResult read_now(Ppn ppn);
  [[nodiscard]] std::uint32_t erase_count(BlockId b) const;
  [[nodiscard]] bool is_bad(BlockId b) const;
  [[nodiscard]] std::size_t touched_blocks() const;
  /// Whether block `b` holds arena state; an unmaterialised block is erased.
  [[nodiscard]] bool materialized(BlockId b) const {
    return chips_[channel_of_block(b)]->materialized(local_block(b));
  }
  /// Visit every materialised block (global ids), die by die.
  template <typename Fn>
  void for_each_materialized_block(Fn&& fn) const {
    for (std::uint32_t c = 0; c < config_.channels; ++c) {
      chips_[c]->for_each_materialized_block(
          [&](BlockId local) { fn(local * config_.channels + c); });
    }
  }
  /// Aggregate statistics across every die.
  [[nodiscard]] ChipStats stats() const;
  [[nodiscard]] NandChip& die(std::uint32_t channel) { return *chips_[channel]; }
  [[nodiscard]] const EccScheme& ecc() const { return chips_.front()->ecc(); }

  // --- Address translation (exposed for tests) -------------------------------
  [[nodiscard]] std::uint32_t channel_of_block(BlockId b) const {
    return static_cast<std::uint32_t>(b % config_.channels);
  }
  [[nodiscard]] BlockId local_block(BlockId b) const { return b / config_.channels; }
  [[nodiscard]] Ppn local_ppn(Ppn ppn) const;
  [[nodiscard]] std::uint32_t channel_of_ppn(Ppn ppn) const {
    return channel_of_block(effective_geometry_.block_of(ppn));
  }

 private:
  Config config_;
  Geometry effective_geometry_;
  std::vector<std::unique_ptr<NandChip>> chips_;
};

}  // namespace pofi::nand
