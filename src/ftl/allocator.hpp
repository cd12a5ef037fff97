// Wear-aware, plane-striped block allocation.
//
// Each stream (host / GC / journal) owns one active block *per plane* and
// round-robins page allocation across planes, so concurrent programs spread
// over the die's full parallelism (this is what gives the device its write
// throughput). Within a block, pages are handed out strictly in order,
// matching the chip's programming constraint. Free blocks sit in per-plane
// min-heaps keyed by erase count, so allocation implicitly levels wear.
//
// After a power loss the cursors can no longer be trusted (queued programs
// vanished, interrupted ones burned pages), so recovery abandons all active
// blocks to the sealed set and opens fresh ones.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "ftl/types.hpp"
#include "nand/geometry.hpp"

namespace pofi::ftl {

class BlockAllocator {
 public:
  explicit BlockAllocator(const nand::Geometry& geometry);

  /// Next physical page for a stream; std::nullopt when no free block exists
  /// on any plane.
  [[nodiscard]] std::optional<Ppn> alloc_page(Stream stream);

  /// Return an erased block to the free pool (GC completion).
  void on_block_erased(BlockId block);

  /// Blocks that filled or were abandoned; sealed blocks are GC candidates.
  [[nodiscard]] const std::vector<BlockId>& sealed_blocks() const { return sealed_; }
  /// Remove a block from the sealed set (it became a GC victim).
  void unseal(BlockId block);

  /// Power-loss recovery: drop all active cursors; their blocks are sealed.
  void abandon_active_blocks();

  /// Session reset: rebuild the just-constructed state (all blocks free at
  /// erase count 0, no cursors) while keeping every container's capacity.
  /// The free heaps are restored from a snapshot of the constructor-built
  /// containers — byte-identical layout, so they pop exactly like fresh
  /// ones — at memcpy cost instead of total_blocks() heap pushes.
  void reset();

  [[nodiscard]] std::size_t free_blocks() const;
  [[nodiscard]] std::uint64_t pages_allocated() const { return pages_allocated_; }
  /// Currently open block of `stream` on `plane` (tests and the auditor).
  [[nodiscard]] std::optional<BlockId> active_block(Stream stream, std::uint32_t plane) const;

  // --- Audit interface (read-only; src/torture/) ----------------------------
  /// Visit every free-heap entry, in heap-storage order (a block pushed twice
  /// is visited twice).
  template <typename Fn>
  void for_each_free_block(Fn&& fn) const {
    for (const auto& heap : free_heaps_) {
      for (const FreeEntry& e : heap.container()) fn(e.block);
    }
  }

  /// Test-only corruption hook: push a block onto its plane's free heap
  /// without erasing it (auditor self-tests need a free/used disagreement).
  void debug_force_free(BlockId block, std::uint32_t plane) {
    free_heaps_[plane].push(FreeEntry{0, block});
  }

  struct StateImage;
  void snapshot(StateImage& out) const;
  void restore(const StateImage& image);

 private:
  struct Active {
    BlockId block = 0;
    std::uint32_t next_page = 0;
    bool open = false;
  };
  struct FreeEntry {
    std::uint32_t erase_count;
    BlockId block;
    bool operator>(const FreeEntry& o) const {
      if (erase_count != o.erase_count) return erase_count > o.erase_count;
      return o.block < block;
    }
  };
  /// std::priority_queue has no clear() or bulk restore; expose both over
  /// the protected container so reset() can rebuild a heap from a snapshot
  /// without freeing its storage. assign() requires `v` to already satisfy
  /// the heap property (true for a container() snapshot of a valid heap).
  struct FreeHeap : std::priority_queue<FreeEntry, std::vector<FreeEntry>, std::greater<>> {
    void clear() { c.clear(); }
    [[nodiscard]] const std::vector<FreeEntry>& container() const { return c; }
    void assign(const std::vector<FreeEntry>& v) { c = v; }
  };

  bool open_new_block(Active& a, std::uint32_t plane);
  [[nodiscard]] Active& active_slot(Stream stream, std::uint32_t plane);
  [[nodiscard]] const Active& active_slot(Stream stream, std::uint32_t plane) const;

  nand::Geometry geometry_;
  std::vector<Active> active_;            ///< [stream * planes + plane]
  std::array<std::uint32_t, kStreamCount> rr_{};  ///< round-robin cursor per stream
  std::vector<FreeHeap> free_heaps_;      ///< per plane
  /// Constructor-built heap layout, per plane: reset() restores from this.
  std::vector<std::vector<FreeEntry>> fresh_heaps_;
  std::vector<std::uint32_t> erase_counts_;  ///< dense by BlockId (see dense.hpp)
  std::vector<BlockId> sealed_;
  std::uint64_t pages_allocated_ = 0;
};

/// Copyable allocator state. Free heaps are captured as their underlying
/// containers (already heap-ordered) and restored via FreeHeap::assign, the
/// same byte-identical-layout trick reset() uses.
struct BlockAllocator::StateImage {
  std::vector<Active> active;
  std::array<std::uint32_t, kStreamCount> rr{};
  std::vector<std::vector<FreeEntry>> free_heaps;
  std::vector<std::uint32_t> erase_counts;
  std::vector<BlockId> sealed;
  std::uint64_t pages_allocated = 0;
};

inline void BlockAllocator::snapshot(StateImage& out) const {
  out.active = active_;
  out.rr = rr_;
  out.free_heaps.resize(free_heaps_.size());
  for (std::size_t i = 0; i < free_heaps_.size(); ++i) {
    out.free_heaps[i] = free_heaps_[i].container();
  }
  out.erase_counts = erase_counts_;
  out.sealed = sealed_;
  out.pages_allocated = pages_allocated_;
}

inline void BlockAllocator::restore(const StateImage& image) {
  active_ = image.active;
  rr_ = image.rr;
  for (std::size_t i = 0; i < free_heaps_.size(); ++i) {
    free_heaps_[i].assign(image.free_heaps[i]);
  }
  erase_counts_ = image.erase_counts;
  sealed_ = image.sealed;
  pages_allocated_ = image.pages_allocated;
}

}  // namespace pofi::ftl
