#include "nand/block_arena.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pofi::nand {

namespace {

/// Copy the first `n` entries of `from` into `to`, keeping `to`'s capacity.
template <typename T>
void assign_prefix(std::vector<T>& to, const std::vector<T>& from, std::size_t n) {
  to.assign(from.begin(), from.begin() + static_cast<std::ptrdiff_t>(n));
}

/// Resize `to` to `size` entries and copy `from` (no longer) over its front.
template <typename T>
void restore_prefix(std::vector<T>& to, const std::vector<T>& from, std::size_t size) {
  to.resize(size);
  std::copy(from.begin(), from.end(), to.begin());
}

}  // namespace

BlockArena::BlockArena(const Geometry& geometry, std::uint32_t initial_pe_cycles)
    : pages_per_block_(geometry.pages_per_block),
      words_per_lane_((geometry.pages_per_block + 31) / 32),
      initial_pe_cycles_(initial_pe_cycles),
      total_blocks_(geometry.total_blocks()) {}

BlockArena::Slot BlockArena::touch(BlockId b) {
  if (b >= block_index_.size()) {
    // Double the index up to the geometry (tests may address past it; then
    // grow to exactly cover). 4 bytes/block keeps even terabyte drives cheap.
    std::uint64_t grown = std::max<std::uint64_t>(block_index_.size() * 2, 1024);
    grown = std::min(std::max(grown, b + 1), std::max(total_blocks_, b + 1));
    block_index_.resize(grown, kNoSlot);
  }
  Slot s = block_index_[b];
  if (s != kNoSlot) return s;

  s = static_cast<Slot>(slots_++);
  block_index_[b] = s;
  erase_count_.push_back(initial_pe_cycles_);
  reads_since_erase_.push_back(0);
  programs_since_erase_.push_back(0);
  next_program_page_.push_back(0);
  flags_.push_back(0);
  lane_.push_back(kNoLane);
  upset_count_.push_back(0);
  progress_count_.push_back(0);
  overflow_count_.push_back(0);
  return s;
}

std::uint32_t BlockArena::ensure_lane(Slot s) {
  std::uint32_t lane = lane_[s];
  if (lane != kNoLane) return lane;
  if (!free_lanes_.empty()) {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    if (lanes_ % kSlabBlocks == 0) {
      // New slab: extend every page lane by kSlabBlocks blocks' worth.
      const std::size_t slabs = lanes_ / kSlabBlocks + 1;
      status_.resize(slabs * kSlabBlocks * words_per_lane_);
      content_.resize(slabs * kSlabBlocks * pages_per_block_);
      oob_lpn_.resize(slabs * kSlabBlocks * pages_per_block_);
      oob_seq_.resize(slabs * kSlabBlocks * pages_per_block_);
    }
    lane = lanes_++;
  }
  // Scrub to the erased state (recycled lanes carry their last tenant's
  // bits; fresh slab memory is zero-filled, which is wrong for content/lpn).
  std::fill_n(status_.begin() + static_cast<std::size_t>(lane) * words_per_lane_,
              words_per_lane_, 0ULL);
  const std::size_t base = static_cast<std::size_t>(lane) * pages_per_block_;
  std::fill_n(content_.begin() + base, pages_per_block_, kU32Sentinel);
  std::fill_n(oob_lpn_.begin() + base, pages_per_block_, kU32Sentinel);
  std::fill_n(oob_seq_.begin() + base, pages_per_block_, 0U);
  lane_[s] = lane;
  return lane;
}

std::uint32_t BlockArena::narrow(std::uint64_t value, OverflowMap& overflow, Slot s,
                                 std::uint32_t pib, std::uint64_t sentinel) {
  if (value == sentinel) return kU32Sentinel;
  if (value >= kU32Overflow) {
    // Too wide for the lane (or collides with a marker): exact value goes to
    // the side table. Entries are purged on erase, so a live page has at
    // most one, and insert_or_assign keeps re-programs (impossible today,
    // the program cursor forbids them) correct anyway.
    if (overflow.insert_or_assign(page_key(s, pib), value).second) {
      overflow_count_[s] += 1;
    }
    return kU32Overflow;
  }
  return static_cast<std::uint32_t>(value);
}

void BlockArena::write_payload(std::uint32_t lane, Slot s, std::uint32_t pib,
                               std::uint64_t content, Oob oob) {
  const std::size_t idx = static_cast<std::size_t>(lane) * pages_per_block_ + pib;
  content_[idx] = narrow(content, content_overflow_, s, pib, kErasedContent);
  oob_lpn_[idx] = narrow(oob.lpn, lpn_overflow_, s, pib, ~0ULL);
  oob_seq_[idx] = narrow(oob.seq, seq_overflow_, s, pib, 0);
}

void BlockArena::set_programmed(Slot s, std::uint32_t pib, std::uint64_t content, Oob oob) {
  const std::uint32_t lane = ensure_lane(s);
  set_status(lane, pib, PageStatus::kValid);
  write_payload(lane, s, pib, content, oob);
  // kValid implies progress 1.0; no side entry can exist here (the program
  // cursor never revisits a page that took an interrupt without an erase).
}

void BlockArena::set_partial(Slot s, std::uint32_t pib, float progress, std::uint64_t content,
                             Oob oob) {
  const std::uint32_t lane = ensure_lane(s);
  set_status(lane, pib, PageStatus::kPartial);
  write_payload(lane, s, pib, content, oob);
  if (progress_.insert_or_assign(page_key(s, pib), progress).second) {
    progress_count_[s] += 1;
  }
}

void BlockArena::corrupt_page(Slot s, std::uint32_t pib) {
  const std::uint32_t lane = lane_[s];
  assert(lane != kNoLane);  // only kValid/kPartial pages corrupt
  // Freeze the pre-corruption progress: a kValid page was at 1.0 (implied by
  // its status until now), a kPartial page already has its side entry.
  if (status(s, pib) == PageStatus::kValid) {
    if (progress_.insert_or_assign(page_key(s, pib), 1.0f).second) {
      progress_count_[s] += 1;
    }
  }
  set_status(lane, pib, PageStatus::kCorrupt);
}

void BlockArena::set_upset_errors(Slot s, std::uint32_t pib, std::uint32_t value) {
  if (value == 0) {
    if (upset_count_[s] != 0 && upsets_.erase(page_key(s, pib)) != 0) {
      upset_count_[s] -= 1;
    }
    return;
  }
  if (upsets_.insert_or_assign(page_key(s, pib), value).second) {
    upset_count_[s] += 1;
  }
}

void BlockArena::erase_block(Slot s) {
  if (lane_[s] != kNoLane) {
    free_lanes_.push_back(lane_[s]);
    lane_[s] = kNoLane;
  }
  if (progress_count_[s] != 0 || upset_count_[s] != 0 || overflow_count_[s] != 0) {
    for (std::uint32_t pib = 0; pib < pages_per_block_; ++pib) {
      const std::uint64_t key = page_key(s, pib);
      progress_.erase(key);
      upsets_.erase(key);
      content_overflow_.erase(key);
      lpn_overflow_.erase(key);
      seq_overflow_.erase(key);
    }
    progress_count_[s] = 0;
    upset_count_[s] = 0;
    overflow_count_[s] = 0;
  }
  reads_since_erase_[s] = 0;
  programs_since_erase_[s] = 0;
  next_program_page_[s] = 0;
  flags_[s] &= static_cast<std::uint8_t>(~kFlagPartialErase);
}

void BlockArena::reset() {
  // The index keeps its size (find() on an unmaterialised block reads a
  // kNoSlot hole either way); touch() re-fills holes from here on.
  std::fill(block_index_.begin(), block_index_.end(), kNoSlot);
  slots_ = 0;
  erase_count_.clear();
  reads_since_erase_.clear();
  programs_since_erase_.clear();
  next_program_page_.clear();
  flags_.clear();
  lane_.clear();
  upset_count_.clear();
  progress_count_.clear();
  overflow_count_.clear();
  // Page-lane slabs stay allocated; ensure_lane resizes within capacity and
  // scrubs each lane on binding, so stale bytes are unreachable.
  free_lanes_.clear();
  lanes_ = 0;
  progress_.clear();
  upsets_.clear();
  content_overflow_.clear();
  lpn_overflow_.clear();
  seq_overflow_.clear();
}

void BlockArena::snapshot(StateImage& out) const {
  out.block_index = block_index_;
  out.slots = slots_;
  out.erase_count = erase_count_;
  out.reads_since_erase = reads_since_erase_;
  out.programs_since_erase = programs_since_erase_;
  out.next_program_page = next_program_page_;
  out.flags = flags_;
  out.lane = lane_;
  out.upset_count = upset_count_;
  out.progress_count = progress_count_;
  out.overflow_count = overflow_count_;
  // Only the lanes created so far: the rest of the last slab, and any slab
  // a larger past tenant grew, is unreachable until ensure_lane scrubs it.
  const std::size_t lanes = lanes_;
  assign_prefix(out.status, status_, lanes * words_per_lane_);
  assign_prefix(out.content, content_, lanes * pages_per_block_);
  assign_prefix(out.oob_lpn, oob_lpn_, lanes * pages_per_block_);
  assign_prefix(out.oob_seq, oob_seq_, lanes * pages_per_block_);
  out.free_lanes = free_lanes_;
  out.lanes = lanes_;
  out.progress = progress_;
  out.upsets = upsets_;
  out.content_overflow = content_overflow_;
  out.lpn_overflow = lpn_overflow_;
  out.seq_overflow = seq_overflow_;
}

void BlockArena::restore(const StateImage& image) {
  block_index_ = image.block_index;
  slots_ = image.slots;
  erase_count_ = image.erase_count;
  reads_since_erase_ = image.reads_since_erase;
  programs_since_erase_ = image.programs_since_erase;
  next_program_page_ = image.next_program_page;
  flags_ = image.flags;
  lane_ = image.lane;
  upset_count_ = image.upset_count;
  progress_count_ = image.progress_count;
  overflow_count_ = image.overflow_count;
  // Size the page lanes to the image's whole slabs (ensure_lane grows them a
  // slab at a time and assumes the last one is there), then copy the
  // image's lanes over the front. A live arena of that size resizes in
  // place; entries past the image's lanes are scrubbed before first use.
  const std::size_t slab_lanes =
      (static_cast<std::size_t>(image.lanes) + kSlabBlocks - 1) / kSlabBlocks * kSlabBlocks;
  restore_prefix(status_, image.status, slab_lanes * words_per_lane_);
  restore_prefix(content_, image.content, slab_lanes * pages_per_block_);
  restore_prefix(oob_lpn_, image.oob_lpn, slab_lanes * pages_per_block_);
  restore_prefix(oob_seq_, image.oob_seq, slab_lanes * pages_per_block_);
  free_lanes_ = image.free_lanes;
  lanes_ = image.lanes;
  progress_ = image.progress;
  upsets_ = image.upsets;
  content_overflow_ = image.content_overflow;
  lpn_overflow_ = image.lpn_overflow;
  seq_overflow_ = image.seq_overflow;
}

std::uint32_t BlockArena::first_unerased(Slot s) const {
  const std::uint32_t lane = lane_[s];
  if (lane == kNoLane) return pages_per_block_;
  // Erased is status 0, and ensure_lane zeroes the padding past the last
  // page, so the first non-zero bit pair is the first unerased page.
  const std::size_t base = static_cast<std::size_t>(lane) * words_per_lane_;
  for (std::uint32_t w = 0; w < words_per_lane_; ++w) {
    if (const std::uint64_t word = status_[base + w]; word != 0) {
      return w * 32 + static_cast<std::uint32_t>(std::countr_zero(word)) / 2;
    }
  }
  return pages_per_block_;
}

Page BlockArena::snapshot(Slot s, std::uint32_t pib) const {
  Page pg;
  pg.status = status(s, pib);
  pg.progress = progress(s, pib);
  pg.content = content(s, pib);
  pg.oob = oob(s, pib);
  pg.upset_errors = upset_errors(s, pib);
  return pg;
}

}  // namespace pofi::nand
