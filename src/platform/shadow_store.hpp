// Host-side ground truth of what the SSD should contain.
//
// Content tags stand in for checksummed payloads: the store allocates a
// fresh, never-reused 64-bit tag per written page, so tag equality *is*
// checksum equality (collision-free by construction) and the analyzer can
// distinguish new data / previous data / garbage exactly the way the paper's
// checksum triple does.
//
// Pages touched by a write whose ACK never arrived are *indeterminate*: the
// device legitimately may hold either the old or the new data. Verification
// accepts both and collapses the state to whatever was observed.
//
// State layout (flat, no node allocation): two insert-only LPN -> tag
// tables, each a power-of-two open-addressing array of 16-byte {lpn, tag}
// slots (Fibonacci hash, linear probing). A table starts at 16 slots and
// doubles when it would pass load 3/4, so it is sized by the pages a run
// touched, never by the drive.
//   * `expected_` holds the expected tag of every tracked page.
//   * `alternate_` holds the unacked tag of each page a failed write
//     touched. Commit and observe overwrite it with kErasedContent, so a
//     page is indeterminate exactly when its alternate is not
//     kErasedContent (tags start at 1 and never reach it).
// Nothing is forgotten before reset(), so neither table deletes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ftl/types.hpp"
#include "nand/page.hpp"

namespace pofi::platform {

class ShadowStore {
 public:
  /// Allocate `n` fresh content tags (one per page of a write payload).
  [[nodiscard]] std::vector<std::uint64_t> allocate_tags(std::uint32_t n);

  /// Expected on-disk tag (kErasedContent when never written).
  [[nodiscard]] std::uint64_t expected(ftl::Lpn lpn) const;

  /// True if `tag` is a legitimate value for this page (expected, or the
  /// unacked-alternate when indeterminate).
  [[nodiscard]] bool acceptable(ftl::Lpn lpn, std::uint64_t tag) const;

  /// A write to [lpn, lpn+tags.size()) was ACKed: tags become expected.
  void commit_write(ftl::Lpn lpn, std::span<const std::uint64_t> tags);

  /// A write failed/never completed: each page may hold old or new data.
  void mark_indeterminate(ftl::Lpn lpn, std::span<const std::uint64_t> tags);

  /// Verification read observed `tag` on disk: collapse to that reality.
  void observe(ftl::Lpn lpn, std::uint64_t tag);

  [[nodiscard]] std::size_t tracked_pages() const { return expected_.size(); }
  [[nodiscard]] std::uint64_t tags_allocated() const { return next_tag_ - 1; }

  /// Visit every tracked page as fn(lpn, expected_tag, indeterminate).
  /// Iteration order is unspecified (slot order follows the hash) — callers
  /// needing determinism must sort what they collect.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : expected_.slots()) {
      if (s.lpn != kNoPage) fn(s.lpn, s.tag, indeterminate(s.lpn));
    }
  }

  /// Session reset: forget all truth and restart tag allocation from 1,
  /// keeping both tables' slot arrays.
  void reset() {
    expected_.clear();
    alternate_.clear();
    next_tag_ = 1;
  }

  struct StateImage;
  void snapshot(StateImage& out) const;
  void restore(const StateImage& image);

 private:
  struct Slot {
    ftl::Lpn lpn;
    std::uint64_t tag;
  };
  /// Empty-slot key: host LPNs are bounded by drive capacity.
  static constexpr ftl::Lpn kNoPage = ftl::kUnmappedLpn;

  /// Insert-only LPN -> tag map (layout in the file comment).
  class TagTable {
   public:
    TagTable() { grow(); }
    /// Tag of `lpn`, or nullptr when it was never inserted.
    [[nodiscard]] const std::uint64_t* find(ftl::Lpn lpn) const;
    [[nodiscard]] std::uint64_t* find(ftl::Lpn lpn);
    /// Tag of `lpn`, inserted as kErasedContent when absent.
    std::uint64_t& operator[](ftl::Lpn lpn);
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::span<const Slot> slots() const { return slots_; }
    /// Empty every slot, keeping the array.
    void clear();

   private:
    /// Slot holding `lpn`, or the empty slot where it would go.
    [[nodiscard]] std::size_t find_slot(ftl::Lpn lpn) const;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 0;  ///< 64 - log2(slots_.size())
  };

  [[nodiscard]] bool indeterminate(ftl::Lpn lpn) const;

  TagTable expected_;
  TagTable alternate_;
  std::uint64_t next_tag_ = 1;
};

/// Copyable ground-truth state at a quiescent boundary.
struct ShadowStore::StateImage {
  TagTable expected;
  TagTable alternate;
  std::uint64_t next_tag = 1;
};

inline void ShadowStore::snapshot(StateImage& out) const {
  out.expected = expected_;
  out.alternate = alternate_;
  out.next_tag = next_tag_;
}

inline void ShadowStore::restore(const StateImage& image) {
  expected_ = image.expected;
  alternate_ = image.alternate;
  next_tag_ = image.next_tag;
}

}  // namespace pofi::platform
