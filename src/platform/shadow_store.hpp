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
// State layout: two-level and paged, like the FTL's L2P (ftl::MappingTable),
// with no hashing on the IO path.
//   * A directory holds one u32 tag-page index per 16-LPN group, or
//     kNoTagPage. It grows to the highest group touched, never to the
//     drive's size.
//   * A tag page is {tracked mask, indeterminate mask, 16 expected tags},
//     appended on its group's first write. An untracked slot holds
//     kErasedContent, so expected() needs no mask. A 1-16-page request
//     touches one or two adjacent tag pages.
//   * `alternate_` holds the unacked tag of each page a failed write
//     touched: a small insert-only open-addressing LPN -> tag table of
//     16-byte {lpn, tag} slots (Fibonacci hash, linear probing, grown at
//     load 3/4). It is probed only for a page whose indeterminate bit is
//     set, and a slot is meaningful only while that bit is.
// Nothing is forgotten before reset(), so nothing deletes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "ftl/types.hpp"
#include "nand/page.hpp"

namespace pofi::platform {

class ShadowStore {
 public:
  /// LPNs per tag page.
  static constexpr std::uint32_t kTagPageLpns = 16;

  /// Allocate `n` fresh content tags (one per page of a write payload).
  [[nodiscard]] std::vector<std::uint64_t> allocate_tags(std::uint32_t n);

  /// Expected on-disk tag (kErasedContent when never written).
  [[nodiscard]] std::uint64_t expected(ftl::Lpn lpn) const {
    const TagPage* page = page_of(lpn);
    return page == nullptr ? nand::kErasedContent : page->tags[lpn % kTagPageLpns];
  }

  /// True if `tag` is a legitimate value for this page (expected, or the
  /// unacked-alternate when indeterminate).
  [[nodiscard]] bool acceptable(ftl::Lpn lpn, std::uint64_t tag) const;

  /// A write to [lpn, lpn+tags.size()) was ACKed: tags become expected.
  void commit_write(ftl::Lpn lpn, std::span<const std::uint64_t> tags);

  /// A write failed/never completed: each page may hold old or new data.
  void mark_indeterminate(ftl::Lpn lpn, std::span<const std::uint64_t> tags);

  /// Verification read observed `tag` on disk: collapse to that reality.
  void observe(ftl::Lpn lpn, std::uint64_t tag);

  [[nodiscard]] std::size_t tracked_pages() const {
    std::size_t n = 0;
    for (const TagPage& page : pages_) n += static_cast<std::size_t>(std::popcount(page.tracked));
    return n;
  }
  [[nodiscard]] std::uint64_t tags_allocated() const { return next_tag_ - 1; }

  /// Visit every tracked page as fn(lpn, expected_tag, indeterminate), in
  /// ascending LPN order: the directory is walked in group order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t group = 0; group < dir_.size(); ++group) {
      if (dir_[group] == kNoTagPage) continue;
      const TagPage& page = pages_[dir_[group]];
      const ftl::Lpn base = static_cast<ftl::Lpn>(group) * kTagPageLpns;
      for (unsigned bits = page.tracked; bits != 0; bits &= bits - 1) {
        const int i = std::countr_zero(bits);
        fn(base + i, page.tags[i], ((page.indeterminate >> i) & 1U) != 0);
      }
    }
  }

  /// Session reset: forget all truth and restart tag allocation from 1,
  /// keeping the capacity of the directory, the tag pages and the
  /// alternates' slot array.
  void reset() {
    dir_.clear();
    pages_.clear();
    alternate_.clear();
    next_tag_ = 1;
  }

  struct StateImage;
  void snapshot(StateImage& out) const;
  void restore(const StateImage& image);

 private:
  /// One 16-LPN group's truth; bit i of a mask is LPN base + i.
  struct TagPage {
    std::uint16_t tracked = 0;
    std::uint16_t indeterminate = 0;
    std::array<std::uint64_t, kTagPageLpns> tags = erased_tags();

    static constexpr std::array<std::uint64_t, kTagPageLpns> erased_tags() {
      std::array<std::uint64_t, kTagPageLpns> t{};
      t.fill(nand::kErasedContent);
      return t;
    }
  };
  static_assert(kTagPageLpns <= 16, "masks are 16 bits wide");

  /// Directory entry of a group that has no tag page yet.
  static constexpr std::uint32_t kNoTagPage = ~std::uint32_t{0};

  struct Slot {
    ftl::Lpn lpn;
    std::uint64_t tag;
  };
  /// Empty-slot key: host LPNs are bounded by drive capacity.
  static constexpr ftl::Lpn kNoLpn = ftl::kUnmappedLpn;

  /// Insert-only LPN -> tag map (layout in the file comment).
  class TagTable {
   public:
    TagTable() { grow(); }
    /// Tag of `lpn`, or nullptr when it was never inserted.
    [[nodiscard]] const std::uint64_t* find(ftl::Lpn lpn) const;
    /// Tag of `lpn`, inserted as kErasedContent when absent.
    std::uint64_t& operator[](ftl::Lpn lpn);
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

  /// Tag page of `lpn`'s group, or nullptr when the group was never touched.
  [[nodiscard]] const TagPage* page_of(ftl::Lpn lpn) const {
    const std::uint64_t group = lpn / kTagPageLpns;
    if (group >= dir_.size() || dir_[group] == kNoTagPage) return nullptr;
    return &pages_[dir_[group]];
  }
  /// Tag page of `lpn`'s group, appending it (and growing the directory)
  /// on the group's first write.
  [[nodiscard]] TagPage& page_for_write(ftl::Lpn lpn);
  /// Run fn(page, first_slot, offset, count) over the tag pages that
  /// [lpn, lpn+pages) covers, in order; `offset` is the run's first page
  /// within the request.
  template <class Fn>
  void for_each_run(ftl::Lpn lpn, std::size_t pages, Fn&& fn);

  std::vector<std::uint32_t> dir_;  ///< group -> tag page index, or kNoTagPage
  std::vector<TagPage> pages_;
  TagTable alternate_;
  std::uint64_t next_tag_ = 1;
};

/// Copyable ground-truth state at a quiescent boundary.
struct ShadowStore::StateImage {
  std::vector<std::uint32_t> dir;
  std::vector<TagPage> pages;
  TagTable alternate;
  std::uint64_t next_tag = 1;
};

inline void ShadowStore::snapshot(StateImage& out) const {
  out.dir = dir_;
  out.pages = pages_;
  out.alternate = alternate_;
  out.next_tag = next_tag_;
}

inline void ShadowStore::restore(const StateImage& image) {
  dir_ = image.dir;
  pages_ = image.pages;
  alternate_ = image.alternate;
  next_tag_ = image.next_tag;
}

}  // namespace pofi::platform
