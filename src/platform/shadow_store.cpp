#include "platform/shadow_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace pofi::platform {

namespace {
constexpr std::size_t kMinSlots = 16;

/// Mask of `count` bits from bit `first`.
constexpr std::uint16_t run_mask(unsigned first, unsigned count) {
  return static_cast<std::uint16_t>(((1U << count) - 1U) << first);
}
}  // namespace

std::size_t ShadowStore::TagTable::find_slot(ftl::Lpn lpn) const {
  assert(lpn != kNoLpn && "the all-ones LPN is the empty-slot key");
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits of the product mix every LPN bit, so
  // strided LPNs spread as well as sequential ones.
  std::size_t i = static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[i].lpn != lpn && slots_[i].lpn != kNoLpn) i = (i + 1) & mask;
  return i;
}

const std::uint64_t* ShadowStore::TagTable::find(ftl::Lpn lpn) const {
  const Slot& s = slots_[find_slot(lpn)];
  return s.lpn == lpn ? &s.tag : nullptr;
}

std::uint64_t& ShadowStore::TagTable::operator[](ftl::Lpn lpn) {
  std::size_t i = find_slot(lpn);
  if (slots_[i].lpn == kNoLpn) {
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      grow();
      i = find_slot(lpn);
    }
    slots_[i] = {lpn, nand::kErasedContent};
    ++size_;
  }
  return slots_[i].tag;
}

void ShadowStore::TagTable::grow() {
  const std::size_t n = slots_.empty() ? kMinSlots : 2 * slots_.size();
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n, Slot{kNoLpn, 0}));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
  for (const Slot& s : old) {
    if (s.lpn != kNoLpn) slots_[find_slot(s.lpn)] = s;
  }
}

void ShadowStore::TagTable::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{kNoLpn, 0});
  size_ = 0;
}

std::vector<std::uint64_t> ShadowStore::allocate_tags(std::uint32_t n) {
  std::vector<std::uint64_t> tags;
  tags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) tags.push_back(next_tag_++);
  return tags;
}

ShadowStore::TagPage& ShadowStore::page_for_write(ftl::Lpn lpn) {
  const std::size_t group = static_cast<std::size_t>(lpn / kTagPageLpns);
  if (group >= dir_.size()) dir_.resize(group + 1, kNoTagPage);
  if (dir_[group] == kNoTagPage) {
    dir_[group] = static_cast<std::uint32_t>(pages_.size());
    pages_.emplace_back();
  }
  return pages_[dir_[group]];
}

template <class Fn>
void ShadowStore::for_each_run(ftl::Lpn lpn, std::size_t pages, Fn&& fn) {
  for (std::size_t offset = 0; offset < pages;) {
    const ftl::Lpn at = lpn + offset;
    const auto first = static_cast<unsigned>(at % kTagPageLpns);
    const auto count = static_cast<unsigned>(std::min<std::size_t>(kTagPageLpns - first, pages - offset));
    fn(page_for_write(at), first, offset, count);
    offset += count;
  }
}

bool ShadowStore::acceptable(ftl::Lpn lpn, std::uint64_t tag) const {
  const TagPage* page = page_of(lpn);
  if (page == nullptr) return tag == nand::kErasedContent;
  const unsigned i = lpn % kTagPageLpns;
  if (tag == page->tags[i]) return true;
  if (((page->indeterminate >> i) & 1U) == 0) return false;
  const std::uint64_t* alt = alternate_.find(lpn);
  assert(alt != nullptr && "an indeterminate page has an alternate");
  return tag == *alt;
}

void ShadowStore::commit_write(ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  for_each_run(lpn, tags.size(), [&](TagPage& page, unsigned first, std::size_t offset, unsigned count) {
    std::copy_n(tags.begin() + static_cast<std::ptrdiff_t>(offset), count, page.tags.begin() + first);
    const std::uint16_t bits = run_mask(first, count);
    page.tracked |= bits;
    page.indeterminate &= static_cast<std::uint16_t>(~bits);
  });
}

void ShadowStore::mark_indeterminate(ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  for_each_run(lpn, tags.size(), [&](TagPage& page, unsigned first, std::size_t offset, unsigned count) {
    // Tracked from now on; the expected tag stays erased if never written.
    const std::uint16_t bits = run_mask(first, count);
    page.tracked |= bits;
    page.indeterminate |= bits;
    for (unsigned i = 0; i < count; ++i) alternate_[lpn + offset + i] = tags[offset + i];
  });
}

void ShadowStore::observe(ftl::Lpn lpn, std::uint64_t tag) {
  TagPage& page = page_for_write(lpn);
  const unsigned i = lpn % kTagPageLpns;
  page.tags[i] = tag;
  page.tracked |= run_mask(i, 1);
  page.indeterminate &= static_cast<std::uint16_t>(~run_mask(i, 1));
}

}  // namespace pofi::platform
