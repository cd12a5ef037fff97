#include "platform/shadow_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace pofi::platform {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

std::size_t ShadowStore::TagTable::find_slot(ftl::Lpn lpn) const {
  assert(lpn != kNoPage && "the all-ones LPN is the empty-slot key");
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits of the product mix every LPN bit, so
  // strided LPNs spread as well as sequential ones.
  std::size_t i = static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ULL) >> shift_);
  while (slots_[i].lpn != lpn && slots_[i].lpn != kNoPage) i = (i + 1) & mask;
  return i;
}

const std::uint64_t* ShadowStore::TagTable::find(ftl::Lpn lpn) const {
  const Slot& s = slots_[find_slot(lpn)];
  return s.lpn == lpn ? &s.tag : nullptr;
}

std::uint64_t* ShadowStore::TagTable::find(ftl::Lpn lpn) {
  Slot& s = slots_[find_slot(lpn)];
  return s.lpn == lpn ? &s.tag : nullptr;
}

std::uint64_t& ShadowStore::TagTable::operator[](ftl::Lpn lpn) {
  std::size_t i = find_slot(lpn);
  if (slots_[i].lpn == kNoPage) {
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
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n, Slot{kNoPage, 0}));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
  for (const Slot& s : old) {
    if (s.lpn != kNoPage) slots_[find_slot(s.lpn)] = s;
  }
}

void ShadowStore::TagTable::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{kNoPage, 0});
  size_ = 0;
}

std::vector<std::uint64_t> ShadowStore::allocate_tags(std::uint32_t n) {
  std::vector<std::uint64_t> tags;
  tags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) tags.push_back(next_tag_++);
  return tags;
}

bool ShadowStore::indeterminate(ftl::Lpn lpn) const {
  const std::uint64_t* alt = alternate_.find(lpn);
  return alt != nullptr && *alt != nand::kErasedContent;
}

std::uint64_t ShadowStore::expected(ftl::Lpn lpn) const {
  const std::uint64_t* tag = expected_.find(lpn);
  return tag == nullptr ? nand::kErasedContent : *tag;
}

bool ShadowStore::acceptable(ftl::Lpn lpn, std::uint64_t tag) const {
  const std::uint64_t* exp = expected_.find(lpn);
  if (exp == nullptr) return tag == nand::kErasedContent;
  if (tag == *exp) return true;
  const std::uint64_t* alt = alternate_.find(lpn);
  return alt != nullptr && *alt != nand::kErasedContent && tag == *alt;
}

void ShadowStore::commit_write(ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  for (std::size_t i = 0; i < tags.size(); ++i) {
    expected_[lpn + i] = tags[i];
    if (std::uint64_t* alt = alternate_.find(lpn + i)) *alt = nand::kErasedContent;
  }
}

void ShadowStore::mark_indeterminate(ftl::Lpn lpn, std::span<const std::uint64_t> tags) {
  for (std::size_t i = 0; i < tags.size(); ++i) {
    (void)expected_[lpn + i];  // tracked from now on, erased if never written
    alternate_[lpn + i] = tags[i];
  }
}

void ShadowStore::observe(ftl::Lpn lpn, std::uint64_t tag) {
  expected_[lpn] = tag;
  if (std::uint64_t* alt = alternate_.find(lpn)) *alt = nand::kErasedContent;
}

}  // namespace pofi::platform
