#include "platform/shadow_store.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hpp"

namespace pofi::platform {
namespace {

TEST(ShadowStore, TagsAreUniqueAndNonZero) {
  ShadowStore shadow;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    for (const auto tag : shadow.allocate_tags(16)) {
      EXPECT_NE(tag, 0u);
      EXPECT_NE(tag, nand::kErasedContent);
      EXPECT_TRUE(seen.insert(tag).second);
    }
  }
  EXPECT_EQ(shadow.tags_allocated(), 1600u);
}

TEST(ShadowStore, UnknownPageExpectsErased) {
  ShadowStore shadow;
  EXPECT_EQ(shadow.expected(5), nand::kErasedContent);
  EXPECT_TRUE(shadow.acceptable(5, nand::kErasedContent));
  EXPECT_FALSE(shadow.acceptable(5, 123));
}

TEST(ShadowStore, CommitMakesTagsExpected) {
  ShadowStore shadow;
  const auto tags = shadow.allocate_tags(3);
  shadow.commit_write(10, tags);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(shadow.expected(10 + i), tags[i]);
    EXPECT_TRUE(shadow.acceptable(10 + i, tags[i]));
    EXPECT_FALSE(shadow.acceptable(10 + i, nand::kErasedContent));
  }
  EXPECT_EQ(shadow.tracked_pages(), 3u);
}

TEST(ShadowStore, IndeterminateAcceptsOldAndNew) {
  ShadowStore shadow;
  const auto first = shadow.allocate_tags(1);
  shadow.commit_write(10, first);
  const auto second = shadow.allocate_tags(1);
  shadow.mark_indeterminate(10, second);
  // The unacked write may or may not have reached the media.
  EXPECT_TRUE(shadow.acceptable(10, first[0]));
  EXPECT_TRUE(shadow.acceptable(10, second[0]));
  EXPECT_FALSE(shadow.acceptable(10, 0xDEAD));
  // Expected (for FWA comparisons) is still the committed value.
  EXPECT_EQ(shadow.expected(10), first[0]);
}

TEST(ShadowStore, ObserveCollapsesState) {
  ShadowStore shadow;
  const auto first = shadow.allocate_tags(1);
  shadow.commit_write(10, first);
  const auto second = shadow.allocate_tags(1);
  shadow.mark_indeterminate(10, second);
  shadow.observe(10, second[0]);  // verification saw the new data
  EXPECT_EQ(shadow.expected(10), second[0]);
  EXPECT_TRUE(shadow.acceptable(10, second[0]));
  EXPECT_FALSE(shadow.acceptable(10, first[0]));
}

TEST(ShadowStore, CommitClearsIndeterminate) {
  ShadowStore shadow;
  const auto loose = shadow.allocate_tags(1);
  shadow.mark_indeterminate(10, loose);
  const auto committed = shadow.allocate_tags(1);
  shadow.commit_write(10, committed);
  EXPECT_FALSE(shadow.acceptable(10, loose[0]));
  EXPECT_TRUE(shadow.acceptable(10, committed[0]));
}

TEST(ShadowStore, MultiPageCommitIndexesCorrectly) {
  ShadowStore shadow;
  const auto tags = shadow.allocate_tags(4);
  shadow.commit_write(100, tags);
  EXPECT_EQ(shadow.expected(100), tags[0]);
  EXPECT_EQ(shadow.expected(103), tags[3]);
  EXPECT_EQ(shadow.expected(104), nand::kErasedContent);
}

// --- Differential against a std::map model ---------------------------------
// The store keeps its truth in 16-LPN tag pages under a directory, with the
// alternates of unacked writes in a flat open-addressing table; the model is
// a plain per-page record in a std::map. Random commits, failed writes and
// observations, many of them straddling tag-page boundaries, with a reset,
// a high LPN that grows the directory mid-run and a snapshot/mutate/restore
// in the middle, must agree with the model on every page after every step.

struct ModelTruth {
  std::uint64_t expected = nand::kErasedContent;
  std::uint64_t alternate = nand::kErasedContent;
  bool indeterminate = false;
};
using Model = std::map<ftl::Lpn, ModelTruth>;

/// Acceptance on the per-page record; `truth` is null for an untracked page.
bool model_acceptable(const ModelTruth* truth, std::uint64_t tag) {
  if (truth == nullptr) return tag == nand::kErasedContent;
  if (tag == truth->expected) return true;
  return truth->indeterminate && tag == truth->alternate;
}

constexpr std::uint32_t kPageLpns = ShadowStore::kTagPageLpns;
constexpr ftl::Lpn kRange = 1536;  // 96 tag pages
/// A window far above kRange, reached only once a run goes wide: its first
/// write grows the directory by thousands of groups. It starts 3 LPNs
/// short of a group boundary, so requests there straddle it too.
constexpr ftl::Lpn kHighBase = 40'000 * kPageLpns - 3;
constexpr ftl::Lpn kHighSpan = 64;
constexpr std::uint32_t kMaxPages = 2 * kPageLpns + 3;  // up to four tag pages

/// The LPNs the model checks: the low range, then the high window.
std::vector<ftl::Lpn> checked_lpns() {
  std::vector<ftl::Lpn> lpns;
  for (ftl::Lpn lpn = 0; lpn < kRange; ++lpn) lpns.push_back(lpn);
  for (ftl::Lpn lpn = kHighBase; lpn < kHighBase + kHighSpan; ++lpn) lpns.push_back(lpn);
  return lpns;
}

struct Visit {
  ftl::Lpn lpn;
  std::uint64_t expected;
  bool indeterminate;
  bool operator==(const Visit&) const = default;
};

std::vector<Visit> visits_of(const ShadowStore& shadow) {
  std::vector<Visit> out;
  shadow.for_each([&](ftl::Lpn lpn, std::uint64_t expected, bool indeterminate) {
    out.push_back({lpn, expected, indeterminate});
  });
  return out;
}

void expect_matches_model(const ShadowStore& shadow, const Model& model) {
  static const std::vector<ftl::Lpn> lpns = checked_lpns();
  ASSERT_EQ(shadow.tracked_pages(), model.size());
  const std::uint64_t stray = 0xDEAD'0000'0000ULL;  // never allocated
  for (const ftl::Lpn lpn : lpns) {
    const auto it = model.find(lpn);
    const ModelTruth* tracked = it == model.end() ? nullptr : &it->second;
    const ModelTruth truth = tracked == nullptr ? ModelTruth{} : *tracked;
    // Compare first, assert on a mismatch: millions of checks run here.
    if (shadow.expected(lpn) != truth.expected) {
      ASSERT_EQ(shadow.expected(lpn), truth.expected) << "lpn " << lpn;
    }
    for (const std::uint64_t tag : {truth.expected, truth.alternate, stray}) {
      const bool want = model_acceptable(tracked, tag);
      if (shadow.acceptable(lpn, tag) != want) {
        ASSERT_EQ(shadow.acceptable(lpn, tag), want) << "lpn " << lpn << " tag " << tag;
      }
    }
  }
  // for_each visits each tracked page exactly once, in ascending LPN order,
  // with its expected tag and indeterminate bit: the model's own order.
  const std::vector<Visit> visits = visits_of(shadow);
  ASSERT_EQ(visits.size(), model.size());
  auto want = model.begin();
  for (const Visit& v : visits) {
    if (v != Visit{want->first, want->second.expected, want->second.indeterminate}) {
      ASSERT_EQ(v.lpn, want->first) << "visit out of order or untracked";
      ASSERT_EQ(v.expected, want->second.expected) << "lpn " << v.lpn;
      ASSERT_EQ(v.indeterminate, want->second.indeterminate) << "lpn " << v.lpn;
    }
    ++want;
  }
}

/// One random request. Once `wide`, one request in eight lands in the high
/// window. Returns true when the request straddles a tag-page boundary.
bool random_step(ShadowStore& shadow, Model& model, sim::Rng& rng, bool wide) {
  const std::uint32_t pages = 1 + static_cast<std::uint32_t>(rng.below(kMaxPages));
  const bool high = wide && rng.below(8) == 0;
  const ftl::Lpn lpn = high ? kHighBase + rng.below(kHighSpan - pages + 1)
                            : rng.below(kRange - pages + 1);
  switch (rng.below(3)) {
    case 0: {
      const auto tags = shadow.allocate_tags(pages);
      shadow.commit_write(lpn, tags);
      for (std::uint32_t i = 0; i < pages; ++i) model[lpn + i] = ModelTruth{tags[i]};
      return lpn / kPageLpns != (lpn + pages - 1) / kPageLpns;
    }
    case 1: {
      const auto tags = shadow.allocate_tags(pages);
      shadow.mark_indeterminate(lpn, tags);
      for (std::uint32_t i = 0; i < pages; ++i) {
        ModelTruth& t = model[lpn + i];
        t.indeterminate = true;
        t.alternate = tags[i];
      }
      return lpn / kPageLpns != (lpn + pages - 1) / kPageLpns;
    }
    default: {
      // Verification sees the expected data, the unacked data or (a loss)
      // the erased state.
      ModelTruth& t = model[lpn];
      const std::uint64_t choices[] = {t.expected, t.alternate, nand::kErasedContent};
      const std::uint64_t seen = choices[rng.below(3)];
      shadow.observe(lpn, seen);
      t = ModelTruth{seen};
      return false;
    }
  }
}

TEST(ShadowStore, DifferentialAgainstMapModel) {
  ShadowStore shadow;
  Model model;
  sim::Rng rng(19);
  int straddles = 0;
  bool wide = false;
  const auto run = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      if (random_step(shadow, model, rng, wide)) ++straddles;
      expect_matches_model(shadow, model);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  run(1500);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(model.size(), kRange / 2);  // most of the low range's tag pages exist
  EXPECT_GT(straddles, 300);            // requests cross tag-page boundaries

  // A commit straddling the high window's first group boundary grows the
  // directory mid-run; later requests keep landing there.
  {
    const auto tags = shadow.allocate_tags(6);
    shadow.commit_write(kHighBase, tags);
    for (std::uint32_t i = 0; i < 6; ++i) model[kHighBase + i] = ModelTruth{tags[i]};
    expect_matches_model(shadow, model);
    ASSERT_FALSE(HasFatalFailure());
    wide = true;
  }
  run(800);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(std::distance(model.lower_bound(kHighBase), model.end()), 6);

  shadow.reset();
  model.clear();
  wide = false;
  EXPECT_EQ(shadow.tags_allocated(), 0u);
  expect_matches_model(shadow, model);
  run(800);
  ASSERT_FALSE(HasFatalFailure());

  // Snapshot, mutate (the directory grows past the image's), restore: the
  // store is identical to the image, visit for visit.
  ShadowStore::StateImage image;
  shadow.snapshot(image);
  const Model saved = model;
  const std::vector<Visit> saved_visits = visits_of(shadow);
  const std::uint64_t saved_tags = shadow.tags_allocated();
  wide = true;
  run(400);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_NE(visits_of(shadow), saved_visits);
  shadow.restore(image);
  model = saved;
  EXPECT_EQ(shadow.tags_allocated(), saved_tags);
  EXPECT_EQ(visits_of(shadow), saved_visits);
  expect_matches_model(shadow, model);
  ASSERT_FALSE(HasFatalFailure());
  run(400);
}

}  // namespace
}  // namespace pofi::platform
