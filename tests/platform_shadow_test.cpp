#include "platform/shadow_store.hpp"

#include <gtest/gtest.h>

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
// The store keeps its truth in two flat open-addressing tables; the model is
// a plain per-page record in a std::map. Random commits, failed writes and
// observations over an LPN range wide enough for several table doublings,
// with a reset and a snapshot/mutate/restore in the middle, must agree with
// the model on every page after every step.

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

constexpr ftl::Lpn kRange = 1536;  // 16 slots doubled 7 times

void expect_matches_model(const ShadowStore& shadow, const Model& model) {
  ASSERT_EQ(shadow.tracked_pages(), model.size());
  const std::uint64_t stray = 0xDEAD'0000'0000ULL;  // never allocated
  // The model's record of each LPN in range, null when untracked.
  std::vector<const ModelTruth*> by_lpn(kRange, nullptr);
  for (const auto& [lpn, truth] : model) by_lpn[lpn] = &truth;
  for (ftl::Lpn lpn = 0; lpn < kRange; ++lpn) {
    const ModelTruth* tracked = by_lpn[lpn];
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
  std::vector<int> visits(kRange, 0);
  shadow.for_each([&](ftl::Lpn lpn, std::uint64_t expected, bool indeterminate) {
    ASSERT_LT(lpn, kRange);
    ++visits[lpn];
    const ModelTruth* truth = by_lpn[lpn];
    ASSERT_NE(truth, nullptr) << "lpn " << lpn << " is not tracked";
    EXPECT_EQ(expected, truth->expected) << "lpn " << lpn;
    EXPECT_EQ(indeterminate, truth->indeterminate) << "lpn " << lpn;
  });
  for (ftl::Lpn lpn = 0; lpn < kRange; ++lpn) {
    const int want = by_lpn[lpn] != nullptr ? 1 : 0;
    if (visits[lpn] != want) {
      ASSERT_EQ(visits[lpn], want) << "lpn " << lpn;
    }
  }
}

void random_step(ShadowStore& shadow, Model& model, sim::Rng& rng) {
  const std::uint32_t pages = 1 + static_cast<std::uint32_t>(rng.below(8));
  const ftl::Lpn lpn = rng.below(kRange - pages + 1);
  switch (rng.below(3)) {
    case 0: {
      const auto tags = shadow.allocate_tags(pages);
      shadow.commit_write(lpn, tags);
      for (std::uint32_t i = 0; i < pages; ++i) model[lpn + i] = ModelTruth{tags[i]};
      break;
    }
    case 1: {
      const auto tags = shadow.allocate_tags(pages);
      shadow.mark_indeterminate(lpn, tags);
      for (std::uint32_t i = 0; i < pages; ++i) {
        ModelTruth& t = model[lpn + i];
        t.indeterminate = true;
        t.alternate = tags[i];
      }
      break;
    }
    default: {
      // Verification sees the expected data, the unacked data or (a loss)
      // the erased state.
      ModelTruth& t = model[lpn];
      const std::uint64_t choices[] = {t.expected, t.alternate, nand::kErasedContent};
      const std::uint64_t seen = choices[rng.below(3)];
      shadow.observe(lpn, seen);
      t = ModelTruth{seen};
      break;
    }
  }
}

TEST(ShadowStore, DifferentialAgainstMapModel) {
  ShadowStore shadow;
  Model model;
  sim::Rng rng(19);
  const auto run = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      random_step(shadow, model, rng);
      expect_matches_model(shadow, model);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };

  run(1500);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(model.size(), kRange / 2);  // the tables doubled well past 16 slots

  shadow.reset();
  model.clear();
  EXPECT_EQ(shadow.tags_allocated(), 0u);
  expect_matches_model(shadow, model);
  run(800);
  ASSERT_FALSE(HasFatalFailure());

  ShadowStore::StateImage image;
  shadow.snapshot(image);
  const Model saved = model;
  const std::uint64_t saved_tags = shadow.tags_allocated();
  run(400);
  ASSERT_FALSE(HasFatalFailure());
  shadow.restore(image);
  model = saved;
  EXPECT_EQ(shadow.tags_allocated(), saved_tags);
  expect_matches_model(shadow, model);
  run(400);
}

}  // namespace
}  // namespace pofi::platform
