#include "ftl/mapping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <map>
#include <vector>

#include "sim/rng.hpp"

namespace pofi::ftl {
namespace {

TEST(MappingTable, LookupUnknownIsEmpty) {
  MappingTable map(MappingPolicy::kPageLevel);
  EXPECT_FALSE(map.lookup(42).has_value());
  EXPECT_EQ(map.entry_count(), 0u);
}

TEST(MappingTable, UpdateAndLookup) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(10, 100);
  EXPECT_EQ(map.lookup(10), std::optional<Ppn>(100));
  map.update(10, 200);
  EXPECT_EQ(map.lookup(10), std::optional<Ppn>(200));
  EXPECT_EQ(map.entry_count(), 1u);
}

TEST(MappingTable, RemoveDropsEntry) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(10, 100);
  map.remove(10);
  EXPECT_FALSE(map.lookup(10).has_value());
  map.remove(11);  // removing unknown is a no-op
}

TEST(MappingTable, UpdatesAreVolatileUntilCommitted) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.update(2, 22);
  EXPECT_EQ(map.volatile_count(), 2u);
  EXPECT_EQ(map.committable_count(), 2u);

  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  EXPECT_EQ(map.batch_size(batch), 2u);
  EXPECT_EQ(map.committable_count(), 0u);  // in flight, not dirty
  EXPECT_EQ(map.volatile_count(), 2u);     // still volatile until commit

  map.commit_batch(batch);
  EXPECT_EQ(map.volatile_count(), 0u);
}

TEST(MappingTable, EmptyBatchReturnsZero) {
  MappingTable map(MappingPolicy::kPageLevel);
  EXPECT_EQ(map.begin_persist_batch(), 0u);
}

TEST(MappingTable, PowerLossRevertsToNothingForFreshEntries) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].lpn, 1u);
  EXPECT_EQ(reverted[0].dropped_ppn, std::optional<Ppn>(11));
  EXPECT_FALSE(reverted[0].restored_ppn.has_value());
  EXPECT_FALSE(map.lookup(1).has_value());
}

TEST(MappingTable, PowerLossRestoresPersistedValue) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());
  map.update(1, 99);  // volatile overwrite of a persisted entry
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));
}

TEST(MappingTable, InFlightBatchAlsoRevertsOnPowerLoss) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  // Journal page never completed: the batch must revert with the rest.
  const auto reverted = map.on_power_lost();
  EXPECT_EQ(reverted.size(), 1u);
  EXPECT_FALSE(map.lookup(1).has_value());
}

TEST(MappingTable, RedirtyDuringBatchKeepsNewValueVolatile) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  const auto batch = map.begin_persist_batch();
  map.update(1, 22);  // re-dirtied while the batch is in flight
  map.commit_batch(batch);
  // 11 is now durable; 22 is still volatile.
  EXPECT_EQ(map.volatile_count(), 1u);
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));
}

TEST(MappingTable, RemoveRevertsToRestoredValue) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());
  map.remove(1);
  EXPECT_FALSE(map.lookup(1).has_value());
  map.on_power_lost();
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));  // TRIM was volatile
}

TEST(MappingTable, AbortedBatchIsRecutWhole) {
  MappingTable map(MappingPolicy::kPageLevel);
  for (Lpn lpn = 5; lpn < 9; ++lpn) map.update(lpn, 100 + lpn);
  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  const std::vector<Lpn> cut = map.batch_lpns(batch);
  EXPECT_EQ(map.committable_count(), 0u);

  map.abort_batch(batch);
  EXPECT_EQ(map.committable_count(), 4u);
  EXPECT_EQ(map.batch_size(batch), 0u);  // record dropped
  EXPECT_EQ(map.volatile_count(), 4u);   // nothing became durable

  const auto recut = map.begin_persist_batch();
  ASSERT_NE(recut, 0u);
  EXPECT_NE(recut, batch);
  EXPECT_EQ(map.batch_lpns(recut), cut);
  map.commit_batch(recut);
  EXPECT_EQ(map.volatile_count(), 0u);
}

TEST(MappingTable, AbortRestoresPersistedValueOfRedirtiedMember) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());
  map.update(1, 22);
  const auto batch = map.begin_persist_batch();  // carries 22
  map.update(1, 33);                              // re-dirtied in flight
  map.abort_batch(batch);                         // 22 never became durable
  EXPECT_EQ(map.committable_count(), 1u);
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));
}

TEST(MappingTable, PowerLossRestoresValueFromBeforeInFlightCut) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  map.commit_batch(map.begin_persist_batch());
  map.update(1, 22);
  ASSERT_NE(map.begin_persist_batch(), 0u);  // carries 22, never commits
  map.update(1, 33);                          // re-dirtied in flight
  const auto reverted = map.on_power_lost();
  ASSERT_EQ(reverted.size(), 1u);
  EXPECT_EQ(reverted[0].dropped_ppn, std::optional<Ppn>(33));
  EXPECT_EQ(reverted[0].restored_ppn, std::optional<Ppn>(11));
  EXPECT_EQ(map.lookup(1), std::optional<Ppn>(11));  // not the unjournaled 22
}

TEST(MappingTable, PowerLossUnwindsEveryInFlightCut) {
  MappingTable map(MappingPolicy::kPageLevel);
  map.update(1, 11);
  ASSERT_NE(map.begin_persist_batch(), 0u);  // carries 11
  map.update(1, 22);
  ASSERT_NE(map.begin_persist_batch(), 0u);  // carries 22
  map.update(1, 33);
  (void)map.on_power_lost();
  EXPECT_FALSE(map.lookup(1).has_value());  // nothing for LPN 1 was durable
  EXPECT_EQ(map.entry_count(), 0u);
}

// ------------------------------------------------------ paged L2P storage

constexpr Lpn kPage = MappingTable::kTranslationPageLpns;

std::vector<std::pair<Lpn, Ppn>> visit(const MappingTable& map) {
  std::vector<std::pair<Lpn, Ppn>> out;
  map.for_each_mapping([&](Lpn lpn, Ppn ppn) { out.emplace_back(lpn, ppn); });
  return out;
}

TEST(MappingTablePaged, VisitsSparseRegionsInAscendingOrder) {
  MappingTable map(MappingPolicy::kPageLevel, 64, 16, /*lpn_capacity=*/2 * kPage);
  // Scrambled arrival across region edges, one region far past the capacity
  // hint and one region between them never written.
  const std::vector<Lpn> lpns = {40 * kPage + 7, kPage, 3, kPage - 1, 2 * kPage + 1, 0, 5 * kPage};
  for (const Lpn lpn : lpns) map.update(lpn, 1000 + lpn);
  std::vector<std::pair<Lpn, Ppn>> want;
  for (const Lpn lpn : lpns) want.emplace_back(lpn, 1000 + lpn);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(visit(map), want);
  EXPECT_EQ(map.entry_count(), lpns.size());
  EXPECT_EQ(map.lookup(40 * kPage + 7), std::optional<Ppn>(1000 + 40 * kPage + 7));
  EXPECT_FALSE(map.lookup(40 * kPage + 8).has_value());
  EXPECT_FALSE(map.lookup(41 * kPage).has_value());
  EXPECT_FALSE(map.lookup(1000 * kPage).has_value());
}

TEST(MappingTablePaged, OneTranslationPagePerRegionWritten) {
  MappingTable map(MappingPolicy::kPageLevel, 64, 16, /*lpn_capacity=*/4 * kPage);
  EXPECT_EQ(map.translation_pages(), 0u);
  map.update(1, 1);
  map.update(kPage - 1, 2);  // same region
  map.update(3 * kPage, 3);
  map.update(9 * kPage, 4);  // past the capacity hint
  EXPECT_EQ(map.translation_pages(), 3u);

  map.remove(1);
  map.remove(kPage - 1);
  EXPECT_EQ(map.entry_count(), 2u);
  EXPECT_EQ(map.translation_pages(), 3u);  // an emptied page is kept

  map.reset();
  EXPECT_EQ(map.translation_pages(), 0u);
  EXPECT_EQ(map.entry_count(), 0u);
  EXPECT_TRUE(visit(map).empty());
  for (const Lpn lpn : {Lpn{1}, kPage - 1, 3 * kPage, 9 * kPage}) {
    EXPECT_FALSE(map.lookup(lpn).has_value()) << lpn;
  }
}

TEST(MappingTablePaged, SnapshotRestoreRoundTrips) {
  MappingTable map(MappingPolicy::kHybridExtent, 64, 16, /*lpn_capacity=*/2 * kPage);
  for (Lpn lpn = 0; lpn < 40; ++lpn) map.update(lpn * 37, 500 + lpn);
  map.commit_batch(map.begin_persist_batch(true));
  map.update(6 * kPage + 2, 77);
  MappingTable::StateImage image;
  map.snapshot(image);
  const auto before = visit(map);
  const std::size_t pages = map.translation_pages();

  map.update(37, 9);            // overwrite
  map.remove(74);               // TRIM
  map.update(12 * kPage, 10);   // new region past the capacity hint
  map.debug_clear_slot(6 * kPage + 2);
  ASSERT_NE(visit(map), before);

  map.restore(image);
  EXPECT_EQ(visit(map), before);
  EXPECT_EQ(map.entry_count(), before.size());
  EXPECT_EQ(map.translation_pages(), pages);
  for (const auto& [lpn, ppn] : before) EXPECT_EQ(map.lookup(lpn), std::optional<Ppn>(ppn));
  EXPECT_FALSE(map.lookup(12 * kPage).has_value());
}

TEST(MappingTablePaged, DebugSlotsOnUntouchedRegionKeepEntryCount) {
  MappingTable map(MappingPolicy::kPageLevel, 64, 16, /*lpn_capacity=*/kPage);
  map.update(5, 50);
  map.debug_clear_slot(3 * kPage);              // never-touched region: no-op
  map.debug_set_slot(7 * kPage, kUnmappedPpn);  // clearing one, too
  EXPECT_EQ(map.entry_count(), 1u);
  EXPECT_EQ(map.translation_pages(), 1u);

  map.debug_set_slot(7 * kPage + 1, 71);
  map.debug_set_slot(7 * kPage + 1, 72);  // overwrite: still one mapping
  EXPECT_EQ(map.entry_count(), 2u);
  EXPECT_EQ(map.translation_pages(), 2u);
  EXPECT_EQ(map.lookup(7 * kPage + 1), std::optional<Ppn>(72));

  map.debug_clear_slot(7 * kPage + 1);
  map.debug_clear_slot(7 * kPage + 1);  // already empty
  map.debug_set_slot(5, kUnmappedPpn);
  EXPECT_EQ(map.entry_count(), 0u);
  EXPECT_TRUE(visit(map).empty());
}

// ----------------------------------------------------------- extent frames

constexpr std::uint32_t kFrame = 512;
constexpr std::uint32_t kMinFill = 260;

TEST(MappingTableExtent, RandomWritesAreNotWithheld) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  // A single 256-page "request" (largest allowed) never triggers detection.
  for (Lpn lpn = 0; lpn < 256; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.open_extents(), 0u);
  EXPECT_EQ(map.committable_count(), 256u);
}

TEST(MappingTableExtent, SequentialStreamIsWithheld) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  // Two back-to-back contiguous requests cross the detection threshold.
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.open_extents(), 1u);
  // Everything in frame 0 is withheld from the journal.
  EXPECT_EQ(map.committable_count(), 0u);
  const auto batch = map.begin_persist_batch();
  EXPECT_EQ(map.batch_size(batch), 0u);
}

TEST(MappingTableExtent, StagnantExtentClosesAfterTwoCuts) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  // First cut records the size; second cut sees no growth and closes it.
  EXPECT_EQ(map.begin_persist_batch(), 0u);
  const auto batch = map.begin_persist_batch();
  ASSERT_NE(batch, 0u);
  EXPECT_EQ(map.batch_size(batch), 300u);
}

TEST(MappingTableExtent, GrowingExtentStaysOpen) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.begin_persist_batch(), 0u);
  for (Lpn lpn = 300; lpn < 350; ++lpn) map.update(lpn, 1000 + lpn);  // still growing
  EXPECT_EQ(map.begin_persist_batch(), 0u);  // not stagnant yet
  EXPECT_EQ(map.open_extents(), 1u);
}

TEST(MappingTableExtent, EmergencyFlushIncludesWithheld) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  const auto batch = map.begin_persist_batch(/*include_withheld=*/true);
  ASSERT_NE(batch, 0u);
  EXPECT_EQ(map.batch_size(batch), 300u);
}

TEST(MappingTableExtent, ScrambledArrivalOrderStillDetectsStream) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  // Dense region written in a shuffled order (cache-flush scramble).
  for (Lpn i = 0; i < 300; ++i) {
    const Lpn lpn = (i * 7) % 300;  // permutation of [0,300)
    map.update(lpn, 2000 + lpn);
  }
  EXPECT_EQ(map.open_extents(), 1u);
}

TEST(MappingTableExtent, FrameForgottenWhenDrained) {
  MappingTable map(MappingPolicy::kHybridExtent, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 300; ++lpn) map.update(lpn, 1000 + lpn);
  (void)map.begin_persist_batch();                     // records size
  const auto batch = map.begin_persist_batch();  // stagnant -> closed
  map.commit_batch(batch);
  EXPECT_EQ(map.volatile_count(), 0u);
  // New writes into the same frame start fresh (no stale `touched`).
  for (Lpn lpn = 0; lpn < 100; ++lpn) map.update(lpn, 3000 + lpn);
  EXPECT_EQ(map.open_extents(), 0u);
  EXPECT_EQ(map.committable_count(), 100u);
}

TEST(MappingTableExtent, PageLevelPolicyIgnoresFrames) {
  MappingTable map(MappingPolicy::kPageLevel, kFrame, kMinFill);
  for (Lpn lpn = 0; lpn < 600; ++lpn) map.update(lpn, 1000 + lpn);
  EXPECT_EQ(map.open_extents(), 0u);
  EXPECT_EQ(map.committable_count(), 600u);
}

// ------------------------------------------- committable_count differential
// committable_count() is maintained incrementally. This reference model keeps
// only the state the count depends on and recounts it by the definition: a
// scan for dirty entries outside withheld extent frames. Beside it, the L2P
// itself is kept as a std::map, with each volatile entry's persisted value and
// each batch's re-dirtied members, so every lookup and the whole visit
// sequence of the paged table can be checked after each step.

struct ReferenceModel {
  struct Frame {
    std::uint32_t touched = 0;
    std::uint32_t dirty = 0;
    std::uint32_t at_last_cut = 0;
    bool closed = false;
  };

  MappingPolicy policy;
  std::uint32_t extent_pages;
  std::uint32_t min_fill;
  std::map<Lpn, std::uint64_t> volatile_batch{};  ///< volatile LPN -> batch (0 = dirty)
  std::map<std::uint64_t, Frame> frames{};
  std::map<std::uint64_t, std::vector<Lpn>> batches{};
  std::uint64_t next_batch = 1;
  std::map<Lpn, Ppn> l2p{};
  std::map<Lpn, std::optional<Ppn>> persisted{};  ///< volatile LPN -> value a power loss restores
  std::map<std::uint64_t, std::vector<std::pair<Lpn, std::optional<Ppn>>>> redirtied{};
  std::set<std::uint64_t> pages{};  ///< translation-page regions written since reset

  [[nodiscard]] std::optional<Ppn> value(Lpn lpn) const {
    const auto it = l2p.find(lpn);
    return it == l2p.end() ? std::nullopt : std::optional<Ppn>(it->second);
  }

  void update(Lpn lpn, Ppn ppn) {
    mark_dirty(lpn);
    l2p[lpn] = ppn;
    pages.insert(lpn / kPage);
  }

  void remove(Lpn lpn) {
    if (!value(lpn).has_value()) return;
    mark_dirty(lpn);
    l2p.erase(lpn);
  }

  [[nodiscard]] bool withheld(Lpn lpn) const {
    if (policy != MappingPolicy::kHybridExtent) return false;
    const auto it = frames.find(lpn / extent_pages);
    return it != frames.end() && !it->second.closed && it->second.touched >= min_fill;
  }

  [[nodiscard]] std::size_t committable() const {
    std::size_t n = 0;
    for (const auto& [lpn, batch] : volatile_batch) {
      if (batch == 0 && !withheld(lpn)) ++n;
    }
    return n;
  }

  void mark_dirty(Lpn lpn) {
    const auto it = volatile_batch.find(lpn);
    if (it != volatile_batch.end()) {
      if (it->second != 0) {
        redirtied[it->second].emplace_back(lpn, persisted[lpn]);
        persisted[lpn] = value(lpn);
      }
      it->second = 0;
      return;
    }
    volatile_batch.emplace(lpn, 0);
    persisted[lpn] = value(lpn);
    if (policy != MappingPolicy::kHybridExtent) return;
    Frame& f = frames[lpn / extent_pages];
    ++f.touched;
    ++f.dirty;
    f.closed = false;
  }

  std::uint64_t cut(bool include_withheld) {
    if (policy == MappingPolicy::kHybridExtent) {
      for (auto& [id, f] : frames) {
        if (f.closed) continue;
        if (f.touched >= min_fill && f.touched == f.at_last_cut) {
          f.closed = true;
        } else {
          f.at_last_cut = f.touched;
        }
      }
    }
    std::vector<Lpn> members;
    for (const auto& [lpn, batch] : volatile_batch) {
      if (batch == 0 && (include_withheld || !withheld(lpn))) members.push_back(lpn);
    }
    if (members.empty()) return 0;
    const std::uint64_t id = next_batch++;
    for (const Lpn lpn : members) volatile_batch[lpn] = id;
    batches.emplace(id, std::move(members));
    return id;
  }

  void commit(std::uint64_t id) {
    for (const Lpn lpn : batches[id]) {
      const auto it = volatile_batch.find(lpn);
      if (it == volatile_batch.end() || it->second != id) continue;
      volatile_batch.erase(it);
      persisted.erase(lpn);
      if (policy != MappingPolicy::kHybridExtent) continue;
      const auto fit = frames.find(lpn / extent_pages);
      if (--fit->second.dirty == 0) frames.erase(fit);
    }
    batches.erase(id);
    redirtied.erase(id);
  }

  void abort(std::uint64_t id) {
    for (const Lpn lpn : batches[id]) {
      const auto it = volatile_batch.find(lpn);
      if (it != volatile_batch.end() && it->second == id) it->second = 0;
    }
    unwind(id);
    batches.erase(id);
  }

  /// Batch `id` never commits: its re-dirtied members fall back to the value
  /// re-dirtying displaced.
  void unwind(std::uint64_t id) {
    for (const auto& [lpn, displaced] : redirtied[id]) {
      if (volatile_batch.count(lpn) != 0) persisted[lpn] = displaced;
    }
    redirtied.erase(id);
  }

  void power_loss() {
    for (auto it = batches.rbegin(); it != batches.rend(); ++it) unwind(it->first);
    for (const auto& [lpn, restored] : persisted) {
      if (restored.has_value()) {
        l2p[lpn] = *restored;
      } else {
        l2p.erase(lpn);
      }
    }
    clear();
  }

  void reset() {
    clear();
    l2p.clear();
    pages.clear();
    next_batch = 1;
  }

  void clear() {
    volatile_batch.clear();
    frames.clear();
    batches.clear();
    persisted.clear();
    redirtied.clear();
  }
};

void run_counter_differential(MappingPolicy policy, std::uint64_t seed) {
  constexpr std::uint32_t kDiffFrame = 16;
  constexpr std::uint32_t kDiffMinFill = 6;
  constexpr Lpn kLpns = 160;
  // The kLpns logical slots are laid out in 32-LPN blocks (whole extent
  // frames) 1000 LPNs apart: one block straddles the translation-page edge
  // where the capacity hint ends, and the rest lie past it.
  const auto at = [](Lpn i) { return (i / 32) * 1000 + i % 32; };
  MappingTable map(policy, kDiffFrame, kDiffMinFill, /*lpn_capacity=*/2 * kPage);
  ReferenceModel model{.policy = policy, .extent_pages = kDiffFrame, .min_fill = kDiffMinFill};
  sim::Rng rng(seed);
  Ppn next_ppn = 1;
  Lpn stream = 0;  // cursor of a sequential stream that fills extent frames

  MappingTable::StateImage image;
  ReferenceModel saved = model;
  bool have_image = false;

  const auto in_flight_batch = [&]() -> std::uint64_t {
    if (model.batches.empty()) return 0;
    auto it = model.batches.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.below(model.batches.size())));
    return it->first;
  };

  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 35) {  // sequential stream
      const Lpn lpn = at(stream);
      stream = (stream + 1) % kLpns;
      map.update(lpn, next_ppn);
      model.update(lpn, next_ppn++);
    } else if (op < 60) {  // random overwrite (re-dirties in-flight members)
      const Lpn lpn = at(rng.below(kLpns));
      map.update(lpn, next_ppn);
      model.update(lpn, next_ppn++);
    } else if (op < 68) {  // TRIM; a no-op on unmapped LPNs
      const Lpn lpn = at(rng.below(kLpns));
      map.remove(lpn);
      model.remove(lpn);
    } else if (op < 78) {
      const bool include_withheld = rng.below(4) == 0;
      ASSERT_EQ(map.begin_persist_batch(include_withheld), model.cut(include_withheld));
    } else if (op < 87) {
      if (const auto id = in_flight_batch(); id != 0) {
        map.commit_batch(id);
        model.commit(id);
      }
    } else if (op < 93) {
      if (const auto id = in_flight_batch(); id != 0) {
        map.abort_batch(id);
        model.abort(id);
      }
    } else if (op < 95) {
      (void)map.on_power_lost();
      model.power_loss();
    } else if (op < 98) {
      if (have_image && rng.below(2) == 0) {
        map.restore(image);
        model = saved;
      } else {
        map.snapshot(image);
        saved = model;
        have_image = true;
      }
    } else if (op < 99) {
      map.reset();
      model.reset();
      have_image = false;
    }
    ASSERT_EQ(map.committable_count(), model.committable()) << "step " << step << " op " << op;
    ASSERT_EQ(map.volatile_count(), model.volatile_batch.size()) << "step " << step;
    for (Lpn i = 0; i < kLpns; ++i) {
      ASSERT_EQ(map.lookup(at(i)), model.value(at(i))) << "step " << step << " lpn " << at(i);
    }
    ASSERT_EQ(visit(map), (std::vector<std::pair<Lpn, Ppn>>(model.l2p.begin(), model.l2p.end())))
        << "step " << step;
    ASSERT_EQ(map.entry_count(), model.l2p.size()) << "step " << step;
    ASSERT_EQ(map.translation_pages(), model.pages.size()) << "step " << step;
  }
}

TEST(MappingTableCounter, MatchesRecountPageLevel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    run_counter_differential(MappingPolicy::kPageLevel, seed);
  }
}

TEST(MappingTableCounter, MatchesRecountHybridExtent) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    run_counter_differential(MappingPolicy::kHybridExtent, seed);
  }
}

}  // namespace
}  // namespace pofi::ftl
