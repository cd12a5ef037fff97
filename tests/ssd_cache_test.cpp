#include "ssd/write_cache.hpp"

#include "legacy_write_cache.hpp"
#include "nand/chip_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

namespace pofi::ssd {
namespace {

using ftl::Lpn;
using sim::Duration;
using sim::Simulator;

struct Harness {
  explicit Harness(WriteCache::Config cache_cfg = default_cache(), ftl::Ftl::Config ftl_cfg = fast_journal())
      : sim(11),
        chip(sim, nand::ChipArray::Config{1, chip_config()}),
        ftl(sim, chip, ftl_cfg),
        cache(sim, ftl, cache_cfg) {
    chip.on_power_good();
    ftl.on_power_good();
    cache.on_power_good();
  }

  static nand::NandChip::Config chip_config() {
    nand::NandChip::Config cfg;
    cfg.geometry.page_size_bytes = 4096;
    cfg.geometry.pages_per_block = 32;
    cfg.geometry.blocks_per_plane = 32;
    cfg.geometry.planes = 4;
    return cfg;
  }
  static WriteCache::Config default_cache() {
    WriteCache::Config cfg;
    cfg.capacity_pages = 64;
    cfg.hold_time = Duration::ms(50);
    cfg.flush_ways = 4;
    cfg.high_watermark = 0.75;
    cfg.flush_scramble_window = 8;
    return cfg;
  }
  static ftl::Ftl::Config fast_journal() {
    ftl::Ftl::Config cfg;
    cfg.journal_interval = Duration::ms(5);
    return cfg;
  }

  Simulator sim;
  nand::ChipArray chip;
  ftl::Ftl ftl;
  WriteCache cache;
};

TEST(WriteCache, InsertThenLookup) {
  Harness h;
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  EXPECT_EQ(h.cache.lookup(10), std::optional<std::uint64_t>(0xAA));
  EXPECT_FALSE(h.cache.lookup(11).has_value());
  EXPECT_EQ(h.cache.dirty_pages(), 1u);
}

TEST(WriteCache, OverwriteCoalesces) {
  Harness h;
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  EXPECT_TRUE(h.cache.insert(10, 0xBB));
  EXPECT_EQ(h.cache.lookup(10), std::optional<std::uint64_t>(0xBB));
  EXPECT_EQ(h.cache.dirty_pages(), 1u);  // still one dirty page
}

TEST(WriteCache, InsertFailsWhenUnpowered) {
  Harness h;
  h.cache.on_power_lost();
  EXPECT_FALSE(h.cache.insert(1, 2));
}

TEST(WriteCache, FlushRefusedByUnpoweredFtlStaysDirty) {
  // Ftl::write fails inside the call when the FTL is unpowered. The flush
  // must re-queue the line and stop, not re-pick it in the same stack.
  Harness h;
  h.ftl.on_power_lost();  // chip and cache stay powered
  ASSERT_TRUE(h.cache.insert(3, 0xAB));
  bool drained = false;
  h.cache.flush_all([&] { drained = true; });
  h.sim.run_for(Duration::ms(200));  // the hold-time wake retries and is refused again
  EXPECT_FALSE(drained);
  EXPECT_EQ(h.cache.dirty_pages(), 1u);
  EXPECT_EQ(h.cache.stats().flushes_completed, 0u);
  EXPECT_EQ(h.cache.lookup(3), std::optional<std::uint64_t>(0xAB));

  // With the FTL back, the next insert's pump retries the re-queued line.
  h.ftl.on_power_good();
  ASSERT_TRUE(h.cache.insert(4, 0xCD));
  h.sim.run_for(Duration::ms(200));
  EXPECT_TRUE(drained);
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
  EXPECT_EQ(h.cache.stats().flushes_completed, 2u);
}

TEST(WriteCache, HoldTimeDelaysFlush) {
  Harness h;
  EXPECT_TRUE(h.cache.insert(10, 0xAA));
  h.sim.run_for(Duration::ms(20));  // < hold_time
  EXPECT_EQ(h.cache.dirty_pages(), 1u);
  EXPECT_EQ(h.cache.stats().flushes_completed, 0u);
  h.sim.run_for(Duration::ms(100));  // past hold_time + program
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
  EXPECT_EQ(h.cache.stats().flushes_completed, 1u);
  // Flushed data is readable through the FTL.
  std::optional<std::uint64_t> seen;
  h.ftl.read(10, [&](const nand::OpResult& r) { seen = r.content; });
  while (!seen.has_value() && !h.sim.idle()) h.sim.run_all(1);
  EXPECT_EQ(seen, std::optional<std::uint64_t>(0xAA));
}

TEST(WriteCache, WatermarkForcesEagerFlush) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::sec(100);  // hold would block flushing forever
  cfg.high_watermark = 0.5;            // 32 of 64 pages
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 40; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  h.sim.run_for(Duration::ms(500));
  // Pressure flushed the backlog despite the huge hold time.
  EXPECT_LT(h.cache.dirty_pages(), 40u);
  EXPECT_GT(h.cache.stats().flushes_completed, 0u);
}

TEST(WriteCache, BackpressureWhenFullOfDirty) {
  auto cfg = Harness::default_cache();
  cfg.capacity_pages = 8;
  cfg.hold_time = Duration::sec(100);
  cfg.high_watermark = 2.0;  // never pressured: everything stays dirty
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 8; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  EXPECT_FALSE(h.cache.insert(99, 99));
  EXPECT_GT(h.cache.stats().backpressure_stalls, 0u);
  // on_space fires once a flush frees room.
  bool notified = false;
  h.cache.on_space([&] { notified = true; });
  h.cache.flush_all([] {});
  h.sim.run_for(Duration::ms(200));
  EXPECT_TRUE(notified);
  EXPECT_TRUE(h.cache.insert(99, 99));
}

TEST(WriteCache, EmergencyFlushDrainsEverything) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::sec(100);
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 20; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn + 1000));
  bool done = false;
  h.cache.flush_all([&] { done = true; });
  h.sim.run_for(Duration::ms(200));
  EXPECT_TRUE(done);
  EXPECT_EQ(h.cache.dirty_pages(), 0u);
}

TEST(WriteCache, EmergencyFlushOnEmptyCacheFiresImmediately) {
  Harness h;
  bool done = false;
  h.cache.flush_all([&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(WriteCache, PowerLossDropsDirtyData) {
  Harness h;
  for (Lpn lpn = 0; lpn < 5; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn));
  const std::size_t lost = h.cache.on_power_lost();
  EXPECT_EQ(lost, 5u);
  EXPECT_EQ(h.cache.resident_pages(), 0u);
  EXPECT_EQ(h.cache.stats().dirty_lost_on_power_failure, 5u);
  h.cache.on_power_good();
  EXPECT_FALSE(h.cache.lookup(0).has_value());
}

TEST(WriteCache, PowerLossDeclaresInFlightFlushes) {
  // The declared loss list must include pages whose flush is in flight at
  // the FTL: they are still dirty, but the flusher already took their
  // tickets, so only a walk over every resident page finds them.
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::ms(1);
  cfg.flush_ways = 4;
  Harness h(cfg);
  std::vector<Lpn> dirty;
  for (Lpn lpn = 900; lpn > 800; lpn -= 10) {  // descending: sort is observable
    ASSERT_TRUE(h.cache.insert(lpn, lpn));
    dirty.push_back(lpn);
  }
  // Step to the first moment flushes are in flight at the FTL.
  for (int i = 0; i < 100 && h.cache.quiescent(); ++i) h.sim.run_for(Duration::us(50));
  ASSERT_FALSE(h.cache.quiescent());
  ASSERT_EQ(h.cache.stats().flushes_completed, 0u);
  // More dirty pages, still queued behind the hold time.
  for (Lpn lpn = 7; lpn < 12; ++lpn) {
    ASSERT_TRUE(h.cache.insert(lpn, lpn));
    dirty.push_back(lpn);
  }
  ASSERT_FALSE(h.cache.quiescent());
  ASSERT_EQ(h.cache.stats().flushes_completed, 0u);

  const std::size_t lost = h.cache.on_power_lost();
  std::sort(dirty.begin(), dirty.end());
  EXPECT_EQ(h.cache.last_dropped_lpns(), dirty);
  EXPECT_EQ(lost, dirty.size());
}

TEST(WriteCache, RedirtyDuringFlushKeepsNewValue) {
  auto cfg = Harness::default_cache();
  cfg.hold_time = Duration::ms(1);
  Harness h(cfg);
  ASSERT_TRUE(h.cache.insert(10, 0xAA));
  h.sim.run_for(Duration::ms(2));  // flush of 0xAA now in flight
  ASSERT_TRUE(h.cache.insert(10, 0xBB));
  h.sim.run_for(Duration::ms(200));
  // The entry must not be marked clean with the stale value.
  EXPECT_EQ(h.cache.lookup(10), std::optional<std::uint64_t>(0xBB));
  // And the final flash state converges to 0xBB.
  std::optional<std::uint64_t> seen;
  h.ftl.read(10, [&](const nand::OpResult& r) { seen = r.content; });
  while (!seen.has_value() && !h.sim.idle()) h.sim.run_all(1);
  EXPECT_EQ(seen, std::optional<std::uint64_t>(0xBB));
}

TEST(WriteCache, CapacityNeverExceeded) {
  auto cfg = Harness::default_cache();
  cfg.capacity_pages = 16;
  cfg.hold_time = Duration::ms(1);
  Harness h(cfg);
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    (void)h.cache.insert(rng.below(64), i);
    h.sim.run_for(Duration::us(200));
    ASSERT_LE(h.cache.resident_pages(), 16u);
  }
}

TEST(WriteCache, ScrambleWindowOneIsStrictFifo) {
  auto cfg = Harness::default_cache();
  cfg.flush_scramble_window = 1;
  cfg.hold_time = Duration::ms(1);
  cfg.flush_ways = 1;
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 4; ++lpn) ASSERT_TRUE(h.cache.insert(lpn, lpn + 50));
  h.sim.run_for(Duration::sec(1));
  EXPECT_EQ(h.cache.stats().flushes_completed, 4u);
}


// --- Differential model -----------------------------------------------------
// The cache checked step by step against a std::map + std::deque reference.
// Flushing is made predictable: the hold time is never reached and the cache
// never pressured, so pages flush only in explicit drains, and one flush way
// with a scramble window of 1 completes them in strict FIFO order. A small
// capacity with LPNs spread sparsely over a wide range drives index probe
// collisions, index growth and backward-shift deletes; the mix covers
// inserts, overwrites, TRIM, clean eviction, full and partial drains, power
// loss (in-flight pages included) and session reset.

class MapModel {
 public:
  explicit MapModel(std::size_t capacity) : capacity_(capacity) {}

  bool insert(Lpn lpn, std::uint64_t content) {
    auto it = pages_.find(lpn);
    if (it == pages_.end()) {
      if (pages_.size() >= capacity_) {
        evict_clean();
        if (pages_.size() >= capacity_) return false;
      }
      it = pages_.emplace(lpn, Page{}).first;
    } else if (it->second.dirty) {
      --dirty_;
    }
    it->second = Page{content, next_seq_++, true};
    ++dirty_;
    dirty_fifo_.emplace_back(lpn, it->second.seq);
    return true;
  }

  void invalidate(Lpn lpn) {
    const auto it = pages_.find(lpn);
    if (it == pages_.end()) return;
    if (it->second.dirty) --dirty_;
    pages_.erase(it);
  }

  /// One flush completion: the oldest live dirty ticket turns clean.
  void flush_one() {
    while (!dirty_fifo_.empty()) {
      const auto [lpn, seq] = dirty_fifo_.front();
      dirty_fifo_.pop_front();
      const auto it = pages_.find(lpn);
      if (it == pages_.end() || !it->second.dirty || it->second.seq != seq) continue;
      it->second.dirty = false;
      --dirty_;
      clean_fifo_.emplace_back(lpn, seq);
      evict_clean();
      return;
    }
    FAIL() << "model has no dirty page to flush";
  }

  /// Power loss: the sorted dirty LPNs; everything is dropped.
  std::vector<Lpn> power_lost() {
    std::vector<Lpn> dropped;
    for (const auto& [lpn, page] : pages_) {
      if (page.dirty) dropped.push_back(lpn);
    }
    clear();
    return dropped;
  }

  void clear() {
    pages_.clear();
    dirty_fifo_.clear();
    clean_fifo_.clear();
    dirty_ = 0;
  }

  [[nodiscard]] std::optional<std::uint64_t> lookup(Lpn lpn) const {
    const auto it = pages_.find(lpn);
    if (it == pages_.end()) return std::nullopt;
    return it->second.content;
  }
  [[nodiscard]] std::size_t resident() const { return pages_.size(); }
  [[nodiscard]] std::size_t dirty() const { return dirty_; }

 private:
  struct Page {
    std::uint64_t content = 0;
    std::uint64_t seq = 0;
    bool dirty = false;
  };

  void evict_clean() {
    while (pages_.size() >= capacity_ && !clean_fifo_.empty()) {
      const auto [lpn, seq] = clean_fifo_.front();
      clean_fifo_.pop_front();
      const auto it = pages_.find(lpn);
      if (it == pages_.end() || it->second.dirty || it->second.seq != seq) continue;
      pages_.erase(it);
    }
  }

  std::size_t capacity_;
  std::map<Lpn, Page> pages_;
  std::deque<std::pair<Lpn, std::uint64_t>> dirty_fifo_;
  std::deque<std::pair<Lpn, std::uint64_t>> clean_fifo_;
  std::uint64_t next_seq_ = 1;
  std::size_t dirty_ = 0;
};

void run_differential(std::uint64_t seed, std::size_t capacity) {
  auto cfg = Harness::default_cache();
  cfg.capacity_pages = capacity;
  cfg.hold_time = Duration::sec(100'000);  // never ripe: flushes only in drains
  cfg.high_watermark = 2.0;                // never pressured
  cfg.flush_ways = 1;
  cfg.flush_scramble_window = 1;
  Harness h(cfg);
  MapModel model(capacity);
  sim::Rng rng(seed);
  std::uint64_t evictions = 0;  // stats summed across session resets
  std::uint64_t stalls = 0;

  // 3x capacity distinct LPNs spread over half the drive's pages (the FTL
  // sizes its L2P by geometry, so LPNs stay inside it).
  const std::uint64_t span = h.chip.geometry().total_pages() / 2;
  std::vector<Lpn> lpns;
  while (lpns.size() < 3 * capacity) {
    const Lpn lpn = rng.below(span);
    if (std::find(lpns.begin(), lpns.end(), lpn) == lpns.end()) lpns.push_back(lpn);
  }

  // Starts an emergency drain and mirrors every completion it makes within
  // `budget` (whole drain when nullopt). Returns whether the drain finished.
  const auto drain = [&](std::optional<Duration> budget) {
    bool done = false;
    const std::uint64_t flushed = h.cache.stats().flushes_completed;
    h.cache.flush_all([&] { done = true; });
    if (budget.has_value()) {
      h.sim.run_for(*budget);
    } else {
      for (int i = 0; i < 10'000 && !done; ++i) h.sim.run_for(Duration::ms(1));
      EXPECT_TRUE(done);
    }
    for (auto n = h.cache.stats().flushes_completed - flushed; n > 0; --n) model.flush_one();
    return done;
  };
  // A power loss, with the FTL's in-flight program left to settle before
  // power returns (a late completion must not race a new flush).
  const auto power_cycle = [&](int step) {
    const std::vector<Lpn> expected = model.power_lost();
    EXPECT_EQ(h.cache.on_power_lost(), expected.size()) << "step " << step;
    EXPECT_EQ(h.cache.last_dropped_lpns(), expected) << "step " << step;
    h.sim.run_for(Duration::ms(50));
  };

  for (int step = 0; step < 4000; ++step) {
    const Lpn lpn = lpns[rng.below(lpns.size())];
    // Drains come about every capacity steps and power events every
    // 4 * capacity, so the cache fills (eviction, backpressure) between them.
    const std::uint64_t power_event = rng.below(4 * capacity);
    const bool drain_now = rng.below(capacity) == 0;
    const std::uint64_t op = rng.below(100);
    if (power_event == 0 && op < 50) {
      // Power loss mid-drain: the page whose flush is in flight is still
      // dirty and must be declared lost.
      if (!drain(Duration::us(rng.below(3000)))) {
        power_cycle(step);
        h.cache.on_power_good();
      }
    } else if (power_event == 0 && op < 80) {
      power_cycle(step);
      h.cache.on_power_good();
    } else if (power_event == 0) {
      power_cycle(step);
      evictions += h.cache.stats().clean_evictions;
      stalls += h.cache.stats().backpressure_stalls;
      h.cache.reset();
      model.clear();
      h.cache.on_power_good();
    } else if (drain_now) {
      drain(std::nullopt);
    } else if (op < 85) {
      const auto content = static_cast<std::uint64_t>(step) + 1;
      ASSERT_EQ(h.cache.insert(lpn, content), model.insert(lpn, content)) << "step " << step;
    } else {
      h.cache.invalidate(lpn);
      model.invalidate(lpn);
    }
    for (const Lpn probe : lpns) {
      ASSERT_EQ(h.cache.lookup(probe), model.lookup(probe)) << "step " << step << " lpn " << probe;
    }
    ASSERT_EQ(h.cache.resident_pages(), model.resident()) << "step " << step;
    ASSERT_EQ(h.cache.dirty_pages(), model.dirty()) << "step " << step;
  }
  // Eviction and backpressure both ran.
  EXPECT_GT(evictions + h.cache.stats().clean_evictions, 0u);
  EXPECT_GT(stalls + h.cache.stats().backpressure_stalls, 0u);
}

TEST(WriteCache, DifferentialAgainstMapModel) {
  for (const std::size_t capacity : {16u, 32u, 64u}) {
    SCOPED_TRACE(capacity);
    run_differential(100 + capacity, capacity);
    if (HasFatalFailure()) return;
  }
}

// --- Flush order pin --------------------------------------------------------
// The flusher's pick (uniform among the ripe live tickets of the scramble
// window) decides which pages a fault leaves partially applied, so it is part
// of every golden. These hashes pin the exact LPN order reaching the FTL
// under a mix that leaves stale tickets (overwrites and invalidations) inside
// the window; an optimisation of the pick must leave them unchanged.

/// FNV-1a over the LPNs of every host page programmed so far, in FTL write
/// order (the OOB write-sequence stamp). Journal pages carry no OOB LPN.
std::uint64_t flush_order_hash(const Harness& h) {
  std::vector<std::pair<std::uint64_t, Lpn>> writes;
  for (nand::Ppn ppn = 0; ppn < h.chip.geometry().total_pages(); ++ppn) {
    const nand::Page* page = h.chip.peek(ppn);
    if (page == nullptr || page->status == nand::PageStatus::kErased) continue;
    if (page->oob.valid()) writes.emplace_back(page->oob.seq, page->oob.lpn);
  }
  std::sort(writes.begin(), writes.end());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [seq, lpn] : writes) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (lpn >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

struct FlushMix {
  std::uint64_t order_hash = 0;
  std::uint64_t flushed = 0;
};

FlushMix run_flush_mix(bool pressured) {
  auto cfg = Harness::default_cache();
  cfg.flush_scramble_window = 32;
  cfg.hold_time = Duration::ms(2);
  cfg.capacity_pages = pressured ? 64 : 4096;
  cfg.high_watermark = pressured ? 0.125 : 2.0;  // 2.0: never pressured
  Harness h(cfg);
  sim::Rng rng(pressured ? 7 : 5);
  for (int i = 0; i < 1500; ++i) {
    const Lpn lpn = rng.below(192);
    if (rng.below(5) == 0) {
      h.cache.invalidate(lpn);  // its queued ticket goes stale
    } else {
      (void)h.cache.insert(lpn, 0x1000 + i);  // overwrite stales the old ticket
    }
    h.sim.run_for(Duration::us(20 + rng.below(200)));
  }
  bool drained = false;
  h.cache.flush_all([&] { drained = true; });
  h.sim.run_for(Duration::sec(1));
  EXPECT_TRUE(drained);
  EXPECT_EQ(h.ftl.stats().gc_erases, 0u);  // GC would re-stamp and erase pages
  return FlushMix{flush_order_hash(h), h.cache.stats().flushes_completed};
}

TEST(WriteCache, FlushOrderPinnedUnpressured) {
  const FlushMix mix = run_flush_mix(/*pressured=*/false);
  EXPECT_EQ(mix.order_hash, 0x40200fe93dc48708ULL);
  EXPECT_EQ(mix.flushed, 1038u);
}

TEST(WriteCache, FlushOrderPinnedPressured) {
  const FlushMix mix = run_flush_mix(/*pressured=*/true);
  EXPECT_EQ(mix.order_hash, 0xde30ebc21b4028caULL);
  EXPECT_EQ(mix.flushed, 1049u);
}

// --- Flush pick against the tombstone ring ---------------------------------
// A pick takes its ticket out of the dirty ring, so the scramble window is
// the ring's first tickets. The frozen reference (legacy_write_cache.hpp)
// left a tombstone in place and skipped tombstones while gathering the
// window. Both must send the same pages to flash in the same order and leave
// the cache RNG in the same state.

/// One cache on its own simulator, chip and FTL. The chip has one plane, so
/// concurrent flushes queue behind each other and a chip power blip has
/// queued programs to drop.
template <typename Cache>
struct PickRig {
  explicit PickRig(const WriteCache::Config& cfg)
      : sim(11),
        chip(sim, nand::ChipArray::Config{1, chip_config()}),
        ftl(sim, chip, Harness::fast_journal()),
        cache(sim, ftl, cfg) {
    chip.on_power_good();
    ftl.on_power_good();
    cache.on_power_good();
  }

  static nand::NandChip::Config chip_config() {
    nand::NandChip::Config cfg = Harness::chip_config();
    cfg.geometry.planes = 1;
    cfg.geometry.blocks_per_plane = 256;  // no GC: every flush stays on flash
    return cfg;
  }

  /// (FTL write seq, LPN, content, page status) of every host page on flash.
  [[nodiscard]] std::vector<std::tuple<std::uint64_t, Lpn, std::uint64_t, int>> flushed() const {
    std::vector<std::tuple<std::uint64_t, Lpn, std::uint64_t, int>> pages;
    for (nand::Ppn ppn = 0; ppn < chip.geometry().total_pages(); ++ppn) {
      const nand::Page* page = chip.peek(ppn);
      if (page == nullptr || page->status == nand::PageStatus::kErased) continue;
      if (page->oob.valid()) {
        pages.emplace_back(page->oob.seq, page->oob.lpn, page->content,
                           static_cast<int>(page->status));
      }
    }
    std::sort(pages.begin(), pages.end());
    return pages;
  }

  Simulator sim;
  nand::ChipArray chip;
  ftl::Ftl ftl;
  Cache cache;
};

void run_pick_differential(std::uint32_t window, std::uint64_t seed) {
  auto cfg = Harness::default_cache();
  cfg.capacity_pages = 64;
  cfg.hold_time = Duration::ms(2);
  cfg.flush_ways = 8;
  cfg.high_watermark = 0.5;  // pressure while 32 or more pages are dirty
  cfg.flush_scramble_window = window;
  const auto pressure_at = static_cast<std::size_t>(cfg.high_watermark * cfg.capacity_pages);
  PickRig<WriteCache> now(cfg);
  PickRig<legacy::TombstoneWriteCache> ref(cfg);
  const auto both = [&](const auto& op) {
    op(now);
    op(ref);
  };
  sim::Rng rng(seed);
  std::size_t pressured_steps = 0;
  std::size_t calm_steps = 0;

  for (int step = 0; step < 3000; ++step) {
    const Lpn lpn = rng.below(48);  // few LPNs: overwrites stale queued tickets
    const std::uint64_t op = rng.below(1000);
    if (op < 4) {
      // Chip power blip under a powered FTL: the plane's queued programs
      // vanish, so the chip's program cursor falls behind the FTL's, and the
      // next programs into that block fail with an order violation after
      // their program time. The cache loses power with the chip (its dropped
      // completions would otherwise count as in flight forever); once power
      // is back, those failed flushes push retry tickets.
      both([](auto& r) {
        r.chip.on_power_lost();
        (void)r.cache.on_power_lost();
        r.chip.on_power_good();
        r.cache.on_power_good();
      });
      ASSERT_EQ(now.cache.last_dropped_lpns(), ref.cache.last_dropped_lpns()) << "step " << step;
    } else if (op < 15) {
      both([](auto& r) { r.cache.flush_all([] {}); });  // pressured until drained
    } else if (op < 150) {
      both([&](auto& r) { r.cache.invalidate(lpn); });  // TRIM stales the ticket
    } else {
      const std::uint64_t content = 0x1000 + static_cast<std::uint64_t>(step);
      ASSERT_EQ(now.cache.insert(lpn, content), ref.cache.insert(lpn, content))
          << "step " << step;
    }
    const Duration dt = Duration::us(10 + rng.below(400));
    both([&](auto& r) { r.sim.run_for(dt); });
    ASSERT_EQ(now.cache.dirty_pages(), ref.cache.dirty_pages()) << "step " << step;
    ASSERT_EQ(now.cache.stats().flushes_completed, ref.cache.stats().flushes_completed)
        << "step " << step;
    ++(now.cache.dirty_pages() >= pressure_at ? pressured_steps : calm_steps);
  }
  both([](auto& r) {
    r.cache.flush_all([] {});
    r.sim.run_for(Duration::sec(1));
  });

  EXPECT_EQ(now.cache.stats().flushes_completed, ref.cache.stats().flushes_completed);
  EXPECT_EQ(now.flushed(), ref.flushed());
  WriteCache::StateImage image;
  now.cache.snapshot(image);
  EXPECT_EQ(image.rng_state, ref.cache.rng_state());
  // The mix reached every case it is meant to cover.
  EXPECT_GT(now.ftl.stats().failed_writes, 0u) << "no failed program pushed a retry ticket";
  EXPECT_GT(pressured_steps, 0u);
  EXPECT_GT(calm_steps, 0u);
  EXPECT_EQ(now.ftl.stats().gc_erases, 0u);
}

TEST(WriteCache, FlushPickMatchesTombstoneReference) {
  // Windows of one (strict FIFO), two, the default and wider than the ring.
  for (const std::uint32_t window : {1u, 2u, 32u, 4096u}) {
    SCOPED_TRACE(window);
    run_pick_differential(window, 900 + window);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace pofi::ssd
