// Zero-steady-state-allocation proof for the PR-2 hot paths.
//
// Global operator new/delete are replaced with counting versions (this test
// must therefore stay its own binary). After a warmup that sizes the event
// queue's slot arena and the mapping table's dense array, the steady-state
// schedule/fire/cancel loop and the mapping lookup / re-dirty paths must
// perform exactly zero heap allocations — the central claim of the
// "allocation-free event kernel" rework, checked rather than asserted.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "blk/queue.hpp"
#include "ftl/ftl.hpp"
#include "ftl/mapping.hpp"
#include "nand/chip_array.hpp"
#include "platform/shadow_store.hpp"
#include "sim/event_queue.hpp"
#include "sim/inplace_function.hpp"
#include "ssd/ssd.hpp"
#include "ssd/write_cache.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void operator delete(void* p, std::align_val_t) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  operator delete(p, a);
}

namespace pofi {
namespace {

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

TEST(AllocFree, EventKernelSteadyStateAllocatesNothing) {
  sim::EventQueue q;
  std::uint64_t fired = 0;

  // Warmup: grow the arena and heap to their high-water mark. Captures are
  // sized like real simulator continuations (five words), well past
  // std::function's SSO but inside the kernel's inline budget.
  struct Capture {
    std::uint64_t* fired;
    std::uint64_t a, b, c, d;
  };
  // High-water the arena and heap above anything the steady loop reaches
  // (2048 pending), then drain back down so the free list is stocked and no
  // vector ever needs to grow again.
  std::int64_t t = 0;
  for (int i = 0; i < 3072; ++i) {
    const Capture cap{&fired, 1, 2, 3, 4};
    q.schedule_at(sim::TimePoint::from_ns(t + (i * 37) % 5000),
                  [cap] { *cap.fired += cap.a; });
  }
  while (q.size() > 2048) {
    auto ev = q.pop();
    t = ev.time.count_ns();
    ev.cb();
  }

  // Steady state: schedule + cancel + pop/fire, net queue size constant.
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 4096; ++i) {
    const Capture cap{&fired, 1, 2, 3, 4};
    const auto id = q.schedule_at(sim::TimePoint::from_ns(t + (i * 53) % 5000),
                                  [cap] { *cap.fired += cap.a; });
    if ((i & 7) == 0) {
      q.cancel(id);  // freshly scheduled: guaranteed-live cancel path
    } else {
      auto ev = q.pop();
      t = ev.time.count_ns();
      ev.cb();
    }
  }
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u)
      << "event schedule/fire/cancel must not touch the heap in steady state";
  EXPECT_GT(fired, 0u);
  while (!q.empty()) q.pop();
}

TEST(AllocFree, CancelledWatchdogChurnAllocatesNothing) {
  // Block-layer traffic: every request arms a 30 s watchdog, its completion
  // fires microseconds later and cancels the watchdog. A cancelled event
  // must leave the queue at once; if it lingered until its deadline, the
  // heap and slot arena would grow with every request.
  sim::EventQueue q;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  struct Capture {
    std::uint64_t* counter;
    std::uint64_t id;
  };
  constexpr std::int64_t kWatchdogNs = 30'000'000'000;
  std::int64_t t = 0;
  std::size_t max_size = 0;
  const auto step = [&](std::uint64_t i) {
    q.schedule_at(sim::TimePoint::from_ns(t + 1000),
                  [cap = Capture{&completed, i}] { *cap.counter += 1; });
    const auto watchdog = q.schedule_at(sim::TimePoint::from_ns(t + kWatchdogNs),
                                        [cap = Capture{&timeouts, i}] { *cap.counter += 1; });
    max_size = std::max(max_size, q.size());
    auto ev = q.pop();
    t = ev.time.count_ns();
    ev.cb();
    return q.cancel(watchdog);
  };

  for (std::uint64_t i = 0; i < 16; ++i) ASSERT_TRUE(step(i));  // warmup

  const std::uint64_t before = allocs_now();
  for (std::uint64_t i = 0; i < 100000; ++i) ASSERT_TRUE(step(i));
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u)
      << "cancelled watchdogs must not accumulate in the queue";
  EXPECT_LE(max_size, 2u);
  EXPECT_EQ(completed, 100016u);
  EXPECT_EQ(timeouts, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(AllocFree, MappingHotPathsAllocateNothing) {
  constexpr std::uint64_t kLpns = 1 << 16;
  ftl::MappingTable map(ftl::MappingPolicy::kPageLevel, 64, 16, kLpns);

  // Populate every LPN and make a volatile set that stays dirty (batch == 0),
  // the state a busy drive sits in between journal ticks.
  for (std::uint64_t l = 0; l < kLpns; ++l) map.update(l, l + 1);

  const std::uint64_t before = allocs_now();
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const auto hit = map.lookup(i * 2654435761u % kLpns);  // read path
    if (hit.has_value()) acc += *hit;
    map.update(i % kLpns, i);  // re-dirty path: entry already volatile
  }
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u)
      << "lookup and re-dirty update must not touch the heap";
  EXPECT_GT(acc, 0u);
}

TEST(AllocFree, ShadowStoreTrackedPagesAllocateNothing) {
  constexpr ftl::Lpn kPages = 4096;
  platform::ShadowStore shadow;
  const std::vector<std::uint64_t> tags = shadow.allocate_tags(kPages);
  const std::span<const std::uint64_t> all(tags);

  // The footprint: every page committed, every 8th also left indeterminate
  // by a failed write, so both tables hold pages. The first replay grows
  // them to their high-water size.
  std::uint64_t acc = 0;
  const auto replay = [&] {
    shadow.commit_write(0, all);
    for (ftl::Lpn lpn = 0; lpn < kPages; lpn += 8) shadow.mark_indeterminate(lpn, all.subspan(lpn, 1));
    for (ftl::Lpn lpn = 0; lpn < kPages; ++lpn) {
      acc += shadow.expected(lpn);
      acc += shadow.acceptable(lpn, tags[lpn]) ? 1 : 0;
      shadow.observe(lpn, tags[lpn]);
    }
  };
  replay();

  const std::uint64_t before = allocs_now();
  for (int round = 0; round < 4; ++round) replay();
  EXPECT_EQ(allocs_now() - before, 0u)
      << "commit, lookup, mark and observe on tracked pages must not touch the heap";

  shadow.reset();
  EXPECT_EQ(shadow.tracked_pages(), 0u);
  replay();
  EXPECT_EQ(allocs_now() - before, 0u)
      << "reset keeps both slot arrays: replaying the same footprint must not grow them";
  EXPECT_EQ(shadow.tracked_pages(), kPages);
  EXPECT_GT(acc, 0u);
}

TEST(AllocFree, IoCompletionCallbacksAllocateNothing) {
  // The last two std::function callback types on the IO path (ssd::Command's
  // completion and the block layer's request completion) are now inline-
  // storage callables. Constructing, moving and invoking them with
  // production-sized captures must never touch the heap.
  struct BlkCapture {
    void* platform;
    unsigned char packet[136];  // this + moved-in DataPacket, the fattest user
  };
  static_assert(sim::fits_inplace_v<BlkCapture, 160>,
                "blk::BlockQueue::Completion capacity must cover the "
                "TestPlatform continuation");
  struct CmdCapture {
    void* queue;
    std::uint64_t id, sub_lpn;
    std::uint32_t sub_index, sub_pages;
  };
  static_assert(sim::fits_inplace_v<CmdCapture, 64>,
                "ssd::Command::DoneFn capacity must cover the block layer's "
                "sub-request continuation");

  std::uint64_t hits = 0;
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 1024; ++i) {
    const CmdCapture cc{&hits, static_cast<std::uint64_t>(i), 7, 0, 1};
    ssd::Command::DoneFn done =
        [cc, &hits](ssd::DeviceStatus, std::vector<std::uint64_t>) { hits += cc.sub_pages; };
    ssd::Command::DoneFn moved = std::move(done);
    moved(ssd::DeviceStatus::kOk, {});

    BlkCapture bc{};
    bc.platform = &hits;
    blk::BlockQueue::Completion completion = [bc, &hits](blk::RequestOutcome) {
      hits += bc.platform != nullptr;
    };
    blk::BlockQueue::Completion moved_completion = std::move(completion);
    moved_completion(blk::RequestOutcome{});
  }
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u)
      << "IO completion callables must not touch the heap";
  EXPECT_EQ(hits, 2048u);
}

TEST(AllocFree, ReadyWaiterCallbacksAllocateNothing) {
  // ssd::Ssd::on_ready() waiters (the cache's flush-when-idle continuation
  // and the platform's drain barrier) are inline-storage callables too:
  // registering one while the device is busy must not touch the heap once
  // the waiter vector reached its high-water mark.
  struct ReadyCapture {
    void* ssd;
    void* cache;
    std::uint64_t deadline_ns, flushes;
  };
  static_assert(sim::fits_inplace_v<ReadyCapture, 64>,
                "ssd::Ssd::ReadyFn capacity must cover the cache's "
                "flush-when-idle continuation");

  std::uint64_t woken = 0;
  std::vector<ssd::Ssd::ReadyFn> waiters;
  waiters.reserve(64);  // the high-water mark a warmed Ssd retains

  const std::uint64_t before = allocs_now();
  for (int round = 0; round < 256; ++round) {
    for (int i = 0; i < 64; ++i) {
      const ReadyCapture cap{&woken, nullptr, static_cast<std::uint64_t>(i), 1};
      ssd::Ssd::ReadyFn waiter = [cap, &woken] { woken += cap.flushes; };
      waiters.push_back(std::move(waiter));  // registration: on_ready()'s body
    }
    for (auto& w : waiters) w();  // wake: notify_ready()'s body
    waiters.clear();              // capacity survives, like the Ssd member
  }
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u)
      << "ready-waiter registration and wake must not touch the heap";
  EXPECT_EQ(woken, 256u * 64u);
}

TEST(AllocFree, WriteCacheFlushCycleAllocatesNothing) {
  // A warm cache flushing through the FTL: insert, the flush's program and
  // its Ftl::WriteCallback completion (the cache's {this, line, seq}), the
  // clean ticket, and the eviction a later insert makes must not touch the
  // heap once the rings, line pool, index, FTL and NAND arena are warm.
  sim::Simulator simulator(3);
  nand::NandChip::Config chip_cfg;
  chip_cfg.geometry.page_size_bytes = 4096;
  chip_cfg.geometry.pages_per_block = 32;
  chip_cfg.geometry.blocks_per_plane = 64;
  chip_cfg.geometry.planes = 1;
  nand::ChipArray chip(simulator, nand::ChipArray::Config{1, chip_cfg});
  // The journal stays idle: each batch it cuts allocates in the mapping
  // table, which is not the cache's cost.
  ftl::Ftl::Config ftl_cfg;
  ftl_cfg.journal_interval = sim::Duration::sec(1'000'000);
  ftl_cfg.journal_batch_threshold = ~std::size_t{0};
  ftl::Ftl ftl(simulator, chip, ftl_cfg);
  ssd::WriteCache::Config cache_cfg;
  cache_cfg.capacity_pages = 32;
  cache_cfg.hold_time = sim::Duration::us(500);
  cache_cfg.flush_ways = 4;
  ssd::WriteCache cache(simulator, ftl, cache_cfg);
  chip.on_power_good();
  ftl.on_power_good();
  cache.on_power_good();

  // One round writes 64 LPNs through a 32-page cache: every insert past the
  // first 32 evicts a clean page that an earlier flush produced.
  std::uint64_t content = 1;
  const auto round = [&] {
    for (ftl::Lpn lpn = 0; lpn < 64; ++lpn) {
      while (!cache.insert(lpn, content)) simulator.run_for(sim::Duration::us(100));
      ++content;
      simulator.run_for(sim::Duration::us(300));
    }
    simulator.run_for(sim::Duration::ms(20));
  };
  // Warmup: enough rounds to wrap the 2048-page drive several times, so GC
  // and the NAND arena reach their steady state too.
  for (int i = 0; i < 200; ++i) round();

  const std::uint64_t flushed = cache.stats().flushes_completed;
  const std::uint64_t evicted = cache.stats().clean_evictions;
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 20; ++i) round();
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u) << "a warm flush cycle must not touch the heap";
  EXPECT_GT(cache.stats().flushes_completed - flushed, 1000u);
  EXPECT_GT(cache.stats().clean_evictions - evicted, 1000u);
  EXPECT_GT(ftl.stats().gc_erases, 0u);
}

TEST(AllocFree, WarmHostReadThroughFtlAllocatesNothing) {
  // A warm host read: Ftl::read hands the caller's callback, unwrapped, to
  // the NAND read, which waits in its plane ring and completes from there.
  // The capture is the size of a real continuation (more than a pointer
  // pair), so a type-erasing wrapper would have to allocate for it.
  sim::Simulator simulator(5);
  nand::NandChip::Config chip_cfg;
  chip_cfg.geometry.page_size_bytes = 4096;
  chip_cfg.geometry.pages_per_block = 32;
  chip_cfg.geometry.blocks_per_plane = 64;
  chip_cfg.geometry.planes = 2;
  nand::ChipArray chip(simulator, nand::ChipArray::Config{2, chip_cfg});
  // The journal stays idle: each batch it cuts allocates in the mapping
  // table, which is not the read path's cost.
  ftl::Ftl::Config ftl_cfg;
  ftl_cfg.journal_interval = sim::Duration::sec(1'000'000);
  ftl_cfg.journal_batch_threshold = ~std::size_t{0};
  ftl::Ftl ftl(simulator, chip, ftl_cfg);
  chip.on_power_good();
  ftl.on_power_good();

  constexpr ftl::Lpn kLpns = 256;
  std::uint64_t failed_writes = 0;
  for (ftl::Lpn lpn = 0; lpn < kLpns; ++lpn) {
    ftl.write(lpn, 1000 + lpn, [&failed_writes](bool ok) { failed_writes += ok ? 0 : 1; });
  }
  simulator.run_for(sim::Duration::sec(1));
  ASSERT_EQ(failed_writes, 0u);

  std::uint64_t reads = 0;
  std::uint64_t mismatches = 0;
  const auto round = [&] {
    for (ftl::Lpn lpn = 0; lpn < kLpns; ++lpn) {
      ftl.read(lpn, [&reads, &mismatches, expected = 1000 + lpn](const nand::OpResult& r) {
        ++reads;
        if (!r.ok() || r.content != expected) ++mismatches;
      });
    }
    simulator.run_for(sim::Duration::ms(50));
  };
  round();  // warmup: the plane rings grow to the queue depth
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 20; ++i) round();
  const std::uint64_t after = allocs_now();
  EXPECT_EQ(after - before, 0u) << "a warm host read must not touch the heap";
  EXPECT_EQ(reads, 21 * kLpns);
  EXPECT_EQ(mismatches, 0u);
}

TEST(AllocFree, CountersActuallyCount) {
  const std::uint64_t before = allocs_now();
  auto* p = new int(7);
  EXPECT_EQ(allocs_now() - before, 1u);
  delete p;
}

}  // namespace
}  // namespace pofi
