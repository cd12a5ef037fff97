// Zero-steady-state-allocation proof for the snapshot/restore path.
//
// Global operator new/delete are replaced with counting versions (this test
// must therefore stay its own binary, like session_alloc_test). The pooling
// claim of the crash-point sweep is that a warmed platform cycles
// snapshot/restore without touching the heap: every StateImage container
// high-waters during warm-up and later captures/restores copy in place —
// vectors keep capacity, hash tables reuse nodes, re-armed timer closures
// fit the std::function small-buffer. After warm-up, N further
// restore+snapshot cycles must perform exactly zero allocations. The same
// holds for a warmed invariant auditor, which runs after every crash point.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "platform/test_platform.hpp"
#include "ssd/presets.hpp"
#include "torture/auditor.hpp"
#include "torture/harness.hpp"
#include "torture/torture_spec.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pofi {
namespace {

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

/// Same shape as the explorer tests' small_config: a short schedule on the
/// 1 GiB preset-A drive, dense enough that the pilot captures several
/// checkpoints of meaningfully different sizes.
torture::TortureConfig small_config() {
  torture::TortureConfig cfg;
  cfg.name = "snapshot-alloc";
  cfg.seed = 7;
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  cfg.drive = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.drive.mount_delay = sim::Duration::ms(50);
  cfg.workload.wss_pages = 4096;
  cfg.workload.min_pages = 1;
  cfg.workload.max_pages = 16;
  cfg.workload.write_fraction = 0.8;
  cfg.requests = 24;
  cfg.pace_iops = 2000.0;
  cfg.snapshot_interval = 64;
  return cfg;
}

TEST(SnapshotAlloc, RestoreSnapshotCyclesAllocateNothingInSteadyState) {
  const torture::TortureConfig cfg = small_config();
  platform::TestPlatform tp(cfg.drive, cfg.platform, cfg.seed);

  torture::CrashHarness harness(cfg);
  torture::SchedulePilot pilot;
  (void)harness.run_pilot(tp, pilot, cfg.snapshot_interval);
  ASSERT_GE(pilot.snapshots.size(), 2u);

  // Warmup: restore every checkpoint once (oldest to newest, so hash-table
  // node pools and vector capacities high-water across all of them), then
  // re-capture into the scratch image each time to size it too.
  sim::TimerRearmer rearm;
  platform::TestPlatform::StateImage scratch;
  for (const torture::HarnessSnapshot& snap : pilot.snapshots) {
    tp.restore(snap.platform, rearm);
    rearm.execute();
    tp.snapshot(scratch);
  }

  // Steady state: cycling restore+snapshot on the warmed platform must not
  // touch the heap. The deepest checkpoint is the realistic hot case — a
  // stride-1 sweep restores the same nearest checkpoint many times in a row.
  const torture::HarnessSnapshot& hot = pilot.snapshots.back();
  constexpr int kCycles = 16;
  std::uint64_t cycle_allocs = 0;
  for (int i = 0; i < kCycles; ++i) {
    const std::uint64_t before = allocs_now();
    tp.restore(hot.platform, rearm);
    rearm.execute();
    tp.snapshot(scratch);
    cycle_allocs += allocs_now() - before;
  }
  EXPECT_EQ(cycle_allocs, 0u)
      << "snapshot/restore must not touch the heap once warmed: " << cycle_allocs
      << " allocations across " << kCycles << " cycles";
}

// The invariant auditor keeps its scratch across calls: once it has audited
// the crash points of a sweep, auditing them again allocates nothing (a
// clean report holds no violations, so no strings or vector either).
TEST(SnapshotAlloc, WarmAuditorAllocatesNothing) {
  const torture::TortureConfig cfg = small_config();
  platform::TestPlatform tp(cfg.drive, cfg.platform, cfg.seed);

  torture::CrashHarness harness(cfg);
  torture::SchedulePilot pilot;
  const std::uint64_t schedule = harness.run_pilot(tp, pilot, cfg.snapshot_interval);

  torture::InvariantAuditor auditor;
  std::uint64_t audit_allocs = 0;
  std::size_t audited = 0;
  for (const bool warm : {false, true}) {
    for (std::uint64_t k = 0; k < schedule; k += 97) {
      const torture::HarnessSnapshot* snap = pilot.nearest_at_or_before(k);
      ASSERT_NE(snap, nullptr);
      const torture::CrashOutcome out = harness.run_crash_point_from(tp, pilot, *snap, k);
      ASSERT_TRUE(out.report.ok()) << "k=" << k;
      const std::uint64_t before = allocs_now();
      const torture::AuditReport report = auditor.audit(tp.device(), &tp.shadow());
      if (warm) {
        audit_allocs += allocs_now() - before;
        ++audited;
      }
      EXPECT_EQ(report.mappings_checked, out.report.mappings_checked) << "k=" << k;
    }
  }
  EXPECT_GT(audited, 0u);
  EXPECT_EQ(audit_allocs, 0u) << audit_allocs << " allocations across " << audited
                              << " warm audits";
}

TEST(SnapshotAlloc, CountersActuallyCount) {
  const std::uint64_t before = allocs_now();
  auto* p = new int(7);
  EXPECT_EQ(allocs_now() - before, 1u);
  delete p;
}

}  // namespace
}  // namespace pofi
