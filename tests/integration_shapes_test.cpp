// Figure-shape regression guards: scaled-down versions of the headline
// results, asserted as invariants so a refactor cannot silently break the
// reproduction. The full-scale versions are the committed specs/*.json
// campaigns, run with `pofi_run --spec` (EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "platform/test_platform.hpp"
#include "ssd/presets.hpp"

namespace pofi::platform {
namespace {

ssd::SsdConfig drive(const ssd::PresetOptions& extra = {}) {
  ssd::PresetOptions opts = extra;
  opts.capacity_override_gb = 4;
  auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.mount_delay = sim::Duration::ms(100);
  return cfg;
}

ExperimentSpec spec_for(double write_fraction, std::uint32_t faults, std::uint64_t seed) {
  ExperimentSpec spec;
  spec.name = "shape";
  spec.workload.wss_pages = (1ULL << 30) / 4096;
  spec.workload.min_pages = 1;
  spec.workload.max_pages = 128;
  spec.workload.write_fraction = write_fraction;
  spec.total_requests = faults * 40ULL;
  spec.faults = faults;
  spec.pace_iops = 8.0;
  spec.seed = seed;
  return spec;
}

TEST(Shapes, Fig5LossFallsWithReadShare) {
  // Three mix points: write-heavy must lose clearly more than read-heavy,
  // and fully-read must lose nothing.
  const auto heavy = [&] {
    TestPlatform tp(drive(), PlatformConfig{}, 50);
    return tp.run(spec_for(1.0, 25, 50));
  }();
  const auto light = [&] {
    TestPlatform tp(drive(), PlatformConfig{}, 50);
    return tp.run(spec_for(0.2, 25, 50));
  }();
  const auto readonly = [&] {
    TestPlatform tp(drive(), PlatformConfig{}, 50);
    return tp.run(spec_for(0.0, 25, 50));
  }();
  EXPECT_GT(heavy.total_data_loss(), light.total_data_loss());
  EXPECT_GT(light.total_data_loss(), 0u);
  EXPECT_EQ(readonly.total_data_loss(), 0u);
  // IO errors exist at every mix (device unavailability is type-agnostic).
  EXPECT_GT(readonly.io_errors, 0u);
}

TEST(Shapes, SecIVACorruptionHorizonNearCacheHold) {
  // Fixed-delay sweep at three points: certain loss well inside the hold
  // time, zero loss well past hold + journal lag.
  auto run_delay = [&](int ms) {
    auto spec = spec_for(1.0, 10, 60);
    spec.mode = FaultMode::kFixedDelayAfterAck;
    spec.post_ack_delay = sim::Duration::ms(ms);
    TestPlatform tp(drive(), PlatformConfig{}, 60);
    return tp.run(spec).total_data_loss();
  };
  EXPECT_EQ(run_delay(100), 10u);   // always lost inside the hold window
  EXPECT_EQ(run_delay(1500), 0u);   // safely past flush + journal
}

TEST(Shapes, Fig7SmallRequestsLoseMostFwaDominatesAt4K) {
  // Equal byte rate (4 MiB/s) and equal time per fault at both ends of the
  // size axis, as in specs/fig7_request_size.json: 4 KiB requests keep far
  // more acknowledged writes in the volatile window than 1 MiB requests,
  // and at 4 KiB the whole write sits in DRAM when it is acknowledged, so
  // most of its loss is FWA.
  auto run_size = [&](std::uint32_t pages, double pace_iops, std::uint64_t seed) {
    constexpr std::uint32_t kFaults = 10;
    auto spec = spec_for(1.0, kFaults, seed);
    spec.workload.min_pages = pages;
    spec.workload.max_pages = pages;
    spec.pace_iops = pace_iops;
    spec.total_requests = static_cast<std::uint64_t>(kFaults * pace_iops * 1.2);
    TestPlatform tp(drive(), PlatformConfig{}, seed);
    return tp.run(spec);
  };
  for (const std::uint64_t seed : {100, 101, 102}) {
    SCOPED_TRACE(seed);
    const auto small = run_size(1, 1024.0, seed);   // 4 KiB
    const auto large = run_size(256, 4.0, seed);    // 1 MiB
    EXPECT_GT(small.total_data_loss(), large.total_data_loss());
    EXPECT_GE(2 * small.fwa_failures, small.total_data_loss());
  }
}

TEST(Shapes, Fig9RarLosesNothingWawLosesMost) {
  auto run_mode = [&](workload::SequenceMode mode) {
    auto spec = spec_for(1.0, 25, 70);
    spec.workload.sequence = mode;
    TestPlatform tp(drive(), PlatformConfig{}, 70);
    return tp.run(spec);
  };
  const auto rar = run_mode(workload::SequenceMode::kRAR);
  const auto waw = run_mode(workload::SequenceMode::kWAW);
  EXPECT_EQ(rar.total_data_loss(), 0u);
  EXPECT_GT(rar.io_errors, 0u);
  EXPECT_GT(waw.total_data_loss(), 0u);
  // WAW's signature: substantial non-FWA corruption (both versions hit).
  EXPECT_GT(waw.data_failures, 0u);
}

TEST(Shapes, CacheDisabledReducesButKeepsFailures) {
  ssd::PresetOptions no_cache;
  no_cache.cache_enabled = false;
  TestPlatform cached(drive(), PlatformConfig{}, 80);
  TestPlatform uncached(drive(no_cache), PlatformConfig{}, 80);
  const auto with_cache = cached.run(spec_for(1.0, 30, 80));
  const auto without = uncached.run(spec_for(1.0, 30, 80));
  EXPECT_GT(with_cache.total_data_loss(), 3 * without.total_data_loss());
  EXPECT_GT(without.total_data_loss(), 0u)
      << "the volatile L2P journal must keep some failures alive (SecIV-A)";
}

TEST(Shapes, InstantCutoffSuppressesIoErrors) {
  PlatformConfig instant;
  instant.discharge = psu::DischargeKind::kInstant;
  TestPlatform realistic(drive(), PlatformConfig{}, 90);
  TestPlatform transistor(drive(), instant, 90);
  const auto real_rail = realistic.run(spec_for(1.0, 25, 90));
  const auto cut_rail = transistor.run(spec_for(1.0, 25, 90));
  EXPECT_GT(real_rail.io_errors, 5 * std::max<std::uint64_t>(1, cut_rail.io_errors));
}

TEST(Shapes, PorScanRecoversUnjournaledEntries) {
  // Ablation A3 at reduced scale (specs/ablation_por_recovery.json): on
  // mount the scan rebuilds map entries for data that reached flash but not
  // the journal, so the same campaign loses less with the scan than without
  // it (held on all 20 seeds 120-139 at this scale).
  ssd::PresetOptions por;
  por.por_scan = true;
  for (const std::uint64_t seed : {130, 131, 132}) {
    SCOPED_TRACE(seed);
    TestPlatform commodity(drive(), PlatformConfig{}, seed);
    TestPlatform scanning(drive(por), PlatformConfig{}, seed);
    const auto without = commodity.run(spec_for(1.0, 25, seed));
    const auto with_scan = scanning.run(spec_for(1.0, 25, seed));
    EXPECT_GT(scanning.device().ftl().stats().por_entries_recovered, 0u);
    EXPECT_LT(with_scan.total_data_loss(), without.total_data_loss());
  }
}

}  // namespace
}  // namespace pofi::platform
