// Cross-layer attribution: the obs counters must agree with the campaign's
// own failure accounting, end to end.
//
// The acceptance experiment mirrors the paper's IVA setup: one 1-page write
// per power cycle, fault a fixed (tiny) delay after the ACK, working set far
// larger than the cache so collisions are negligible, no PLP. Under those
// conditions every fault loses exactly the one dirty cache line the acked
// write left behind — so per entry,
//   FWA failures == cache dirty lines lost == obs "ssd.cache.dirty_lost".
#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "platform/test_platform.hpp"
#include "spec/checkpoint.hpp"
#include "spec/obs_json.hpp"
#include "ssd/presets.hpp"

namespace pofi::platform {
namespace {

ssd::SsdConfig drive() {
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 4;
  auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.mount_delay = sim::Duration::ms(100);
  return cfg;
}

ExperimentSpec unit_write_spec(std::uint32_t faults) {
  ExperimentSpec spec;
  spec.name = "fwa-attribution";
  spec.workload.wss_pages = (4ULL << 30) / 4096;  // 4 GiB: collisions ~ 0
  spec.workload.min_pages = 1;
  spec.workload.max_pages = 1;  // unit writes: one dirty line per ACK
  spec.workload.write_fraction = 1.0;
  spec.total_requests = faults * 60ULL;
  spec.faults = faults;
  spec.pace_iops = 30.0;
  spec.seed = 2024;
  spec.mode = FaultMode::kFixedDelayAfterAck;
  spec.post_ack_delay = sim::Duration::ms(5);  // far inside the 500 ms hold
  return spec;
}

TEST(ObsAttribution, FwaFailuresEqualDirtyCacheLinesLost) {
  PlatformConfig pc;
  pc.metrics = true;
  TestPlatform tp(drive(), pc, 21);
  const auto r = tp.run(unit_write_spec(8));

  ASSERT_EQ(r.faults_injected, 8u);
  ASSERT_GT(r.fwa_failures, 0u);
  // The campaign's two independent tallies of the same physical event...
  EXPECT_EQ(r.fwa_failures, r.cache_dirty_lost);
  // ...and the obs counter instrumenting the write cache must agree with both.
  EXPECT_EQ(r.metrics.counter_value("ssd.cache.dirty_lost"), r.cache_dirty_lost);
  EXPECT_EQ(r.metrics.counter_value("ssd.power.losses"), r.faults_injected);
  EXPECT_FALSE(r.metrics.empty());
}

TEST(ObsAttribution, MetricsOffLeavesSnapshotEmpty) {
  TestPlatform tp(drive(), PlatformConfig{}, 21);
  const auto r = tp.run(unit_write_spec(2));
  EXPECT_TRUE(r.metrics.empty());
}

TEST(ObsAttribution, SnapshotRoundTripsThroughJson) {
  obs::MetricRegistry reg;
  const auto c = reg.counter("ssd.cache.dirty_lost");
  const auto g = reg.gauge("blk.queue.outstanding");
  const auto h = reg.histogram("lat", {10, 100});
  const auto s = reg.series("psu.rail.volts", 4);
  reg.add(c, 42);
  reg.set(g, 3);
  reg.set(g, 9);
  reg.set(g, 5);
  reg.record(h, 7);
  reg.record(h, 5000);
  reg.sample(s, sim::TimePoint::zero() + sim::Duration::us(10), 4.75);
  const auto mount = reg.trace().intern("ssd.mount");
  const auto por = reg.trace().intern("ftl.por.scan");
  reg.trace().begin(mount, sim::TimePoint::zero());
  reg.trace().begin(por, sim::TimePoint::zero() + sim::Duration::ms(1));
  reg.trace().end(por, sim::TimePoint::zero() + sim::Duration::ms(4));
  reg.trace().end(mount, sim::TimePoint::zero() + sim::Duration::ms(9));

  const obs::Snapshot before = reg.snapshot();
  const obs::Snapshot after = spec::snapshot_from_json(spec::to_json(before));

  ASSERT_EQ(after.counters.size(), 1u);
  EXPECT_EQ(after.counter_value("ssd.cache.dirty_lost"), 42u);
  ASSERT_EQ(after.gauges.size(), 1u);
  EXPECT_EQ(after.gauges[0].last, 5u);
  EXPECT_EQ(after.gauges[0].high_water, 9u);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].bounds, before.histograms[0].bounds);
  EXPECT_EQ(after.histograms[0].counts, before.histograms[0].counts);
  EXPECT_EQ(after.histograms[0].total, 2u);
  ASSERT_EQ(after.series.size(), 1u);
  ASSERT_EQ(after.series[0].samples.size(), 1u);
  EXPECT_EQ(after.series[0].samples[0].t_ns, sim::Duration::us(10).count_ns());
  EXPECT_EQ(after.series[0].samples[0].value, 4.75);
  ASSERT_EQ(after.spans.size(), 2u);
  EXPECT_EQ(after.spans[0].name, "ftl.por.scan");
  EXPECT_EQ(after.spans[0].parent, "ssd.mount");
  EXPECT_EQ(after.spans[1].parent, "");
  EXPECT_EQ(after.spans[1].end_ns, sim::Duration::ms(9).count_ns());
}

TEST(ObsAttribution, EmptySnapshotRoundTripsEmpty) {
  const obs::Snapshot after = spec::snapshot_from_json(spec::to_json(obs::Snapshot{}));
  EXPECT_TRUE(after.empty());
}

TEST(ObsAttribution, CheckpointRecordCarriesMetrics) {
  // A result with a non-empty snapshot must survive the checkpoint codec;
  // a result without one must serialise exactly as it did pre-obs (no
  // "metrics" key), so old checkpoints and new readers stay compatible.
  ExperimentResult r;
  r.name = "with-metrics";
  r.fwa_failures = 3;
  {
    obs::MetricRegistry reg;
    reg.add(reg.counter("ssd.cache.dirty_lost"), 3);
    r.metrics = reg.snapshot();
  }
  const auto restored = spec::result_from_json(spec::to_json(r));
  EXPECT_EQ(restored.fwa_failures, 3u);
  EXPECT_EQ(restored.metrics.counter_value("ssd.cache.dirty_lost"), 3u);

  ExperimentResult bare;
  bare.name = "no-metrics";
  const auto v = spec::to_json(bare);
  EXPECT_EQ(v.find("metrics"), nullptr);
  EXPECT_TRUE(spec::result_from_json(v).metrics.empty());
}

}  // namespace
}  // namespace pofi::platform
