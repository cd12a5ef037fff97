// Unit tests for the obs subsystem core: MetricRegistry counters, gauges,
// histograms, series and the TraceLog span ring.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/snapshot.hpp"
#include "sim/time.hpp"

namespace pofi::obs {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::zero() + sim::Duration::ms(ms);
}

TEST(ObsMetrics, CounterAccumulatesAndSnapshotsByName) {
  MetricRegistry reg;
  const MetricId a = reg.counter("b.second");
  const MetricId b = reg.counter("a.first");
  reg.add(a);
  reg.add(a, 41);
  reg.add(b, 7);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by name, not registration order.
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_EQ(snap.counters[1].name, "b.second");
  EXPECT_EQ(snap.counters[1].value, 42u);
  EXPECT_EQ(snap.counter_value("b.second"), 42u);
  EXPECT_EQ(snap.counter_value("missing"), 0u);
}

TEST(ObsMetrics, RegistrationDedupesByName) {
  MetricRegistry reg;
  // Workers that register the same metric name must share a slot instead of
  // burning arena entries.
  const MetricId a = reg.counter("runner.jobs.completed");
  const MetricId b = reg.counter("runner.jobs.completed");
  EXPECT_EQ(a, b);
  reg.add(a);
  reg.add(b);
  EXPECT_EQ(reg.value_of("runner.jobs.completed"), 2u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST(ObsMetrics, SourcesWithOneNameAreSummed) {
  MetricRegistry reg;
  // Each die of a ChipArray registers its own Stats field under one name.
  std::uint64_t die0 = 3;
  std::uint64_t die1 = 4;
  reg.counter_source("nand.ispp.started", &die0);
  reg.counter_source("nand.ispp.started", &die1);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counter_value("nand.ispp.started"), 7u);
  // Read when the snapshot is taken, not when registered.
  die1 = 10;
  EXPECT_EQ(reg.snapshot().counter_value("nand.ispp.started"), 13u);
}

TEST(ObsMetrics, SourceAndPushedSlotMergeIntoOneEntry) {
  MetricRegistry reg;
  std::uint64_t field = 5;
  reg.counter_source("ssd.power.losses", &field);
  reg.add(reg.counter("ssd.power.losses"), 2);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "ssd.power.losses");
  EXPECT_EQ(snap.counters[0].value, 7u);
}

TEST(ObsMetrics, ValueOfReadsSources) {
  MetricRegistry reg;
  std::uint64_t field = 9;
  reg.counter_source("blk.timeouts", &field);
  EXPECT_EQ(reg.value_of("blk.timeouts"), 9u);
  reg.add(reg.counter("blk.timeouts"));
  EXPECT_EQ(reg.value_of("blk.timeouts"), 10u);
  EXPECT_EQ(reg.value_of("missing"), 0u);
}

TEST(ObsMetrics, ValueResetAndRestoreLeaveSourcesAlone) {
  MetricRegistry reg;
  std::uint64_t field = 6;
  reg.counter_source("ftl.journal.flushes", &field);
  const MetricId pushed = reg.counter("runner.jobs.completed");
  reg.add(pushed, 2);

  MetricRegistry::ValueImage image;
  reg.snapshot_values(image);
  reg.add(pushed, 5);
  field = 8;
  reg.restore_values(image);
  // The pushed slot rewinds; the field is its owner's state and stays put.
  EXPECT_EQ(reg.value_of("runner.jobs.completed"), 2u);
  EXPECT_EQ(reg.value_of("ftl.journal.flushes"), 8u);

  reg.reset_values();
  EXPECT_EQ(reg.value_of("runner.jobs.completed"), 0u);
  EXPECT_EQ(reg.value_of("ftl.journal.flushes"), 8u);
}

TEST(ObsMetrics, PulledCountersSortAmongPushedOnes) {
  MetricRegistry reg;
  std::uint64_t b = 2;
  std::uint64_t d = 4;
  reg.counter_source("d.pulled", &d);
  reg.add(reg.counter("c.pushed"), 3);
  reg.counter_source("b.pulled", &b);
  reg.add(reg.counter("a.pushed"), 1);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 4u);
  const char* names[] = {"a.pushed", "b.pulled", "c.pushed", "d.pulled"};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap.counters[i].name, names[i]);
    EXPECT_EQ(snap.counters[i].value, i + 1);
  }
}

TEST(ObsMetrics, KindClashYieldsNoMetric) {
  MetricRegistry reg;
  (void)reg.counter("x");
  EXPECT_EQ(reg.gauge("x"), kNoMetric);
  // The no-op id is safe to use on every hot-path call.
  reg.add(kNoMetric);
  reg.set(kNoMetric, 3);
  reg.record(kNoMetric, 3);
  EXPECT_EQ(reg.value_of("x"), 0u);
}

TEST(ObsMetrics, GaugeTracksLastAndHighWater) {
  MetricRegistry reg;
  const MetricId g = reg.gauge("ssd.ncq.inflight");
  reg.set(g, 3);
  reg.set(g, 17);
  reg.set(g, 5);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].last, 5u);
  EXPECT_EQ(snap.gauges[0].high_water, 17u);
}

TEST(ObsMetrics, HistogramBucketsInclusiveUpperBounds) {
  MetricRegistry reg;
  const MetricId h = reg.histogram("lat", {10, 100, 1000});
  reg.record(h, 0);
  reg.record(h, 10);    // inclusive: lands in bucket 0
  reg.record(h, 11);
  reg.record(h, 1000);  // last finite bucket
  reg.record(h, 5000);  // overflow
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hist = snap.histograms[0];
  ASSERT_EQ(hist.bounds.size(), 3u);
  ASSERT_EQ(hist.counts.size(), 4u);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(hist.counts[2], 1u);
  EXPECT_EQ(hist.counts[3], 1u);  // overflow bucket
  EXPECT_EQ(hist.total, 5u);
}

TEST(ObsMetrics, SeriesDropsOnCapacityAndCountsDropped) {
  MetricRegistry reg;
  const MetricId s = reg.series("psu.rail.volts", 4);
  for (int i = 0; i < 6; ++i) {
    reg.sample(s, at_ms(i), static_cast<double>(i));
  }
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].samples.size(), 4u);  // first 4 kept
  EXPECT_EQ(snap.series[0].dropped, 2u);
  EXPECT_EQ(snap.series[0].samples[0].value, 0.0);
  EXPECT_EQ(snap.series[0].samples[3].value, 3.0);
}

TEST(ObsMetrics, ArenaFullReturnsNoMetric) {
  MetricRegistry reg;
  MetricId last = kNoMetric;
  for (std::uint32_t i = 0; i < MetricRegistry::kMaxMetrics; ++i) {
    last = reg.counter("c" + std::to_string(i));
    ASSERT_NE(last, kNoMetric);
  }
  EXPECT_EQ(reg.counter("one-too-many"), kNoMetric);
  // Existing names still resolve to their slot.
  EXPECT_NE(reg.counter("c0"), kNoMetric);
}

TEST(ObsTrace, SpansNestAndRecordParents) {
  MetricRegistry reg;
  TraceLog& t = reg.trace();
  const std::uint32_t mount = t.intern("ssd.mount");
  const std::uint32_t por = t.intern("ftl.por.scan");
  t.begin(mount, at_ms(0));
  t.begin(por, at_ms(1));
  t.end(por, at_ms(5));
  t.end(mount, at_ms(9));

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  // Completion order: inner span finished first.
  EXPECT_EQ(snap.spans[0].name, "ftl.por.scan");
  EXPECT_EQ(snap.spans[0].parent, "ssd.mount");
  EXPECT_EQ(snap.spans[0].begin_ns, sim::Duration::ms(1).count_ns());
  EXPECT_EQ(snap.spans[0].end_ns, sim::Duration::ms(5).count_ns());
  EXPECT_EQ(snap.spans[1].name, "ssd.mount");
  EXPECT_EQ(snap.spans[1].parent, "");
}

TEST(ObsTrace, UnmatchedEndIsTolerated) {
  MetricRegistry reg;
  TraceLog& t = reg.trace();
  const std::uint32_t gc = t.intern("ftl.gc");
  // Multi-exit paths (power loss mid-GC) close defensively; an end with no
  // open span must be a no-op, not a crash or a phantom span.
  t.end(gc, at_ms(1));
  EXPECT_TRUE(reg.snapshot().spans.empty());
  t.begin(gc, at_ms(2));
  t.end(gc, at_ms(3));
  t.end(gc, at_ms(4));  // second close of the same logical span
  EXPECT_EQ(reg.snapshot().spans.size(), 1u);
}

TEST(ObsTrace, RingEvictsOldestAndCountsDropped) {
  MetricRegistry reg(/*trace_capacity=*/4);
  TraceLog& t = reg.trace();
  const std::uint32_t s = t.intern("span");
  for (int i = 0; i < 6; ++i) {
    t.begin(s, at_ms(i * 2));
    t.end(s, at_ms(i * 2 + 1));
  }
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.spans.size(), 4u);
  EXPECT_EQ(snap.spans_dropped, 2u);
  // Chronological within the retained window: the two oldest were evicted.
  EXPECT_EQ(snap.spans[0].begin_ns, sim::Duration::ms(4).count_ns());
  EXPECT_EQ(snap.spans[3].begin_ns, sim::Duration::ms(10).count_ns());
}

TEST(ObsMetrics, EmptyRegistrySnapshotsEmpty) {
  MetricRegistry reg;
  EXPECT_TRUE(reg.snapshot().empty());
}

}  // namespace
}  // namespace pofi::obs
