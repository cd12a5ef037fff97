// Integration tests: full fault-injection campaigns through the complete
// stack (PSU -> Arduino -> SSD -> block layer -> scheduler/generator/
// analyzer), asserting the paper's qualitative findings hold end-to-end.
#include <gtest/gtest.h>

#include "platform/test_platform.hpp"
#include "ssd/presets.hpp"

namespace pofi::platform {
namespace {

ssd::SsdConfig small_drive(const ssd::PresetOptions& opts_in = {}) {
  ssd::PresetOptions opts = opts_in;
  opts.capacity_override_gb = 4;
  auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.mount_delay = sim::Duration::ms(100);
  return cfg;
}

ExperimentSpec small_spec(const char* name, std::uint32_t faults = 10) {
  ExperimentSpec spec;
  spec.name = name;
  spec.workload.wss_pages = (1ULL << 30) / 4096;  // 1 GiB
  spec.workload.min_pages = 1;
  spec.workload.max_pages = 64;
  spec.workload.write_fraction = 1.0;
  spec.total_requests = faults * 60ULL;
  spec.faults = faults;
  spec.pace_iops = 30.0;  // compressed cycles to keep tests fast
  spec.seed = 99;
  return spec;
}

TEST(Campaign, InjectsEveryScheduledFault) {
  TestPlatform tp(small_drive(), PlatformConfig{}, 1);
  const auto r = tp.run(small_spec("faults", 8));
  EXPECT_EQ(r.faults_injected, 8u);
  EXPECT_GT(r.requests_submitted, 0u);
  EXPECT_GT(r.write_acks, 0u);
  EXPECT_GT(r.sim_seconds, 1.0);
}

TEST(Campaign, WriteWorkloadLosesData) {
  TestPlatform tp(small_drive(), PlatformConfig{}, 2);
  const auto r = tp.run(small_spec("writes-lose", 10));
  EXPECT_GT(r.total_data_loss(), 0u);
  EXPECT_GT(r.fwa_failures, 0u);
  EXPECT_GT(r.cache_dirty_lost, 0u);
}

TEST(Campaign, FullyReadWorkloadLosesNothing) {
  auto spec = small_spec("read-only", 8);
  spec.workload.write_fraction = 0.0;
  TestPlatform tp(small_drive(), PlatformConfig{}, 3);
  const auto r = tp.run(spec);
  EXPECT_EQ(r.total_data_loss(), 0u);
  EXPECT_EQ(r.read_mismatches, 0u);
}

TEST(Campaign, PlpDriveLosesNothing) {
  ssd::PresetOptions opts;
  opts.plp = true;
  TestPlatform tp(small_drive(opts), PlatformConfig{}, 4);
  const auto r = tp.run(small_spec("plp", 8));
  EXPECT_EQ(r.total_data_loss(), 0u);
}

TEST(Campaign, CacheDisabledStillFailsButLess) {
  ssd::PresetOptions cached, uncached;
  uncached.cache_enabled = false;
  TestPlatform tp_cached(small_drive(cached), PlatformConfig{}, 5);
  TestPlatform tp_uncached(small_drive(uncached), PlatformConfig{}, 5);
  const auto with_cache = tp_cached.run(small_spec("cached", 12));
  const auto without_cache = tp_uncached.run(small_spec("uncached", 12));
  EXPECT_GT(with_cache.total_data_loss(), without_cache.total_data_loss());
}

TEST(Campaign, DeterministicForSeed) {
  TestPlatform a(small_drive(), PlatformConfig{}, 7);
  TestPlatform b(small_drive(), PlatformConfig{}, 7);
  const auto ra = a.run(small_spec("det", 5));
  const auto rb = b.run(small_spec("det", 5));
  EXPECT_EQ(ra.requests_submitted, rb.requests_submitted);
  EXPECT_EQ(ra.write_acks, rb.write_acks);
  EXPECT_EQ(ra.data_failures, rb.data_failures);
  EXPECT_EQ(ra.fwa_failures, rb.fwa_failures);
  EXPECT_EQ(ra.io_errors, rb.io_errors);
  EXPECT_DOUBLE_EQ(ra.sim_seconds, rb.sim_seconds);
}

TEST(Campaign, DifferentSeedsDiffer) {
  TestPlatform a(small_drive(), PlatformConfig{}, 8);
  TestPlatform b(small_drive(), PlatformConfig{}, 9);
  auto spec = small_spec("seeds", 5);
  const auto ra = a.run(spec);
  const auto rb = b.run(spec);
  // Statistically impossible to collide on all counters.
  EXPECT_TRUE(ra.sim_seconds != rb.sim_seconds ||
              ra.total_data_loss() != rb.total_data_loss());
}

TEST(Campaign, FailureRecordsCarryAckToFaultIntervals) {
  TestPlatform tp(small_drive(), PlatformConfig{}, 10);
  const auto r = tp.run(small_spec("records", 10));
  ASSERT_GT(r.failures.size(), 0u);
  for (const auto& f : r.failures) {
    if (f.type == FailureType::kIoError) continue;
    // Data-loss records reference writes ACKed before (or just around) the
    // fault; the interval must be bounded by the cache/journal horizon.
    EXPECT_LT(f.ack_to_fault_ms, 5000.0);
    EXPECT_GT(f.ack_to_fault_ms, -1000.0);
  }
}

TEST(Campaign, FixedDelayModeZeroDelayAlwaysLoses) {
  auto spec = small_spec("iva-0", 6);
  spec.mode = FaultMode::kFixedDelayAfterAck;
  spec.post_ack_delay = sim::Duration::ms(0);
  TestPlatform tp(small_drive(), PlatformConfig{}, 11);
  const auto r = tp.run(spec);
  EXPECT_EQ(r.faults_injected, 6u);
  // At dt=0 the single write is always still volatile on a cached drive.
  EXPECT_EQ(r.total_data_loss(), 6u);
}

TEST(Campaign, FixedDelayModeLongDelayIsSafe) {
  auto spec = small_spec("iva-2000", 6);
  spec.mode = FaultMode::kFixedDelayAfterAck;
  spec.post_ack_delay = sim::Duration::ms(2000);
  TestPlatform tp(small_drive(), PlatformConfig{}, 12);
  const auto r = tp.run(spec);
  EXPECT_EQ(r.total_data_loss(), 0u);
}

TEST(Campaign, InstantCutoffSuppressesIoErrors) {
  PlatformConfig pc;
  pc.discharge = psu::DischargeKind::kInstant;
  TestPlatform tp(small_drive(), pc, 13);
  const auto r = tp.run(small_spec("instant", 8));
  // No discharge window -> no requests issued against a dying rail.
  EXPECT_EQ(r.io_errors, 0u);
}

TEST(Campaign, BlkTraceAgreesWithAnalyzer) {
  PlatformConfig pc;
  pc.trace_enabled = true;
  TestPlatform tp(small_drive(), pc, 14);
  auto spec = small_spec("trace", 1);
  spec.total_requests = 40;
  const auto r = tp.run(spec);
  EXPECT_EQ(r.faults_injected, 1u);
  // Trace is cleared per cycle; stats were accumulated in the block queue.
  const auto& bq = tp.block_queue().stats();
  EXPECT_EQ(bq.completed_ok + bq.io_errors + bq.timeouts, bq.submitted);
}

TEST(Campaign, BlockLayerTimeoutsAreCountedOnce) {
  PlatformConfig pc;
  pc.metrics = true;
  // A watchdog far below a multi-page write's service time: requests time
  // out while the drive is still working on them.
  pc.block_queue.request_timeout = sim::Duration::us(200);
  TestPlatform tp(small_drive(), pc, 14);
  auto spec = small_spec("timeouts", 2);
  spec.total_requests = 80;
  const auto r = tp.run(spec);
  const auto& bq = tp.block_queue().stats();
  EXPECT_GT(bq.timeouts, 0u);
  EXPECT_EQ(r.metrics.counter_value("blk.timeouts"), bq.timeouts);
}

}  // namespace
}  // namespace pofi::platform
