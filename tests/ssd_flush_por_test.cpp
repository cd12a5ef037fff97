// FLUSH-barrier and power-on-recovery (POR) semantics through the full
// device stack.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "blk/queue.hpp"
#include "obs/metrics.hpp"
#include "psu/power_supply.hpp"
#include "ssd/presets.hpp"

namespace pofi::ssd {
namespace {

using sim::Duration;
using sim::Simulator;

/// Attaches `metrics` before any component is built on `sim`, so every
/// layer registers its counters with it.
Simulator& with_metrics(Simulator& sim, obs::MetricRegistry& metrics) {
  sim.set_metrics(&metrics);
  return sim;
}

struct Harness {
  explicit Harness(PresetOptions opts = {})
      : sim(29),
        psu(with_metrics(sim, metrics), std::make_unique<psu::PowerLawDischarge>()),
        ssd(sim, drive(opts)),
        queue(sim, ssd) {
    psu.attach(ssd);
    psu.power_on();
    run_until([&] { return ssd.ready(); });
  }

  static SsdConfig drive(PresetOptions opts) {
    opts.capacity_override_gb = 1;
    auto cfg = make_preset(VendorModel::kA, opts);
    cfg.mount_delay = Duration::ms(20);
    return cfg;
  }

  template <typename Pred>
  void run_until(Pred done, std::uint64_t max_events = 2'000'000) {
    std::uint64_t fired = 0;
    while (!done() && !sim.idle() && fired < max_events) {
      sim.run_all(1);
      ++fired;
    }
  }

  void write(ftl::Lpn lpn, std::vector<std::uint64_t> tags) {
    std::optional<blk::IoStatus> status;
    queue.submit_write(lpn, std::move(tags),
                       [&](blk::RequestOutcome o) { status = o.status; });
    run_until([&] { return status.has_value(); });
    ASSERT_EQ(*status, blk::IoStatus::kOk);
  }

  void flush() {
    std::optional<blk::IoStatus> status;
    queue.submit_flush([&](blk::RequestOutcome o) { status = o.status; });
    run_until([&] { return status.has_value(); });
    ASSERT_EQ(*status, blk::IoStatus::kOk);
  }

  std::vector<std::uint64_t> read(ftl::Lpn lpn, std::uint32_t pages) {
    std::optional<std::vector<std::uint64_t>> data;
    queue.submit_read(lpn, pages, [&](blk::RequestOutcome o) { data = o.read_contents; });
    run_until([&] { return data.has_value(); });
    return data.value_or(std::vector<std::uint64_t>{});
  }

  void power_cycle() {
    psu.power_off();
    run_until([&] { return psu.state() == psu::PowerSupply::State::kOff; });
    sim.run_for(Duration::ms(100));
    psu.power_on();
    run_until([&] { return ssd.ready(); });
  }

  /// Snapshot value of a registry counter.
  std::uint64_t counter(const std::string& name) const {
    return metrics.snapshot().counter_value(name);
  }

  obs::MetricRegistry metrics;
  Simulator sim;
  psu::PowerSupply psu;
  Ssd ssd;
  blk::BlockQueue queue;
};

// ------------------------------------------------------------------- FLUSH

TEST(Flush, MakesAckedWritesDurable) {
  Harness h;
  h.write(10, {0xF1, 0xF2, 0xF3});
  h.flush();
  h.power_cycle();  // immediately after the flush: nothing volatile remains
  const auto data = h.read(10, 3);
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data[0], 0xF1u);
  EXPECT_EQ(data[2], 0xF3u);
}

TEST(Flush, WithoutFlushTheSameWriteIsLost) {
  Harness h;
  h.write(10, {0xF1, 0xF2, 0xF3});
  h.power_cycle();  // no flush: the write dies in DRAM
  const auto data = h.read(10, 3);
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data[0], nand::kErasedContent);
}

TEST(Flush, PersistsJournalOnWriteThroughDrive) {
  PresetOptions opts;
  opts.cache_enabled = false;
  Harness h(opts);
  h.write(10, {0xC5});
  h.flush();  // data was durable; the flush pins the L2P entry
  h.power_cycle();
  const auto data = h.read(10, 1);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0xC5u);
}

TEST(Flush, EmptyCacheCompletesQuickly) {
  Harness h;
  h.flush();  // nothing dirty: still must complete
  EXPECT_EQ(h.ssd.cache().dirty_pages(), 0u);
}

TEST(Flush, SequentialStreamExtentIsPersisted) {
  Harness h;
  // A sequential stream long enough to be withheld as an open extent.
  for (ftl::Lpn lpn = 0; lpn < 320; lpn += 32) {
    h.write(lpn, std::vector<std::uint64_t>(32, 0x5000 + lpn));
  }
  h.flush();
  EXPECT_EQ(h.ssd.ftl().mapping().volatile_count(), 0u);
  h.power_cycle();
  const auto data = h.read(0, 1);
  EXPECT_EQ(data[0], 0x5000u);
}

// --------------------------------------------------------------------- POR

TEST(Por, RecoversFlushedButUnjournaledData) {
  PresetOptions with_por;
  with_por.por_scan = true;
  Harness h(with_por);
  h.write(10, {0xAB});
  // Wait for the cache flush (hold 600 ms) but freeze before relying on the
  // journal: kill power right after the flash program lands.
  h.run_until([&] { return h.ssd.cache().dirty_pages() == 0; });
  h.power_cycle();
  EXPECT_GT(h.ssd.ftl().stats().por_pages_scanned, 0u);
  EXPECT_EQ(h.counter("ftl.por.pages_scanned"), h.ssd.ftl().stats().por_pages_scanned);
  EXPECT_GT(h.ssd.ftl().stats().por_entries_recovered, 0u);
  EXPECT_EQ(h.counter("ftl.por.entries_recovered"),
            h.ssd.ftl().stats().por_entries_recovered);
  const auto data = h.read(10, 1);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0xABu);
}

TEST(Por, WithoutScanTheSameCrashLosesTheMapping) {
  Harness h;  // por_scan off
  ssd::SsdConfig cfg = h.ssd.config();
  ASSERT_FALSE(cfg.ftl.por_scan);
  h.write(10, {0xAB});
  h.run_until([&] { return h.ssd.cache().dirty_pages() == 0; });
  // The mapping may or may not have been journaled yet depending on tick
  // phase; force the vulnerable window by checking volatile state first.
  if (h.ssd.ftl().mapping().volatile_count() > 0) {
    h.power_cycle();
    const auto data = h.read(10, 1);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0], nand::kErasedContent);
  }
}

TEST(Por, DoesNotResurrectCacheLostData) {
  PresetOptions with_por;
  with_por.por_scan = true;
  Harness h(with_por);
  h.write(10, {0xCD});
  // Crash immediately: the data never left DRAM; POR has nothing to scan.
  h.power_cycle();
  const auto data = h.read(10, 1);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], nand::kErasedContent);
}

TEST(Por, NewestCopyWinsAfterOverwrite) {
  PresetOptions with_por;
  with_por.por_scan = true;
  Harness h(with_por);
  h.write(10, {0x111});
  h.run_until([&] { return h.ssd.cache().dirty_pages() == 0; });
  h.write(10, {0x222});
  h.run_until([&] { return h.ssd.cache().dirty_pages() == 0; });
  h.power_cycle();
  const auto data = h.read(10, 1);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0x222u) << "POR must pick the highest write-sequence copy";
}

TEST(Por, RecoveredStateSurvivesSecondCrash) {
  PresetOptions with_por;
  with_por.por_scan = true;
  Harness h(with_por);
  h.write(10, {0xEE});
  h.run_until([&] { return h.ssd.cache().dirty_pages() == 0; });
  h.power_cycle();
  // POR ends with a checkpoint: a second crash right away must not lose it.
  h.power_cycle();
  const auto data = h.read(10, 1);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0xEEu);
}

}  // namespace
}  // namespace pofi::ssd
