#include "ftl/ftl.hpp"

#include "nand/chip_array.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace pofi::ftl {
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
  explicit Harness(Ftl::Config cfg = {}, std::uint32_t channels = 2,
                   nand::NandChip::Config chip_cfg = small_chip())
      : sim(7),
        chip(with_metrics(sim, metrics), nand::ChipArray::Config{channels, chip_cfg}),
        ftl(sim, chip, cfg) {
    chip.on_power_good();
    ftl.on_power_good();
  }

  static nand::NandChip::Config small_chip() {
    nand::NandChip::Config cfg;
    cfg.geometry.page_size_bytes = 4096;
    cfg.geometry.pages_per_block = 16;
    cfg.geometry.blocks_per_plane = 8;
    cfg.geometry.planes = 2;
    cfg.tech = nand::CellTech::kMlc;
    return cfg;
  }

  // The journal tick self-reschedules while powered, so the event queue
  // never drains; step until the completion we are waiting for arrives.
  template <typename Pred>
  void run_until(Pred done, std::uint64_t max_events = 1'000'000) {
    std::uint64_t fired = 0;
    while (!done() && !sim.idle() && fired < max_events) {
      sim.run_all(1);
      ++fired;
    }
  }

  bool write_sync(Lpn lpn, std::uint64_t content) {
    std::optional<bool> ok;
    ftl.write(lpn, content, [&](bool r) { ok = r; });
    run_until([&] { return ok.has_value(); });
    return ok.value_or(false);
  }

  std::optional<std::uint64_t> read_sync(Lpn lpn) {
    std::optional<nand::OpResult> out;
    ftl.read(lpn, [&](const nand::OpResult& r) { out = r; });
    run_until([&] { return out.has_value(); });
    if (!out.has_value() || !out->ok()) return std::nullopt;
    return out->content;
  }

  void power_cycle() {
    chip.on_power_lost();
    ftl.on_power_lost();
    sim.run_for(Duration::ms(10));
    chip.on_power_good();
    ftl.on_power_good();
  }

  /// Snapshot value of a registry counter.
  std::uint64_t counter(const std::string& name) const {
    return metrics.snapshot().counter_value(name);
  }

  obs::MetricRegistry metrics;
  Simulator sim;
  nand::ChipArray chip;
  Ftl ftl;
};

TEST(Ftl, WriteReadRoundTrip) {
  Harness h;
  EXPECT_TRUE(h.write_sync(5, 0x111));
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(0x111));
  EXPECT_EQ(h.ftl.stats().host_writes, 1u);
  EXPECT_EQ(h.ftl.stats().host_reads, 1u);
}

TEST(Ftl, UnmappedReadReturnsErased) {
  Harness h;
  EXPECT_EQ(h.read_sync(99), std::optional<std::uint64_t>(nand::kErasedContent));
}

TEST(Ftl, OverwriteReturnsNewData) {
  Harness h;
  EXPECT_TRUE(h.write_sync(5, 0x111));
  EXPECT_TRUE(h.write_sync(5, 0x222));
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(0x222));
}

TEST(Ftl, TrimUnmaps) {
  Harness h;
  EXPECT_TRUE(h.write_sync(5, 0x111));
  h.ftl.trim(5);
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(nand::kErasedContent));
}

TEST(Ftl, WritesFailWhenUnpowered) {
  Harness h;
  h.chip.on_power_lost();
  h.ftl.on_power_lost();
  std::optional<bool> ok;
  h.ftl.write(1, 2, [&](bool r) { ok = r; });
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
  EXPECT_EQ(h.ftl.stats().failed_writes, 1u);
  EXPECT_EQ(h.counter("ftl.write.failed"), 1u);
}

TEST(Ftl, UnjournaledWriteRevertsOnPowerLoss) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::sec(100);  // journal never fires
  Harness h(cfg);
  EXPECT_TRUE(h.write_sync(5, 0x111));
  h.power_cycle();
  // The mapping was volatile: the write is gone (FWA at device level).
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(nand::kErasedContent));
  EXPECT_GT(h.ftl.stats().map_updates_reverted, 0u);
}

TEST(Ftl, JournaledWriteSurvivesPowerLoss) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::ms(5);
  Harness h(cfg);
  EXPECT_TRUE(h.write_sync(5, 0x111));
  h.sim.run_for(Duration::ms(20));  // let the journal tick and commit
  EXPECT_EQ(h.ftl.mapping().volatile_count(), 0u);
  h.power_cycle();
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(0x111));
}

TEST(Ftl, FlushJournalNowPersistsImmediately) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::sec(100);
  Harness h(cfg);
  EXPECT_TRUE(h.write_sync(5, 0x111));
  h.ftl.flush_journal_now();
  h.sim.run_for(Duration::ms(50));
  EXPECT_EQ(h.ftl.mapping().volatile_count(), 0u);
  h.power_cycle();
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(0x111));
}

TEST(Ftl, OldDataRestoredAfterUnjournaledOverwrite) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::ms(5);
  Harness h(cfg);
  EXPECT_TRUE(h.write_sync(5, 0xAAA));
  h.sim.run_for(Duration::ms(20));  // 0xAAA durable
  EXPECT_TRUE(h.write_sync(5, 0xBBB));  // not yet journaled
  h.power_cycle();  // 0xBBB volatile -> reverted
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(0xAAA));
}

TEST(Ftl, GcReclaimsInvalidatedBlocks) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::ms(5);
  cfg.gc_low_watermark = 14;  // device has 16 blocks: GC almost immediately
  Harness h(cfg, /*channels=*/1);
  // Overwrite a small working set until free blocks dip and GC runs.
  for (int round = 0; round < 30; ++round) {
    for (Lpn lpn = 0; lpn < 8; ++lpn) {
      ASSERT_TRUE(h.write_sync(lpn, 0x1000 + static_cast<std::uint64_t>(round) * 10 + lpn));
    }
  }
  h.sim.run_for(Duration::sec(1));
  EXPECT_GT(h.ftl.stats().gc_erases, 0u);
  // No fault and no worn block: every GC pass ran to its victim's erase.
  EXPECT_EQ(h.counter("ftl.gc.invocations"), h.ftl.stats().gc_erases);
  EXPECT_EQ(h.counter("ftl.badblock.retired"), 0u);
  // Data integrity: latest values all readable.
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    EXPECT_EQ(h.read_sync(lpn), std::optional<std::uint64_t>(0x1000 + 29 * 10 + lpn));
  }
}

TEST(Ftl, GcRelocatesValidPages) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::ms(5);
  cfg.gc_low_watermark = 14;
  Harness h(cfg, /*channels=*/1);  // 16-block device: GC under real pressure
  // One cold page + churn on others: the cold page must survive relocation.
  ASSERT_TRUE(h.write_sync(100, 0xC01D));
  for (int round = 0; round < 30; ++round) {
    for (Lpn lpn = 0; lpn < 6; ++lpn) {
      ASSERT_TRUE(h.write_sync(lpn, static_cast<std::uint64_t>(round) * 100 + lpn));
    }
  }
  h.sim.run_for(Duration::sec(1));
  EXPECT_GT(h.ftl.stats().gc_relocations, 0u);
  EXPECT_EQ(h.read_sync(100), std::optional<std::uint64_t>(0xC01D));
}

TEST(Ftl, GcRetiresWornOutVictims) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::ms(5);
  cfg.gc_low_watermark = 14;
  auto chip_cfg = Harness::small_chip();
  chip_cfg.endurance_pe_cycles = 2;  // a block retires at its third erase
  Harness h(cfg, /*channels=*/1, chip_cfg);
  for (int round = 0; round < 60; ++round) {
    for (Lpn lpn = 0; lpn < 8; ++lpn) {
      if (!h.write_sync(lpn, static_cast<std::uint64_t>(round) * 10 + lpn)) break;
    }
  }
  h.sim.run_for(Duration::sec(1));
  // Only GC erases blocks, so every worn-out block is a retired GC victim,
  // counted once by the die and once by the FTL.
  std::uint64_t bad = 0;
  for (BlockId b = 0; b < h.chip.geometry().total_blocks(); ++b) bad += h.chip.is_bad(b);
  EXPECT_GT(bad, 0u);
  EXPECT_EQ(h.counter("nand.block.retired"), bad);
  EXPECT_EQ(h.counter("ftl.badblock.retired"), bad);
}

TEST(Ftl, EmergencyModePersistsEverything) {
  Ftl::Config cfg;
  cfg.journal_interval = Duration::sec(100);
  Harness h(cfg);
  for (Lpn lpn = 0; lpn < 12; ++lpn) ASSERT_TRUE(h.write_sync(lpn, 0x500 + lpn));
  EXPECT_GT(h.ftl.mapping().volatile_count(), 0u);
  h.ftl.set_emergency(true);
  h.sim.run_for(Duration::ms(100));
  EXPECT_EQ(h.ftl.mapping().volatile_count(), 0u);
  h.power_cycle();
  for (Lpn lpn = 0; lpn < 12; ++lpn) {
    EXPECT_EQ(h.read_sync(lpn), std::optional<std::uint64_t>(0x500 + lpn));
  }
}

TEST(Ftl, MapOnCompletionModeSurvivesInterruptedProgramCleanly) {
  Ftl::Config cfg;
  cfg.map_update_on_issue = false;
  cfg.journal_interval = Duration::ms(5);
  Harness h(cfg);
  EXPECT_TRUE(h.write_sync(5, 0x111));
  h.sim.run_for(Duration::ms(20));
  // Start a write and kill power mid-program: with map-on-completion the
  // old mapping is untouched, so the old data must still be readable.
  h.ftl.write(5, 0x222, [](bool) {});
  h.sim.run_for(Duration::us(100));
  h.power_cycle();
  EXPECT_EQ(h.read_sync(5), std::optional<std::uint64_t>(0x111));
}

}  // namespace
}  // namespace pofi::ftl
