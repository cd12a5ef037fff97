// Deeper NAND reliability-model tests: disturb accumulation, wear severity,
// pre-aging, partially-erased blocks, LDPC retry latency, timing classes.
#include <gtest/gtest.h>

#include <optional>

#include "nand/chip.hpp"

namespace pofi::nand {
namespace {

using sim::Duration;
using sim::Simulator;

NandChip::Config base_config(CellTech tech = CellTech::kMlc) {
  NandChip::Config cfg;
  cfg.geometry.page_size_bytes = 4096;
  cfg.geometry.pages_per_block = 32;
  cfg.geometry.blocks_per_plane = 16;
  cfg.geometry.planes = 2;
  cfg.tech = tech;
  return cfg;
}

void program_sync(Simulator& sim, NandChip& chip, Ppn ppn, std::uint64_t content) {
  bool done = false;
  chip.program(ppn, content, [&](OpResult r) {
    done = true;
    ASSERT_TRUE(r.ok());
  });
  sim.run_all();
  ASSERT_TRUE(done);
}

TEST(NandReliability, ReadDisturbAccumulatesRawErrors) {
  Simulator sim(3);
  auto cfg = base_config();
  NandChip chip(sim, cfg);
  chip.on_power_good();
  program_sync(sim, chip, 0, 0x42);
  // Hammer the block with reads; the per-read disturb BER accumulates in
  // the block counter, so average raw errors must grow.
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 200; ++i) early += static_cast<double>(chip.read_now(0).raw_errors);
  for (int i = 0; i < 200'000; ++i) (void)chip.read_now(0);
  for (int i = 0; i < 200; ++i) late += static_cast<double>(chip.read_now(0).raw_errors);
  EXPECT_GT(late, early) << "read disturb should raise raw error rates";
}

TEST(NandReliability, PreAgedBlocksReadWithMoreErrors) {
  Simulator sim(4);
  auto fresh_cfg = base_config();
  auto aged_cfg = base_config();
  aged_cfg.initial_pe_cycles = 2900;
  NandChip fresh(sim, fresh_cfg, "fresh");
  NandChip aged(sim, aged_cfg, "aged");
  fresh.on_power_good();
  aged.on_power_good();
  program_sync(sim, fresh, 0, 1);
  program_sync(sim, aged, 0, 1);
  double fresh_errors = 0.0, aged_errors = 0.0;
  for (int i = 0; i < 500; ++i) {
    fresh_errors += static_cast<double>(fresh.read_now(0).raw_errors);
    aged_errors += static_cast<double>(aged.read_now(0).raw_errors);
  }
  EXPECT_GT(aged_errors, fresh_errors * 2)
      << "2900 P/E cycles should multiply raw BER (ber_per_pe_cycle)";
}

TEST(NandReliability, WearAmplifiesPairedPageDamage) {
  // Ablation A4: interrupt an upper-page program at the same instants on a
  // fresh and a worn die (instants spread evenly over the 900 us program).
  // The worn lower-page partner takes more upset errors, and after power-good
  // wear makes that page -- data acknowledged before the fault -- unreadable
  // far more often than it raises the interrupted page's own loss.
  constexpr int kTrials = 200;
  struct Damage {
    double upsets = 0.0;
    int lower_lost = 0;
    int upper_lost = 0;
  };
  Damage fresh, worn;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (const bool is_worn : {false, true}) {
      Simulator sim(100 + trial);
      auto cfg = base_config();
      cfg.initial_pe_cycles = is_worn ? 2950 : 0;
      NandChip chip(sim, cfg, is_worn ? "worn" : "fresh");
      chip.on_power_good();
      program_sync(sim, chip, 0, 1);
      chip.program(1, 2, [](OpResult) {});
      sim.run_for(Duration::us(1 + trial * 898 / (kTrials - 1)));
      chip.on_power_lost();
      const Page* lower = chip.peek(0);
      ASSERT_NE(lower, nullptr);
      Damage& d = is_worn ? worn : fresh;
      d.upsets += lower->upset_errors;
      chip.on_power_good();
      d.lower_lost += chip.read_now(0).status == OpResult::Status::kUncorrectable ? 1 : 0;
      d.upper_lost += chip.read_now(1).status == OpResult::Status::kUncorrectable ? 1 : 0;
    }
  }
  EXPECT_GT(worn.upsets, fresh.upsets * 1.5);
  // Measured: lower page 154 -> 200 of 200, upper page 166 -> 180.
  EXPECT_GT(worn.lower_lost - fresh.lower_lost, 2 * (worn.upper_lost - fresh.upper_lost));
}

TEST(NandReliability, PartiallyErasedBlockIsUnstable) {
  Simulator sim(5);
  NandChip chip(sim, base_config());
  chip.on_power_good();
  program_sync(sim, chip, 0, 0x11);
  chip.erase(0, [](OpResult) {});
  sim.run_for(Duration::ms(1));
  chip.on_power_lost();
  chip.on_power_good();
  // Even freshly re-programmed pages in a partially-erased block read badly
  // (threshold voltages are unstable until a clean erase).
  const OpResult r = chip.read_now(5);  // a never-programmed page
  EXPECT_GT(r.raw_errors, 1000u);
}

TEST(NandReliability, CleanEraseAfterInterruptedEraseStabilises) {
  Simulator sim(6);
  NandChip chip(sim, base_config());
  chip.on_power_good();
  program_sync(sim, chip, 0, 0x11);
  chip.erase(0, [](OpResult) {});
  sim.run_for(Duration::ms(1));
  chip.on_power_lost();
  chip.on_power_good();
  bool erased = false;
  chip.erase(0, [&](OpResult r) { erased = r.ok(); });
  sim.run_all();
  ASSERT_TRUE(erased);
  program_sync(sim, chip, 0, 0x22);
  const OpResult r = chip.read_now(0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.content, 0x22u);
}

TEST(NandReliability, LdpcRetriesAddObservableReadLatency) {
  // A TLC die with LDPC: a heavily-damaged (but recoverable) page costs
  // extra read time through soft retries.
  Simulator sim(7);
  auto cfg = base_config(CellTech::kTlc);
  cfg.ecc = EccKind::kLdpc;
  NandChip chip(sim, cfg);
  chip.on_power_good();
  program_sync(sim, chip, 0, 0x33);

  // Clean page: read completes in exactly t_read.
  std::optional<double> clean_ms;
  const double start_clean = sim.now().to_ms();
  chip.read(0, [&](OpResult) { clean_ms = sim.now().to_ms(); });
  sim.run_all();
  ASSERT_TRUE(clean_ms.has_value());
  EXPECT_NEAR(*clean_ms - start_clean, 0.075, 1e-6);  // TLC t_read = 75 us
}

TEST(NandReliability, TimingClassesOrdered) {
  const auto slc = timing_for(CellTech::kSlc);
  const auto mlc = timing_for(CellTech::kMlc);
  const auto tlc = timing_for(CellTech::kTlc);
  EXPECT_LT(slc.read_page, mlc.read_page);
  EXPECT_LT(mlc.read_page, tlc.read_page);
  EXPECT_LT(slc.program_lower, mlc.program_upper);
  EXPECT_LT(mlc.program_upper, tlc.program_extra);
  EXPECT_LT(slc.erase_block, tlc.erase_block);
  // Upper/extra passes are slower and have more ISPP steps than lower.
  EXPECT_GE(mlc.ispp_steps_upper, mlc.ispp_steps_lower);
  EXPECT_GE(tlc.ispp_steps_extra, tlc.ispp_steps_upper);
}

TEST(NandReliability, ErrorModelsOrderedByDensity) {
  const auto slc = error_model_for(CellTech::kSlc);
  const auto mlc = error_model_for(CellTech::kMlc);
  const auto tlc = error_model_for(CellTech::kTlc);
  EXPECT_LT(slc.base_ber, mlc.base_ber);
  EXPECT_LT(mlc.base_ber, tlc.base_ber);
  EXPECT_EQ(slc.paired_page_upset_ber, 0.0);  // no shared-wordline partner
  EXPECT_LT(mlc.paired_page_upset_ber, tlc.paired_page_upset_ber);
}

TEST(NandReliability, OrderViolationCounted) {
  Simulator sim(8);
  auto cfg = base_config();
  NandChip chip(sim, cfg);
  chip.on_power_good();
  program_sync(sim, chip, 0, 1);
  std::optional<OpResult> out;
  chip.program(7, 2, [&](OpResult r) { out = r; });  // skips pages 1..6
  sim.run_all();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, OpResult::Status::kOrderViolation);
  EXPECT_EQ(chip.stats().order_violations, 1u);
  // The page was not written.
  EXPECT_EQ(chip.read_now(7).content, kErasedContent);
}

TEST(NandReliability, SlcHasNoPairedPageChannel) {
  Simulator sim(9);
  NandChip chip(sim, base_config(CellTech::kSlc));
  chip.on_power_good();
  program_sync(sim, chip, 0, 1);
  chip.program(1, 2, [](OpResult) {});
  sim.run_for(Duration::us(100));
  chip.on_power_lost();
  EXPECT_EQ(chip.stats().paired_page_upsets, 0u);
  const Page* lower = chip.peek(0);
  ASSERT_NE(lower, nullptr);
  EXPECT_EQ(lower->upset_errors, 0u);
}

}  // namespace
}  // namespace pofi::nand
