#include "nand/chip.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "obs/metrics.hpp"

namespace pofi::nand {
namespace {

using sim::Duration;
using sim::Simulator;

NandChip::Config small_config(CellTech tech = CellTech::kMlc) {
  NandChip::Config cfg;
  cfg.geometry.page_size_bytes = 4096;
  cfg.geometry.pages_per_block = 32;
  cfg.geometry.blocks_per_plane = 16;
  cfg.geometry.planes = 2;
  cfg.tech = tech;
  cfg.ecc = EccKind::kBch;
  return cfg;
}

TEST(Geometry, AddressMath) {
  Geometry g;
  g.page_size_bytes = 4096;
  g.pages_per_block = 32;
  g.blocks_per_plane = 16;
  g.planes = 2;
  EXPECT_EQ(g.total_blocks(), 32u);
  EXPECT_EQ(g.total_pages(), 1024u);
  EXPECT_EQ(g.capacity_bytes(), 1024u * 4096u);
  EXPECT_EQ(g.block_of(37), 1u);
  EXPECT_EQ(g.page_in_block(37), 5u);
  EXPECT_EQ(g.plane_of(37), 1u);
  EXPECT_EQ(g.first_page(3), 96u);
}

TEST(Geometry, CapacityScaling) {
  const Geometry g = Geometry::for_capacity_gib(4);
  EXPECT_GE(g.capacity_bytes(), 4ULL << 30);
  EXPECT_LT(g.capacity_bytes(), 5ULL << 30);
}

TEST(PageRoles, MlcAlternatesLowerUpper) {
  EXPECT_EQ(page_role(CellTech::kMlc, 0), PageRole::kLower);
  EXPECT_EQ(page_role(CellTech::kMlc, 1), PageRole::kUpper);
  EXPECT_EQ(page_role(CellTech::kMlc, 2), PageRole::kLower);
  EXPECT_EQ(wordline_base(CellTech::kMlc, 3), 2u);
}

TEST(PageRoles, TlcTriples) {
  EXPECT_EQ(page_role(CellTech::kTlc, 0), PageRole::kLower);
  EXPECT_EQ(page_role(CellTech::kTlc, 1), PageRole::kUpper);
  EXPECT_EQ(page_role(CellTech::kTlc, 2), PageRole::kExtra);
  EXPECT_EQ(wordline_base(CellTech::kTlc, 5), 3u);
  EXPECT_EQ(bits_per_cell(CellTech::kTlc), 3);
}

TEST(NandChip, ProgramReadRoundTrip) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();

  std::optional<OpResult> prog;
  chip.program(0, 0xABCD, [&](OpResult r) { prog = r; });
  sim.run_all();
  ASSERT_TRUE(prog.has_value());
  EXPECT_TRUE(prog->ok());

  std::optional<OpResult> read;
  chip.read(0, [&](OpResult r) { read = r; });
  sim.run_all();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok());
  EXPECT_EQ(read->content, 0xABCDu);
}

TEST(NandChip, ReadOfErasedPageReturnsErasedContent) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  const OpResult r = chip.read_now(100);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.content, kErasedContent);
}

TEST(NandChip, ProgramOrderEnforced) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  std::optional<OpResult> out;
  chip.program(5, 1, [&](OpResult r) { out = r; });  // page 5 before 0..4
  sim.run_all();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, OpResult::Status::kOrderViolation);
  EXPECT_EQ(chip.stats().order_violations, 1u);
}

TEST(NandChip, EraseResetsBlock) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 7, [](OpResult) {});
  sim.run_all();
  std::optional<OpResult> erase;
  chip.erase(0, [&](OpResult r) { erase = r; });
  sim.run_all();
  ASSERT_TRUE(erase.has_value());
  EXPECT_TRUE(erase->ok());
  EXPECT_EQ(chip.read_now(0).content, kErasedContent);
  EXPECT_EQ(chip.erase_count(0), 1u);
  // After erase, page 0 is programmable again.
  std::optional<OpResult> prog;
  chip.program(0, 9, [&](OpResult r) { prog = r; });
  sim.run_all();
  EXPECT_TRUE(prog->ok());
}

TEST(NandChip, OperationsTakeTechnologyTime) {
  Simulator sim;
  NandChip chip(sim, small_config(CellTech::kMlc));
  chip.on_power_good();
  bool done = false;
  chip.program(0, 1, [&](OpResult) { done = true; });
  sim.run_for(Duration::us(100));  // lower-page program = 400 us
  EXPECT_FALSE(done);
  sim.run_all();
  EXPECT_TRUE(done);
}

TEST(NandChip, PlanesRunConcurrently) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  // Block 0 (plane 0) and block 1 (plane 1): programs overlap.
  std::vector<double> completion_ms;
  chip.program(chip.geometry().first_page(0), 1,
               [&](OpResult) { completion_ms.push_back(sim.now().to_ms()); });
  chip.program(chip.geometry().first_page(1), 2,
               [&](OpResult) { completion_ms.push_back(sim.now().to_ms()); });
  sim.run_all();
  ASSERT_EQ(completion_ms.size(), 2u);
  EXPECT_NEAR(completion_ms[0], completion_ms[1], 1e-9);
}

TEST(NandChip, SamePlaneSerializes) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  std::vector<double> completion_ms;
  chip.program(0, 1, [&](OpResult) { completion_ms.push_back(sim.now().to_ms()); });
  chip.program(1, 2, [&](OpResult) { completion_ms.push_back(sim.now().to_ms()); });
  sim.run_all();
  ASSERT_EQ(completion_ms.size(), 2u);
  EXPECT_GT(completion_ms[1], completion_ms[0]);
}

TEST(NandChip, CallbackQueueingOnItsPlaneStartsTheNextOpThere) {
  // A completion callback runs with its op already off the plane, so the
  // plane is idle: an op the callback queues there starts the plane's next
  // op at once, ahead of an event the callback schedules after it.
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  std::vector<char> order;
  chip.program(0, 1, [&](const OpResult&) {
    chip.read(1, [&](const OpResult&) { order.push_back('C'); });
    sim.after(Duration::us(50), [&] { order.push_back('E'); });  // MLC page read: 50 us
  });
  chip.read(0, [&](const OpResult&) { order.push_back('B'); });  // waits behind the program
  sim.run_all();
  EXPECT_EQ(order, (std::vector<char>{'B', 'E', 'C'}));
}

TEST(NandChip, PowerLossDropsQueuedOps) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  int callbacks = 0;
  for (int i = 0; i < 4; ++i) {
    chip.program(static_cast<Ppn>(i), 1, [&](OpResult) { ++callbacks; });
  }
  sim.run_for(Duration::us(10));  // first op in flight, rest queued
  chip.on_power_lost();
  sim.run_all();
  EXPECT_EQ(callbacks, 0);  // no callbacks: the controller died too
  // Pages 0-3 share plane 0: the in-flight one is interrupted, not dropped.
  EXPECT_EQ(chip.stats().dropped_queued_ops, 3u);
  EXPECT_EQ(chip.stats().interrupted_programs, 1u);
}

// A page read carries the page's spare area (OOB) exactly when the power-on
// recovery scan may trust it: the read decoded and the page is not erased.
OpResult read_async(Simulator& sim, NandChip& chip, Ppn ppn) {
  std::optional<OpResult> out;
  chip.read(ppn, [&](const OpResult& r) { out = r; });
  sim.run_all();
  EXPECT_TRUE(out.has_value());
  return out.value_or(OpResult{});
}

TEST(NandChip, ReadCarriesOobOfValidPage) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0xABCD, Oob{42, 7}, [](const OpResult&) {});
  sim.run_all();
  const OpResult r = read_async(sim, chip, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.content, 0xABCDu);
  ASSERT_TRUE(r.oob.valid());
  EXPECT_EQ(r.oob.lpn, 42u);
  EXPECT_EQ(r.oob.seq, 7u);
}

TEST(NandChip, ReadOfErasedPageCarriesInvalidOob) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0xABCD, Oob{42, 7}, [](const OpResult&) {});
  sim.run_all();
  // Page 1 shares the programmed block's lane but was never written; page
  // 100 lies in a block nothing touched.
  for (const Ppn ppn : {Ppn{1}, Ppn{100}}) {
    const OpResult r = read_async(sim, chip, ppn);
    EXPECT_TRUE(r.ok()) << "ppn " << ppn;
    EXPECT_EQ(r.content, kErasedContent) << "ppn " << ppn;
    EXPECT_FALSE(r.oob.valid()) << "ppn " << ppn;
    EXPECT_EQ(r.oob.seq, 0u) << "ppn " << ppn;
  }
}

TEST(NandChip, UncorrectableReadCarriesNoOob) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0x77, Oob{5, 11}, [](const OpResult&) {});
  sim.run_for(Duration::us(150));  // 2 of 6 ISPP steps: far from readable
  chip.on_power_lost();
  chip.on_power_good();
  ASSERT_EQ(chip.peek(0)->oob.lpn, 5u);  // the spare area was written...
  const OpResult r = read_async(sim, chip, 0);
  EXPECT_EQ(r.status, OpResult::Status::kUncorrectable);
  EXPECT_FALSE(r.oob.valid());  // ...but does not decode with the data
  EXPECT_EQ(r.oob.seq, 0u);
}

TEST(NandChip, ReadOfPartialPageCarriesItsOob) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0x99, Oob{8, 21}, [](const OpResult&) {});
  sim.run_for(Duration::us(399));  // 5 of 6 ISPP steps landed
  chip.on_power_lost();
  chip.on_power_good();
  ASSERT_EQ(chip.peek(0)->status, PageStatus::kPartial);
  const OpResult r = read_async(sim, chip, 0);
  ASSERT_TRUE(r.ok()) << "raw errors " << r.raw_errors;
  EXPECT_EQ(r.content, 0x99u);
  EXPECT_EQ(r.oob.lpn, 8u);
  EXPECT_EQ(r.oob.seq, 21u);
}

TEST(NandChip, OpsWhilePoweredOffFailImmediately) {
  Simulator sim;
  NandChip chip(sim, small_config());
  std::optional<OpResult> prog;
  std::optional<OpResult> read;
  chip.program(0, 1, [&](OpResult r) { prog = r; });
  chip.read(0, [&](OpResult r) { read = r; });
  ASSERT_TRUE(prog.has_value());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(prog->status, OpResult::Status::kPowerLost);
  EXPECT_EQ(read->status, OpResult::Status::kPowerLost);
  EXPECT_FALSE(read->oob.valid());
}

TEST(NandChip, InterruptedProgramLeavesPartialPage) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0x77, [](OpResult) {});
  sim.run_for(Duration::us(150));  // mid-ISPP (400 us lower-page program)
  chip.on_power_lost();

  const Page* page = chip.peek(0);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->status, PageStatus::kPartial);
  EXPECT_GT(page->progress, 0.0f);
  EXPECT_LT(page->progress, 1.0f);
  EXPECT_EQ(chip.stats().interrupted_programs, 1u);

  // An early-interrupted page reads back uncorrectable.
  chip.on_power_good();
  const OpResult r = chip.read_now(0);
  EXPECT_EQ(r.status, OpResult::Status::kUncorrectable);
  EXPECT_NE(r.content, 0x77u);
}

TEST(NandChip, NearlyCompleteInterruptSurvives) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0x99, [](OpResult) {});
  sim.run_for(Duration::us(399));  // all 6 ISPP steps done at 400us * 5/6=333us
  chip.on_power_lost();
  chip.on_power_good();
  const Page* page = chip.peek(0);
  ASSERT_NE(page, nullptr);
  // Interruption landed after the last full step boundary.
  EXPECT_GE(page->progress, 0.8f);
}

TEST(NandChip, InterruptedUpperPageDamagesLowerPartner) {
  Simulator sim;
  auto cfg = small_config(CellTech::kMlc);
  NandChip chip(sim, cfg);
  chip.on_power_good();
  // Program page 0 (lower) fully, then interrupt page 1 (upper) early.
  chip.program(0, 0x11, [](OpResult) {});
  sim.run_all();
  chip.program(1, 0x22, [](OpResult) {});
  sim.run_for(Duration::us(100));  // upper-page program = 900 us; early
  chip.on_power_lost();
  EXPECT_GE(chip.stats().paired_page_upsets, 1u);
  const Page* lower = chip.peek(0);
  ASSERT_NE(lower, nullptr);
  EXPECT_GT(lower->upset_errors, 0u);
  // The damaged lower page is now uncorrectable through ECC.
  chip.on_power_good();
  EXPECT_EQ(chip.read_now(0).status, OpResult::Status::kUncorrectable);
}

TEST(NandChip, InterruptedEraseCorruptsBlock) {
  obs::MetricRegistry metrics;
  Simulator sim;
  sim.set_metrics(&metrics);
  NandChip chip(sim, small_config());
  chip.on_power_good();
  chip.program(0, 0x31, [](OpResult) {});
  chip.program(1, 0x32, [](OpResult) {});
  sim.run_all();
  chip.erase(0, [](OpResult) {});
  sim.run_for(Duration::ms(1));  // erase takes 3 ms
  chip.on_power_lost();
  EXPECT_EQ(chip.stats().interrupted_erases, 1u);
  EXPECT_EQ(metrics.snapshot().counter_value("nand.erase.interrupted"), 1u);
  const Page* p0 = chip.peek(0);
  ASSERT_NE(p0, nullptr);
  EXPECT_EQ(p0->status, PageStatus::kCorrupt);
  chip.on_power_good();
  EXPECT_EQ(chip.read_now(0).status, OpResult::Status::kUncorrectable);
}

TEST(NandChip, WornBlockGoesBad) {
  obs::MetricRegistry metrics;
  Simulator sim;
  sim.set_metrics(&metrics);
  auto cfg = small_config();
  cfg.endurance_pe_cycles = 3;
  NandChip chip(sim, cfg);
  chip.on_power_good();
  for (int i = 0; i < 3; ++i) {
    chip.erase(0, [](OpResult) {});
    sim.run_all();
  }
  std::optional<OpResult> out;
  chip.erase(0, [&](OpResult r) { out = r; });
  sim.run_all();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, OpResult::Status::kBadBlock);
  EXPECT_TRUE(chip.is_bad(0));
  EXPECT_EQ(metrics.snapshot().counter_value("nand.block.retired"), 1u);
}

TEST(NandChip, SparseBlockMaterialisation) {
  Simulator sim;
  NandChip chip(sim, small_config());
  chip.on_power_good();
  EXPECT_EQ(chip.touched_blocks(), 0u);
  chip.program(0, 1, [](OpResult) {});
  sim.run_all();
  EXPECT_EQ(chip.touched_blocks(), 1u);
}

// Property sweep: interruption at any instant leaves the page in a defined
// state and reads never crash, across technologies and interrupt times.
class InterruptProperty
    : public ::testing::TestWithParam<std::tuple<CellTech, int>> {};

TEST_P(InterruptProperty, PageStateAlwaysDefined) {
  const auto [tech, interrupt_us] = GetParam();
  Simulator sim;
  NandChip chip(sim, small_config(tech));
  chip.on_power_good();
  chip.program(0, 0x5150, [](OpResult) {});
  sim.run_for(Duration::us(interrupt_us));
  chip.on_power_lost();
  chip.on_power_good();
  const OpResult r = chip.read_now(0);
  EXPECT_TRUE(r.status == OpResult::Status::kOk ||
              r.status == OpResult::Status::kUncorrectable);
  if (r.ok()) {
    // If ECC recovered it, the content is exactly old or new, never garbage.
    EXPECT_TRUE(r.content == 0x5150u || r.content == kErasedContent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TechsAndTimes, InterruptProperty,
    ::testing::Combine(::testing::Values(CellTech::kSlc, CellTech::kMlc, CellTech::kTlc),
                       ::testing::Values(1, 50, 150, 350, 600, 1200, 2000)));

}  // namespace
}  // namespace pofi::nand
