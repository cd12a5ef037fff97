// Differential fuzz: the SoA BlockArena chip vs the frozen map-based
// reference implementation (legacy_nand_chip.hpp).
//
// Both chips hang off simulators seeded identically, so their forked RNG
// streams are identical; they are driven through the same randomized
// program/read/erase/OOB/power-fault sequence and must agree on every
// observable after every fault and at the end: full page snapshots (status,
// ISPP progress, content tag, OOB, upset errors), block erase counts and
// bad-block flags, op stats, and touched_blocks(). Any divergence in state
// layout, RNG consumption order, or floating-point expression shape shows up
// as a mismatch within a few hundred ops.
//
// Content tags and OOB values are drawn across the full 64-bit range —
// including ~0 sentinels and journal-style high-marker tags — to force the
// arena's narrow-with-overflow encoding through every case.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "legacy_nand_chip.hpp"
#include "nand/chip.hpp"

namespace pofi::nand {
namespace {

using sim::Duration;
using sim::Simulator;

constexpr std::uint64_t kSeed = 0x5EEDF00D;

NandChip::Config fuzz_config() {
  NandChip::Config cfg;
  cfg.geometry.page_size_bytes = 2048;
  cfg.geometry.pages_per_block = 16;
  cfg.geometry.blocks_per_plane = 8;
  cfg.geometry.planes = 2;
  cfg.tech = CellTech::kMlc;  // paired pages: upset side table gets traffic
  cfg.ecc = EccKind::kBch;
  cfg.endurance_pe_cycles = 25;  // low: block retirement is reachable
  cfg.initial_pe_cycles = 3;
  return cfg;
}

legacy::LegacyNandChip::Config as_legacy(const NandChip::Config& cfg) {
  legacy::LegacyNandChip::Config out;
  out.geometry = cfg.geometry;
  out.tech = cfg.tech;
  out.ecc = cfg.ecc;
  out.endurance_pe_cycles = cfg.endurance_pe_cycles;
  out.initial_pe_cycles = cfg.initial_pe_cycles;
  out.enforce_program_order = cfg.enforce_program_order;
  return out;
}

struct Pair {
  Simulator sim_arena{kSeed};
  Simulator sim_legacy{kSeed};
  NandChip arena;
  legacy::LegacyNandChip legacy;

  explicit Pair(const NandChip::Config& cfg)
      : arena(sim_arena, cfg), legacy(sim_legacy, as_legacy(cfg)) {
    arena.on_power_good();
    legacy.on_power_good();
  }

  void run_all() {
    sim_arena.run_all();
    sim_legacy.run_all();
  }
  void run_for(Duration d) {
    sim_arena.run_for(d);
    sim_legacy.run_for(d);
  }
};

/// The legacy chip's statuses, spelled in the unified OpResult's terms.
OpResult::Status unified(legacy::OpResult::Status s) {
  switch (s) {
    case legacy::OpResult::Status::kOk: return OpResult::Status::kOk;
    case legacy::OpResult::Status::kPowerLost: return OpResult::Status::kPowerLost;
    case legacy::OpResult::Status::kBadBlock: return OpResult::Status::kBadBlock;
    case legacy::OpResult::Status::kOrderViolation: return OpResult::Status::kOrderViolation;
  }
  return OpResult::Status::kOk;
}

OpResult::Status unified(legacy::ReadResult::Status s) {
  switch (s) {
    case legacy::ReadResult::Status::kOk: return OpResult::Status::kOk;
    case legacy::ReadResult::Status::kUncorrectable: return OpResult::Status::kUncorrectable;
    case legacy::ReadResult::Status::kPowerLost: return OpResult::Status::kPowerLost;
  }
  return OpResult::Status::kOk;
}

void expect_identical(const Pair& p, std::uint64_t iteration) {
  const Geometry& g = p.arena.geometry();
  ASSERT_EQ(p.arena.touched_blocks(), p.legacy.touched_blocks()) << "iter " << iteration;
  for (BlockId b = 0; b < g.total_blocks(); ++b) {
    ASSERT_EQ(p.arena.erase_count(b), p.legacy.erase_count(b)) << "blk " << b;
    ASSERT_EQ(p.arena.is_bad(b), p.legacy.is_bad(b)) << "blk " << b;
  }
  for (Ppn ppn = 0; ppn < g.total_pages(); ++ppn) {
    const Page* a = p.arena.peek(ppn);
    const Page* l = p.legacy.peek(ppn);
    ASSERT_EQ(a == nullptr, l == nullptr) << "ppn " << ppn << " iter " << iteration;
    if (a == nullptr) continue;
    ASSERT_EQ(a->status, l->status) << "ppn " << ppn << " iter " << iteration;
    ASSERT_EQ(a->progress, l->progress) << "ppn " << ppn << " iter " << iteration;
    ASSERT_EQ(a->content, l->content) << "ppn " << ppn << " iter " << iteration;
    ASSERT_EQ(a->oob.lpn, l->oob.lpn) << "ppn " << ppn << " iter " << iteration;
    ASSERT_EQ(a->oob.seq, l->oob.seq) << "ppn " << ppn << " iter " << iteration;
    ASSERT_EQ(a->upset_errors, l->upset_errors) << "ppn " << ppn << " iter " << iteration;
  }
  const ChipStats& sa = p.arena.stats();
  const ChipStats& sl = p.legacy.stats();
  ASSERT_EQ(sa.reads, sl.reads);
  ASSERT_EQ(sa.programs, sl.programs);
  ASSERT_EQ(sa.erases, sl.erases);
  ASSERT_EQ(sa.uncorrectable_reads, sl.uncorrectable_reads);
  ASSERT_EQ(sa.interrupted_programs, sl.interrupted_programs);
  ASSERT_EQ(sa.interrupted_erases, sl.interrupted_erases);
  ASSERT_EQ(sa.paired_page_upsets, sl.paired_page_upsets);
  ASSERT_EQ(sa.dropped_queued_ops, sl.dropped_queued_ops);
  ASSERT_EQ(sa.order_violations, sl.order_violations);
}

TEST(NandChipFuzz, ArenaMatchesLegacyReferenceOver10kOps) {
  const NandChip::Config cfg = fuzz_config();
  Pair p(cfg);
  const Geometry& g = cfg.geometry;

  std::mt19937_64 gen(0xF0CCACC1A);
  const auto pick = [&gen](std::uint64_t n) { return gen() % n; };
  const auto pick_content = [&]() -> std::uint64_t {
    switch (pick(10)) {
      case 0: return ~0ULL;                            // erased sentinel as payload
      case 1: return 0x4A4F55524E414C00ULL | pick(64);  // journal-style high tag
      case 2:
      case 3:
      case 4: return gen();  // full 64-bit range -> overflow side table
      default: return 1 + pick(1'000'000);  // shadow-store-style small tag
    }
  };
  const auto pick_u64_mostly_small = [&](std::uint64_t small) -> std::uint64_t {
    const std::uint64_t r = pick(50);
    if (r == 0) return ~0ULL;
    if (r == 1) return gen();
    return small;
  };

  std::vector<std::uint32_t> cursor(g.total_blocks(), 0);
  std::uint64_t seq = 1;
  constexpr std::uint64_t kOps = 12'000;

  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t roll = pick(100);
    if (roll < 55) {
      // Program: usually at the in-order cursor, sometimes out of order.
      const BlockId b = pick(g.total_blocks());
      std::uint32_t pib = cursor[b] < g.pages_per_block ? cursor[b]
                                                        : static_cast<std::uint32_t>(
                                                              pick(g.pages_per_block));
      if (pick(8) == 0) pib = static_cast<std::uint32_t>(pick(g.pages_per_block));
      const Ppn ppn = g.first_page(b) + pib;
      const std::uint64_t content = pick_content();
      Oob oob;
      oob.lpn = pick_u64_mostly_small(pick(4096));
      oob.seq = pick_u64_mostly_small(seq++);
      std::optional<OpResult::Status> got_a;
      std::optional<OpResult::Status> got_l;
      p.arena.program(ppn, content, oob, [&got_a](const OpResult& r) { got_a = r.status; });
      p.legacy.program(ppn, content, oob,
                       [&got_l](legacy::OpResult r) { got_l = unified(r.status); });
      p.run_all();
      ASSERT_EQ(got_a, got_l) << "program iter " << i;
      if (got_a == OpResult::Status::kOk) cursor[b] = pib + 1;
    } else if (roll < 75) {
      const Ppn ppn = pick(g.total_pages());
      std::optional<OpResult> got_a;
      std::optional<legacy::ReadResult> got_l;
      p.arena.read(ppn, [&got_a](const OpResult& r) { got_a = r; });
      p.legacy.read(ppn, [&got_l](legacy::ReadResult r) { got_l = r; });
      p.run_all();
      ASSERT_EQ(got_a.has_value(), got_l.has_value());
      if (got_a.has_value()) {
        ASSERT_EQ(got_a->status, unified(got_l->status)) << "read iter " << i;
        ASSERT_EQ(got_a->content, got_l->content) << "read iter " << i;
        ASSERT_EQ(got_a->raw_errors, got_l->raw_errors) << "read iter " << i;
        ASSERT_EQ(got_a->soft_retries, got_l->soft_retries) << "read iter " << i;
      }
    } else if (roll < 82) {
      // A page read carries the OOB the legacy chip's read_oob returned: the
      // same spare area when that read was ok, none when it was not.
      const Ppn ppn = pick(g.total_pages());
      std::optional<OpResult> got_a;
      std::optional<legacy::LegacyNandChip::OobResult> got_l;
      p.arena.read(ppn, [&got_a](const OpResult& r) { got_a = r; });
      p.legacy.read_oob(ppn, [&got_l](legacy::LegacyNandChip::OobResult r) { got_l = r; });
      p.run_all();
      ASSERT_EQ(got_a.has_value(), got_l.has_value());
      if (got_a.has_value()) {
        ASSERT_TRUE(!got_l->ok || got_a->ok()) << "oob iter " << i;
        ASSERT_EQ(got_a->ok() && got_a->oob.valid(), got_l->ok && got_l->oob.valid())
            << "oob iter " << i;
        ASSERT_EQ(got_a->oob.lpn, got_l->oob.lpn) << "oob iter " << i;
        ASSERT_EQ(got_a->oob.seq, got_l->oob.seq) << "oob iter " << i;
      }
    } else if (roll < 92) {
      const BlockId b = pick(g.total_blocks());
      std::optional<OpResult::Status> got_a;
      std::optional<OpResult::Status> got_l;
      p.arena.erase(b, [&got_a](const OpResult& r) { got_a = r.status; });
      p.legacy.erase(b, [&got_l](legacy::OpResult r) { got_l = unified(r.status); });
      p.run_all();
      ASSERT_EQ(got_a, got_l) << "erase iter " << i;
      if (got_a == OpResult::Status::kOk) cursor[b] = 0;
    } else {
      // Power fault mid-flight: queue a burst of ops (no callbacks — they
      // would outlive the fault), cut power after a random sub-op delay so
      // programs/erases interrupt at identical ISPP fractions, then repower.
      const int burst = 1 + static_cast<int>(pick(4));
      for (int o = 0; o < burst; ++o) {
        const BlockId b = pick(g.total_blocks());
        if (pick(3) == 0) {
          p.arena.erase(b, {});
          p.legacy.erase(b, {});
          cursor[b] = 0;  // fate unknown; keep both sides programming in sync
        } else {
          const std::uint32_t pib = cursor[b] < g.pages_per_block
                                        ? cursor[b]
                                        : static_cast<std::uint32_t>(
                                              pick(g.pages_per_block));
          const std::uint64_t content = pick_content();
          Oob oob;
          oob.lpn = pick(4096);
          oob.seq = seq++;
          p.arena.program(g.first_page(b) + pib, content, oob, {});
          p.legacy.program(g.first_page(b) + pib, content, oob, {});
          cursor[b] = pib + 1;
        }
      }
      p.run_for(Duration::us(pick(3000)));
      p.arena.on_power_lost();
      p.legacy.on_power_lost();
      p.run_all();
      p.arena.on_power_good();
      p.legacy.on_power_good();
      // Cursors may have drifted from interrupted programs; resync from the
      // reference model's ground truth so in-order programs stay plausible.
      for (BlockId b = 0; b < g.total_blocks(); ++b) {
        cursor[b] = 0;
        for (std::uint32_t pg = 0; pg < g.pages_per_block; ++pg) {
          const Page* pp = p.legacy.peek(g.first_page(b) + pg);
          if (pp != nullptr && pp->status != PageStatus::kErased) cursor[b] = pg + 1;
        }
      }
      expect_identical(p, i);  // full-state check after every fault
    }
    if (i % 512 == 0) expect_identical(p, i);
  }
  expect_identical(p, kOps);

  // The fuzz must actually have exercised the interesting machinery.
  const ChipStats& s = p.arena.stats();
  EXPECT_GT(s.programs, 1000u);
  EXPECT_GT(s.erases, 100u);
  EXPECT_GT(s.interrupted_programs, 10u);
  EXPECT_GT(s.interrupted_erases, 5u);
  EXPECT_GT(s.paired_page_upsets, 10u);
  EXPECT_GT(s.order_violations, 10u);
  EXPECT_GT(s.uncorrectable_reads, 0u);
}

}  // namespace
}  // namespace pofi::nand
