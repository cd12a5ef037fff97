// BlockArena unit tests: the sparse-materialisation contract that the old
// unordered_map gave for free, pinned explicitly — plus the SoA-specific
// machinery (lane recycling, narrow-with-overflow payload encoding, side
// tables) that has no analogue in the AoS implementation.
#include "nand/block_arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "nand/chip.hpp"
#include "nand/chip_array.hpp"
#include "sim/simulator.hpp"

namespace pofi::nand {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.page_size_bytes = 4096;
  g.pages_per_block = 32;
  g.blocks_per_plane = 16;
  g.planes = 2;
  return g;
}

TEST(BlockArena, TouchMaterialisesLazily) {
  BlockArena arena(small_geometry(), 7);
  EXPECT_EQ(arena.touched_blocks(), 0u);
  EXPECT_EQ(arena.find(5), BlockArena::kNoSlot);

  const BlockArena::Slot s = arena.touch(5);
  EXPECT_EQ(arena.touched_blocks(), 1u);
  EXPECT_EQ(arena.find(5), s);
  EXPECT_EQ(arena.erase_count(s), 7u) << "pre-age applies on first touch";
  EXPECT_EQ(arena.touch(5), s) << "re-touch is idempotent";
  EXPECT_EQ(arena.touched_blocks(), 1u);
}

TEST(BlockArena, UntouchedAndFreshBlocksReadErased) {
  BlockArena arena(small_geometry(), 0);
  const BlockArena::Slot s = arena.touch(3);
  // Touched but never programmed: no page lane is allocated, yet every page
  // must read as a default-constructed Page.
  const Page pg = arena.snapshot(s, 17);
  EXPECT_EQ(pg.status, PageStatus::kErased);
  EXPECT_EQ(pg.progress, 0.0f);
  EXPECT_EQ(pg.content, kErasedContent);
  EXPECT_EQ(pg.oob.lpn, ~0ULL);
  EXPECT_EQ(pg.oob.seq, 0u);
  EXPECT_EQ(pg.upset_errors, 0u);
}

TEST(BlockArena, PayloadRoundTripsThroughNarrowLanes) {
  BlockArena arena(small_geometry(), 0);
  const BlockArena::Slot s = arena.touch(0);

  // Small values ride the u32 lanes directly.
  Oob oob;
  oob.lpn = 1234;
  oob.seq = 99;
  arena.set_programmed(s, 0, 42, oob);
  EXPECT_EQ(arena.status(s, 0), PageStatus::kValid);
  EXPECT_EQ(arena.content(s, 0), 42u);
  EXPECT_EQ(arena.oob(s, 0).lpn, 1234u);
  EXPECT_EQ(arena.oob(s, 0).seq, 99u);
  EXPECT_EQ(arena.progress(s, 0), 1.0f);

  // Wide values divert to the overflow side table, exactly.
  const std::uint64_t journal_tag = 0x4A4F55524E414C00ULL | 7;
  Oob wide;
  wide.lpn = 0x1'0000'0001ULL;
  wide.seq = 0xFFFFFFFEULL;  // collides with the in-band overflow marker
  arena.set_programmed(s, 1, journal_tag, wide);
  EXPECT_EQ(arena.content(s, 1), journal_tag);
  EXPECT_EQ(arena.oob(s, 1).lpn, 0x1'0000'0001ULL);
  EXPECT_EQ(arena.oob(s, 1).seq, 0xFFFFFFFEULL);

  // Sentinels (~0 content, invalid lpn) round-trip through the marker.
  arena.set_programmed(s, 2, kErasedContent, Oob{});
  EXPECT_EQ(arena.content(s, 2), kErasedContent);
  EXPECT_EQ(arena.oob(s, 2).lpn, ~0ULL);
  EXPECT_FALSE(arena.oob(s, 2).valid());
}

TEST(BlockArena, EraseResetsPagesCountersAndSideTables) {
  BlockArena arena(small_geometry(), 0);
  const BlockArena::Slot s = arena.touch(2);
  arena.set_programmed(s, 0, 0xABCDEF0123456789ULL, Oob{});  // overflow entry
  arena.set_partial(s, 1, 0.25f, 7, Oob{});                  // progress entry
  arena.set_upset_errors(s, 0, 11);                          // upset entry
  arena.bump_reads_since_erase(s);
  arena.bump_programs_since_erase(s);
  arena.set_next_program_page(s, 2);
  arena.set_partially_erased(s);
  ASSERT_TRUE(arena.has_upsets(s));

  arena.erase_block(s);
  EXPECT_EQ(arena.status(s, 0), PageStatus::kErased);
  EXPECT_EQ(arena.status(s, 1), PageStatus::kErased);
  EXPECT_EQ(arena.content(s, 0), kErasedContent);
  EXPECT_EQ(arena.progress(s, 1), 0.0f);
  EXPECT_EQ(arena.upset_errors(s, 0), 0u);
  EXPECT_FALSE(arena.has_upsets(s));
  EXPECT_EQ(arena.reads_since_erase(s), 0u);
  EXPECT_EQ(arena.programs_since_erase(s), 0u);
  EXPECT_EQ(arena.next_program_page(s), 0u);
  EXPECT_FALSE(arena.partially_erased(s));
  EXPECT_EQ(arena.touched_blocks(), 1u) << "erase never un-materialises a block";
}

TEST(BlockArena, LaneRecyclingReusesPageStorage) {
  BlockArena arena(small_geometry(), 0);
  const BlockArena::Slot a = arena.touch(0);
  arena.set_programmed(a, 0, 1, Oob{});
  arena.erase_block(a);  // lane returns to the free list

  // A different block programmed next must get a *scrubbed* lane: no bleed
  // of the previous tenant's pages.
  const BlockArena::Slot b = arena.touch(1);
  arena.set_programmed(b, 5, 2, Oob{});
  EXPECT_EQ(arena.status(b, 0), PageStatus::kErased);
  EXPECT_EQ(arena.content(b, 0), kErasedContent);
  EXPECT_EQ(arena.content(b, 5), 2u);
}

TEST(BlockArena, CorruptionPreservesPreCorruptionProgress) {
  BlockArena arena(small_geometry(), 0);
  const BlockArena::Slot s = arena.touch(0);
  arena.set_programmed(s, 0, 1, Oob{});
  arena.set_partial(s, 1, 0.5f, 2, Oob{});

  arena.corrupt_page(s, 0);
  arena.corrupt_page(s, 1);
  EXPECT_EQ(arena.status(s, 0), PageStatus::kCorrupt);
  EXPECT_EQ(arena.progress(s, 0), 1.0f) << "was fully programmed";
  EXPECT_EQ(arena.status(s, 1), PageStatus::kCorrupt);
  EXPECT_EQ(arena.progress(s, 1), 0.5f) << "keeps the interrupted fraction";
  EXPECT_EQ(arena.content(s, 0), 1u) << "corruption leaves the stored tag";
}

TEST(BlockArena, UpsetEntriesTrackCounts) {
  BlockArena arena(small_geometry(), 0);
  const BlockArena::Slot s = arena.touch(0);
  EXPECT_FALSE(arena.has_upsets(s));
  arena.set_upset_errors(s, 3, 5);
  EXPECT_TRUE(arena.has_upsets(s));
  EXPECT_EQ(arena.upset_errors(s, 3), 5u);
  arena.set_upset_errors(s, 3, 9);  // overwrite, not double-count
  EXPECT_EQ(arena.upset_errors(s, 3), 9u);
  arena.set_upset_errors(s, 3, 0);  // zero removes the entry
  EXPECT_FALSE(arena.has_upsets(s));
}

NandChip::Config chip_config();

// --- Compact images: an image holds the created lanes, not whole slabs ----

/// Program page 0 of `blocks` consecutive blocks from `first`, each with a
/// distinct tag, binding one page lane per block.
void program_blocks(BlockArena& arena, BlockId first, std::uint32_t blocks, std::uint64_t tag) {
  for (std::uint32_t i = 0; i < blocks; ++i) {
    Oob oob;
    oob.lpn = tag + i;
    oob.seq = i + 1;
    arena.set_programmed(arena.touch(first + i), 0, tag + i, oob);
  }
}

/// An arena whose four lanes carry every page state (valid, partial,
/// corrupt, overflowed payloads and an upset): three bound, one recycled
/// through an erase and one back on the free list.
BlockArena populated_arena() {
  BlockArena arena(small_geometry(), 3);
  const BlockArena::Slot a = arena.touch(4);
  Oob wide;
  wide.lpn = 0x1'0000'0001ULL;
  wide.seq = 0xFFFFFFFEULL;
  arena.set_programmed(a, 0, 0x4A4F55524E414C00ULL | 7, wide);
  arena.set_programmed(a, 1, 11, Oob{});
  arena.set_partial(a, 2, 0.5f, 12, Oob{});
  arena.corrupt_page(a, 1);
  arena.set_upset_errors(a, 0, 3);
  const BlockArena::Slot b = arena.touch(9);
  arena.set_programmed(b, 0, 21, Oob{});
  arena.erase_block(b);  // block 12 below gets its lane back
  program_blocks(arena, 12, 3, 100);
  arena.erase_block(arena.find(13));  // its lane stays on the free list
  return arena;
}

TEST(BlockArena, ImageHoldsOnlyTheCreatedLanes) {
  const Geometry g = small_geometry();
  const std::size_t words = (g.pages_per_block + 31) / 32;
  BlockArena arena = populated_arena();
  BlockArena::StateImage image;
  arena.snapshot(image);
  ASSERT_EQ(image.lanes, 4u) << "three bound lanes plus one free";
  EXPECT_EQ(image.content.size(), image.lanes * g.pages_per_block)
      << "an image copies the created lanes, not their whole slab";
  EXPECT_EQ(image.oob_lpn.size(), image.lanes * g.pages_per_block);
  EXPECT_EQ(image.oob_seq.size(), image.lanes * g.pages_per_block);
  EXPECT_EQ(image.status.size(), image.lanes * words);

  BlockArena empty(g, 0);
  empty.snapshot(image);
  EXPECT_TRUE(image.content.empty());
  EXPECT_TRUE(image.status.empty());
}

TEST(BlockArena, CompactImageRestoresOntoLargerAndEmptyArenas) {
  const Geometry g = small_geometry();
  BlockArena source = populated_arena();
  BlockArena::StateImage image;
  source.snapshot(image);

  // Both targets share the source's configuration (the pre-age is not
  // image state). One holds two slabs of other blocks' pages (33 lanes: the
  // 33rd opens the second slab), the other never bound a lane.
  BlockArena larger(g, 3);
  program_blocks(larger, 0, 33, 5000);
  BlockArena::StateImage larger_image;
  larger.snapshot(larger_image);
  ASSERT_EQ(larger_image.lanes, 33u);
  BlockArena fresh(g, 3);

  for (BlockArena* target : {&larger, &fresh}) {
    target->restore(image);
    BlockArena::StateImage again;
    target->snapshot(again);
    EXPECT_EQ(again, image) << "restore then snapshot is the identity";

    // Keep going on both sides: a lane bound after the restore is scrubbed
    // (the larger arena held another block's pages there), and growth past
    // the restored slab works from a compact image.
    BlockArena replay = populated_arena();
    for (BlockArena* arena : {target, &replay}) {
      program_blocks(*arena, 20, 40, 900);
      arena->set_programmed(arena->touch(5), 3, 77, Oob{});
    }
    BlockArena::StateImage want;
    BlockArena::StateImage got;
    replay.snapshot(want);
    target->snapshot(got);
    EXPECT_EQ(got, want);
    for (BlockId b = 0; b < 64; ++b) {
      const BlockArena::Slot s = target->find(b);
      ASSERT_EQ(s, replay.find(b)) << "block " << b;
      if (s == BlockArena::kNoSlot) continue;
      for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
        const Page x = target->snapshot(s, p);
        const Page y = replay.snapshot(s, p);
        EXPECT_EQ(x.status, y.status) << "block " << b << " page " << p;
        EXPECT_EQ(x.content, y.content) << "block " << b << " page " << p;
        EXPECT_EQ(x.oob.lpn, y.oob.lpn) << "block " << b << " page " << p;
        EXPECT_EQ(x.oob.seq, y.oob.seq) << "block " << b << " page " << p;
        EXPECT_EQ(x.progress, y.progress) << "block " << b << " page " << p;
        EXPECT_EQ(x.upset_errors, y.upset_errors) << "block " << b << " page " << p;
      }
    }
  }
}

// --- page_fields(): the audit's decode-once read agrees with peek() -------

void expect_fields_match(const PageFields& f, const Page& pg, const char* where,
                         std::uint64_t at) {
  EXPECT_EQ(f.status, pg.status) << where << ' ' << at;
  EXPECT_EQ(f.content, pg.content) << where << ' ' << at;
  EXPECT_EQ(f.oob.lpn, pg.oob.lpn) << where << ' ' << at;
  EXPECT_EQ(f.oob.seq, pg.oob.seq) << where << ' ' << at;
}

TEST(BlockArena, FieldsAgreeWithSnapshotForEveryPageState) {
  BlockArena arena = populated_arena();
  const BlockArena::Slot lane_less = arena.touch(30);  // touched, never programmed
  const Geometry g = small_geometry();
  for (const BlockId b : {BlockId{4}, BlockId{9}, BlockId{12}, BlockId{13}, BlockId{30}}) {
    const BlockArena::Slot s = arena.find(b);
    std::uint32_t first = g.pages_per_block;
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      const Page pg = arena.snapshot(s, p);
      expect_fields_match(arena.fields(s, p), pg, "block", b * g.pages_per_block + p);
      if (first == g.pages_per_block && pg.status != PageStatus::kErased) first = p;
    }
    EXPECT_EQ(arena.first_unerased(s), first) << "block " << b;
  }
  EXPECT_EQ(arena.first_unerased(lane_less), g.pages_per_block);
}

/// page_fields() against peek() on every page of an array of `channels`
/// dies.
void expect_page_fields_match_peek(std::uint32_t channels) {
  sim::Simulator sim;
  ChipArray array(sim, ChipArray::Config{channels, chip_config()});
  array.on_power_good();
  const Geometry& g = array.geometry();
  auto ppn = [&](BlockId b, std::uint32_t p) { return g.first_page(b) + p; };

  // Block 0: valid pages with u32-overflow content, LPN and sequence values
  // and with the all-ones sentinels.
  Oob wide;
  wide.lpn = 0x1'0000'0001ULL;
  wide.seq = 0xFFFFFFFEULL;
  array.program(ppn(0, 0), 0x4A4F55524E414C00ULL | 9, wide, [](OpResult) {});
  array.program(ppn(0, 1), kErasedContent, Oob{}, [](OpResult) {});
  Oob plain;
  plain.lpn = 40;
  plain.seq = 41;
  array.program(ppn(0, 2), 42, plain, [](OpResult) {});
  // Block 2 gets two pages and then an interrupted erase: corrupt.
  array.program(ppn(2, 0), 0x31, [](OpResult) {});
  array.program(ppn(2, 1), 0x32, [](OpResult) {});
  // Block 5 is erased without ever being programmed: no page lane.
  array.erase(5, [](OpResult) {});
  // Block 1: a lower page, then an upper page interrupted early (blocks 1
  // and 2 sit on different dies, so both operations are in flight).
  array.program(ppn(1, 0), 0x11, [](OpResult) {});
  sim.run_all();
  array.erase(2, [](OpResult) {});
  array.program(ppn(1, 1), 0x22, [](OpResult) {});
  sim.run_for(sim::Duration::us(100));
  array.on_power_lost();
  array.on_power_good();

  std::uint32_t seen[4] = {0, 0, 0, 0};
  std::uint32_t untouched = 0;
  // Every page of the geometry, then three blocks' worth past it (the
  // auditor's "mapping past the geometry" case).
  for (Ppn p = 0; p < g.total_pages() + 3ULL * g.pages_per_block; ++p) {
    const PageFields f = array.page_fields(p);
    const Page* pg = array.peek(p);
    if (pg == nullptr) {
      ++untouched;
      expect_fields_match(f, Page{}, "untouched ppn", p);
      continue;
    }
    ++seen[static_cast<int>(pg->status)];
    expect_fields_match(f, *pg, "ppn", p);
  }
  EXPECT_GT(seen[static_cast<int>(PageStatus::kErased)], 0u);
  EXPECT_GT(seen[static_cast<int>(PageStatus::kValid)], 0u);
  EXPECT_GT(seen[static_cast<int>(PageStatus::kPartial)], 0u);
  EXPECT_GT(seen[static_cast<int>(PageStatus::kCorrupt)], 0u);
  EXPECT_GE(untouched, 3u * g.pages_per_block) << "past the geometry reads like untouched";

  EXPECT_EQ(array.first_unerased_page(0), ppn(0, 0));
  EXPECT_EQ(array.first_unerased_page(2), ppn(2, 0));
  EXPECT_EQ(array.first_unerased_page(5), std::nullopt) << "lane-less block";
  EXPECT_EQ(array.first_unerased_page(7), std::nullopt) << "untouched block";
  EXPECT_EQ(array.first_unerased_page(g.total_blocks() + 1), std::nullopt);
}

TEST(ChipArrayPageFields, AgreeWithPeekOnEveryPage) {
  expect_page_fields_match_peek(2);
  expect_page_fields_match_peek(3);
}

// --- touched_blocks() semantics through the public chip API --------------
// (pinning the satellite requirement: program / erase / retire / reads)

NandChip::Config chip_config() {
  NandChip::Config cfg;
  cfg.geometry = small_geometry();
  cfg.tech = CellTech::kMlc;
  cfg.endurance_pe_cycles = 2;  // retire quickly
  return cfg;
}

TEST(NandChipTouchedBlocks, PinnedAcrossProgramEraseRetire) {
  sim::Simulator sim;
  NandChip chip(sim, chip_config());
  chip.on_power_good();
  EXPECT_EQ(chip.touched_blocks(), 0u);

  // peek never materialises.
  EXPECT_EQ(chip.peek(0), nullptr);
  EXPECT_EQ(chip.touched_blocks(), 0u);

  // A read materialises the block (it must track reads_since_erase).
  chip.read(100, [](OpResult) {});
  sim.run_all();
  EXPECT_EQ(chip.touched_blocks(), 1u);

  // Programs materialise their block once; more programs add nothing.
  chip.program(0, 1, [](OpResult) {});
  chip.program(1, 2, [](OpResult) {});
  sim.run_all();
  EXPECT_EQ(chip.touched_blocks(), 2u);

  // Erase materialises; repeated erases keep the block resident and
  // eventually retire it — still exactly one touched block.
  std::optional<OpResult::Status> last;
  for (int i = 0; i < 4; ++i) {
    chip.erase(7, [&last](OpResult r) { last = r.status; });
    sim.run_all();
  }
  EXPECT_EQ(chip.touched_blocks(), 3u);
  EXPECT_EQ(last, OpResult::Status::kBadBlock) << "endurance exhausted";
  EXPECT_TRUE(chip.is_bad(7));
  EXPECT_EQ(chip.touched_blocks(), 3u) << "retirement does not un-touch";
}

TEST(NandChipTouchedBlocks, PeekSnapshotSurvivesUntilNextPeek) {
  sim::Simulator sim;
  NandChip chip(sim, chip_config());
  chip.on_power_good();
  chip.program(0, 77, [](OpResult) {});
  sim.run_all();

  const Page* a = chip.peek(0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->content, 77u);
  const Page* b = chip.peek(0);
  EXPECT_EQ(a, b) << "stable snapshot address per die";
}

}  // namespace
}  // namespace pofi::nand
