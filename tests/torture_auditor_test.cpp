// InvariantAuditor self-tests: hand-corrupt a healthy device through the
// FTL/allocator debug hooks and prove each invariant family actually fires —
// and, just as important, that a clean device audits clean. The torture
// explorer's verdicts are only as trustworthy as these checks.
//
// Every audit here is also differential: a straightforward reference
// auditor (hash-map ownership, sorted allocator sets, a peek per free block)
// must produce the identical report, field for field and in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "blk/queue.hpp"
#include "ftl/ftl.hpp"
#include "nand/page.hpp"
#include "platform/shadow_store.hpp"
#include "psu/power_supply.hpp"
#include "runner/experiment_session.hpp"
#include "ssd/presets.hpp"
#include "torture/auditor.hpp"
#include "torture/harness.hpp"

namespace pofi::torture {
namespace {

using sim::Duration;

void add(AuditReport& report, InvariantKind kind, ftl::Lpn lpn, ftl::Ppn ppn,
         ftl::BlockId block, std::string detail) {
  report.violations.push_back(Violation{kind, lpn, ppn, block, std::move(detail)});
}

/// The reference auditor: the same five invariant families written the
/// direct way, with per-call hash maps and sorted copies of the allocator
/// sets. Slow, but simple enough to trust; InvariantAuditor must match it.
[[nodiscard]] AuditReport reference_audit(const ssd::Ssd& ssd,
                                          const platform::ShadowStore* shadow) {
  AuditReport report;
  const ftl::Ftl& ftl = ssd.ftl();
  const ftl::MappingTable& map = ftl.mapping();
  const nand::ChipArray& chip = ssd.chip();
  const nand::Geometry& geom = chip.geometry();
  const std::uint64_t horizon = ftl.journal_horizon();

  // I1 + I2 + I4: one walk of the L2P map.
  std::unordered_map<ftl::Ppn, ftl::Lpn> owner;
  std::unordered_map<ftl::BlockId, std::uint32_t> counted;
  map.for_each_mapping([&](ftl::Lpn lpn, ftl::Ppn ppn) {
    ++report.mappings_checked;
    const ftl::BlockId block = geom.block_of(ppn);
    ++counted[block];
    if (const auto [it, inserted] = owner.emplace(ppn, lpn); !inserted) {
      add(report, InvariantKind::kDoubleMappedPpn, lpn, ppn, block,
          "lpn " + std::to_string(lpn) + " and lpn " + std::to_string(it->second) +
              " both map to ppn " + std::to_string(ppn));
    }
    if (ftl.reverse_lpn(ppn) != lpn) {
      add(report, InvariantKind::kReverseMapMismatch, lpn, ppn, block,
          "map says lpn " + std::to_string(lpn) + " -> ppn " + std::to_string(ppn) +
              " but reverse map holds lpn " + std::to_string(ftl.reverse_lpn(ppn)));
    }
    const nand::Page* page = chip.peek(ppn);
    if (page == nullptr || page->status == nand::PageStatus::kErased) {
      add(report, InvariantKind::kJournalReplayIncomplete, lpn, ppn, block,
          "mapping points at an erased/never-programmed page");
      return;
    }
    if (page->status != nand::PageStatus::kValid) return;
    if (map.entry_volatile(lpn)) return;
    if (page->oob.lpn != lpn) {
      add(report, InvariantKind::kJournalReplayIncomplete, lpn, ppn, block,
          "persisted mapping points at a page stamped for lpn " +
              std::to_string(page->oob.lpn));
    } else if (page->oob.seq > horizon) {
      add(report, InvariantKind::kJournalReplayIncomplete, lpn, ppn, block,
          "persisted mapping carries seq " + std::to_string(page->oob.seq) +
              " > journal horizon " + std::to_string(horizon));
    }
  });

  // I2: per-block valid counts.
  for (ftl::BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto it = counted.find(b);
    const std::uint32_t walked = it == counted.end() ? 0 : it->second;
    const std::uint32_t believed = ftl.valid_count(b);
    if (walked != believed) {
      add(report, InvariantKind::kMapValidCountMismatch, ftl::kUnmappedLpn,
          ~ftl::Ppn{0}, b,
          "block " + std::to_string(b) + " valid_count=" + std::to_string(believed) +
              " but the map holds " + std::to_string(walked) + " live page(s)");
    }
    if (walked != 0 || believed != 0) ++report.blocks_checked;
  }

  // I3: allocator sets as sorted multisets.
  const ftl::BlockAllocator& alloc = ftl.allocator();
  std::vector<ftl::BlockId> free_ids;
  alloc.for_each_free_block([&](ftl::BlockId b) { free_ids.push_back(b); });
  std::sort(free_ids.begin(), free_ids.end());
  std::vector<ftl::BlockId> active;
  for (std::size_t s = 0; s < ftl::kStreamCount; ++s) {
    for (std::uint32_t plane = 0; plane < geom.planes; ++plane) {
      if (const auto b = alloc.active_block(static_cast<ftl::Stream>(s), plane)) {
        active.push_back(*b);
      }
    }
  }
  std::sort(active.begin(), active.end());
  std::vector<ftl::BlockId> sealed = alloc.sealed_blocks();
  std::sort(sealed.begin(), sealed.end());
  auto check_disjoint = [&](const std::vector<ftl::BlockId>& a,
                            const std::vector<ftl::BlockId>& b, const char* what) {
    std::vector<ftl::BlockId> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(both));
    for (const ftl::BlockId blk : both) {
      add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn,
          ~ftl::Ppn{0}, blk, "block " + std::to_string(blk) + " is in both " + what);
    }
  };
  check_disjoint(free_ids, active, "the free pool and the active set");
  check_disjoint(free_ids, sealed, "the free pool and the sealed set");
  check_disjoint(active, sealed, "the active set and the sealed set");
  for (const ftl::BlockId b : free_ids) {
    if (ftl.valid_count(b) != 0) {
      add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn,
          ~ftl::Ppn{0}, b,
          "free block " + std::to_string(b) + " still counts " +
              std::to_string(ftl.valid_count(b)) + " valid page(s)");
    }
    if (chip.peek(geom.first_page(b)) == nullptr) continue;
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      const nand::Page* page = chip.peek(geom.first_page(b) + p);
      if (page != nullptr && page->status != nand::PageStatus::kErased) {
        add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn,
            geom.first_page(b) + p, b,
            "free block " + std::to_string(b) + " holds a " +
                std::string(nand::to_string(page->status)) + " page");
        break;
      }
    }
  }

  // I5: ACKed writes are durable or declared lost.
  if (shadow != nullptr) {
    const std::vector<ftl::Lpn>& reverted = ftl.last_reverted_lpns();
    const std::vector<ftl::Lpn>& dropped = ssd.cache().last_dropped_lpns();
    std::vector<std::pair<ftl::Lpn, std::uint64_t>> acked;
    shadow->for_each([&](ftl::Lpn lpn, std::uint64_t expected, bool indeterminate) {
      if (indeterminate || expected == nand::kErasedContent) return;
      acked.emplace_back(lpn, expected);
    });
    std::sort(acked.begin(), acked.end());
    for (const auto& [lpn, expected] : acked) {
      ++report.acked_pages_checked;
      const auto ppn = map.lookup(lpn);
      const nand::Page* page = ppn.has_value() ? chip.peek(*ppn) : nullptr;
      const std::uint64_t on_media = page == nullptr ? nand::kErasedContent : page->content;
      if (ppn.has_value() && page != nullptr && on_media == expected &&
          page->status == nand::PageStatus::kValid) {
        continue;
      }
      const bool declared_fwa = std::binary_search(reverted.begin(), reverted.end(), lpn);
      const bool declared_cache_loss = std::binary_search(dropped.begin(), dropped.end(), lpn);
      const bool damaged =
          page != nullptr && (page->status == nand::PageStatus::kPartial ||
                              page->status == nand::PageStatus::kCorrupt ||
                              page->upset_errors > 0);
      if (declared_fwa || declared_cache_loss || damaged) continue;
      add(report, InvariantKind::kLostAckedWrite, lpn, ppn.value_or(~ftl::Ppn{0}),
          ppn.has_value() ? geom.block_of(*ppn) : ~ftl::BlockId{0},
          "ACKed write to lpn " + std::to_string(lpn) +
              " is gone: not reverted, not declared cache loss, media intact");
    }
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.kind, a.lpn, a.ppn, a.block, a.detail) <
                     std::tie(b.kind, b.lpn, b.ppn, b.block, b.detail);
            });
  return report;
}

/// Field-for-field equality, violation by violation in report order.
void expect_same(const AuditReport& got, const AuditReport& want) {
  EXPECT_EQ(got.mappings_checked, want.mappings_checked);
  EXPECT_EQ(got.blocks_checked, want.blocks_checked);
  EXPECT_EQ(got.acked_pages_checked, want.acked_pages_checked);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    const Violation& g = got.violations[i];
    const Violation& w = want.violations[i];
    EXPECT_EQ(g.kind, w.kind) << "violation " << i;
    EXPECT_EQ(g.lpn, w.lpn) << "violation " << i;
    EXPECT_EQ(g.ppn, w.ppn) << "violation " << i;
    EXPECT_EQ(g.block, w.block) << "violation " << i;
    EXPECT_EQ(g.detail, w.detail) << "violation " << i;
  }
}

struct Harness {
  Harness()
      : sim(31),
        psu(sim, std::make_unique<psu::PowerLawDischarge>()),
        ssd(sim, drive()),
        queue(sim, ssd) {
    psu.attach(ssd);
    psu.power_on();
    run_until([&] { return ssd.ready(); });
  }

  static ssd::SsdConfig drive() {
    ssd::PresetOptions opts;
    opts.capacity_override_gb = 1;
    auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
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

  /// ACKed host write: tags land in the shadow store as committed truth.
  void write(ftl::Lpn lpn, std::uint32_t pages = 1) {
    std::vector<std::uint64_t> tags = shadow.allocate_tags(pages);
    std::optional<blk::IoStatus> status;
    queue.submit_write(lpn, tags, [&](blk::RequestOutcome o) { status = o.status; });
    run_until([&] { return status.has_value(); });
    ASSERT_EQ(*status, blk::IoStatus::kOk);
    shadow.commit_write(lpn, tags);
  }

  /// FLUSH barrier: every mapping is journaled (entry_volatile == false), so
  /// the journal-replay checks apply to all of them.
  void flush() {
    std::optional<blk::IoStatus> status;
    queue.submit_flush([&](blk::RequestOutcome o) { status = o.status; });
    run_until([&] { return status.has_value(); });
    ASSERT_EQ(*status, blk::IoStatus::kOk);
  }

  [[nodiscard]] ftl::Ppn ppn_of(ftl::Lpn lpn) {
    const auto ppn = ssd.ftl().mapping().lookup(lpn);
    EXPECT_TRUE(ppn.has_value()) << "lpn " << lpn << " is unmapped";
    return ppn.value_or(0);
  }

  /// Audit through the harness's (reused) auditor and require the
  /// reference auditor's identical report.
  [[nodiscard]] AuditReport audit(bool with_shadow = true) {
    const platform::ShadowStore* s = with_shadow ? &shadow : nullptr;
    AuditReport report = auditor.audit(ssd, s);
    expect_same(report, reference_audit(ssd, s));
    return report;
  }

  sim::Simulator sim;
  psu::PowerSupply psu;
  ssd::Ssd ssd;
  blk::BlockQueue queue;
  platform::ShadowStore shadow;
  InvariantAuditor auditor;
};

[[nodiscard]] std::size_t count_kind(const AuditReport& r, InvariantKind kind) {
  return static_cast<std::size_t>(
      std::count_if(r.violations.begin(), r.violations.end(),
                    [&](const Violation& v) { return v.kind == kind; }));
}

// A freshly written, flushed device has nothing to report — and the counters
// prove the auditor actually looked.
TEST(TortureAuditor, CleanDeviceAuditsClean) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 32; ++lpn) h.write(lpn);
  h.flush();

  const AuditReport report = h.audit();
  EXPECT_TRUE(report.ok()) << report.violations.size() << " violation(s), first: "
                           << (report.ok() ? "" : report.violations.front().detail);
  EXPECT_GE(report.mappings_checked, 32u);
  EXPECT_GE(report.acked_pages_checked, 32u);
  EXPECT_GE(report.blocks_checked, 1u);
}

// Remapping lpn B onto lpn A's physical page makes the PPN doubly owned; the
// same corruption must also surface as a reverse-map disagreement and, after
// a flush persisted both entries, as incomplete journal replay (the page's
// OOB is stamped for A, not B).
TEST(TortureAuditor, DoubleMappedPpnFires) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  h.ssd.ftl().debug_corrupt_map(5, h.ppn_of(2));

  const AuditReport report = h.audit();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(count_kind(report, InvariantKind::kDoubleMappedPpn), 1u);
  EXPECT_GE(count_kind(report, InvariantKind::kReverseMapMismatch), 1u);
  EXPECT_GE(count_kind(report, InvariantKind::kJournalReplayIncomplete), 1u);
}

// Inflating a block's valid count desynchronises it from the map walk.
TEST(TortureAuditor, ValidCountMismatchFires) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();  // drain the write cache so the pages are mapped on media
  const ftl::BlockId block = h.ssd.chip().geometry().block_of(h.ppn_of(0));

  h.ssd.ftl().debug_set_valid_count(block, h.ssd.ftl().valid_count(block) + 3);

  const AuditReport report = h.audit();
  EXPECT_EQ(count_kind(report, InvariantKind::kMapValidCountMismatch), 1u);
  EXPECT_EQ(report.violations.front().block, block);
}

// A live count on a block that sits only in the free pool: the map walk
// disagrees with it, and the free pool holds a block the FTL thinks is live.
TEST(TortureAuditor, LiveCountOnFreeBlockFires) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();
  const ftl::BlockId block = h.ssd.chip().geometry().total_blocks() - 1;
  ASSERT_EQ(h.ssd.ftl().valid_count(block), 0u);

  h.ssd.ftl().debug_set_valid_count(block, 2);
  ASSERT_EQ(h.ssd.ftl().valid_count(block), 2u);

  const AuditReport report = h.audit();
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.violations[0].kind, InvariantKind::kMapValidCountMismatch);
  EXPECT_EQ(report.violations[1].detail,
            "free block " + std::to_string(block) + " still counts 2 valid page(s)");
}

// A mapping that points at a never-programmed page can only come from replay
// inventing (or mis-addressing) a record.
TEST(TortureAuditor, ErasedTargetFiresJournalReplayIncomplete) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  const nand::Geometry& geom = h.ssd.chip().geometry();
  // The last block of the last plane is untouched this early in device life.
  const ftl::Ppn untouched = geom.first_page(geom.total_blocks() - 1);
  ASSERT_EQ(h.ssd.chip().peek(untouched), nullptr);
  h.ssd.ftl().debug_corrupt_map(3, untouched);

  const AuditReport report = h.audit();
  EXPECT_GE(count_kind(report, InvariantKind::kJournalReplayIncomplete), 1u);
}

// Forcing a live block into the free pool must trip the allocator/arena
// cross-checks: the pool overlaps the active set, the block still counts
// valid pages, and its pages are not erased. All three findings share kind,
// LPN and block, and two share the PPN too, so their order is pinned by the
// detail text (the last sort key), not by the order the checks ran in.
TEST(TortureAuditor, AllocatorArenaMismatchFires) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();  // drain the write cache so the pages are mapped on media

  const nand::Geometry& geom = h.ssd.chip().geometry();
  const ftl::BlockId block = geom.block_of(h.ppn_of(0));
  h.ssd.ftl().debug_allocator().debug_force_free(block,
                                                 geom.plane_of(geom.first_page(block)));

  const AuditReport report = h.audit();
  const std::string b = std::to_string(block);
  const std::vector<std::tuple<ftl::Ppn, std::string>> expected = {
      {geom.first_page(block), "free block " + b + " holds a valid page"},
      {~ftl::Ppn{0}, "block " + b + " is in both the free pool and the active set"},
      {~ftl::Ppn{0}, "free block " + b + " still counts " +
                         std::to_string(h.ssd.ftl().valid_count(block)) + " valid page(s)"},
  };
  ASSERT_EQ(report.violations.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Violation& v = report.violations[i];
    EXPECT_EQ(v.kind, InvariantKind::kAllocatorArenaMismatch) << i;
    EXPECT_EQ(v.lpn, ftl::kUnmappedLpn) << i;
    EXPECT_EQ(v.block, block) << i;
    EXPECT_EQ(std::tie(v.ppn, v.detail), std::tie(std::get<0>(expected[i]),
                                                  std::get<1>(expected[i])))
        << i;
  }
}

// A sealed block that still holds valid pages, forced into the free pool
// twice. The sets behave as sorted multisets: the overlap with the sealed set
// (held once) is reported min(2, 1) = 1 time, while each free-pool entry gets
// its own live-count and non-erased-page finding.
TEST(TortureAuditor, ForceFreedSealedBlockWithValidPages) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  const nand::Geometry& geom = h.ssd.chip().geometry();
  const ftl::BlockId block = geom.block_of(h.ppn_of(0));
  ftl::BlockAllocator& alloc = h.ssd.ftl().debug_allocator();
  alloc.abandon_active_blocks();  // seals every open block, this one included
  ASSERT_NE(std::find(alloc.sealed_blocks().begin(), alloc.sealed_blocks().end(), block),
            alloc.sealed_blocks().end());
  ASSERT_GT(h.ssd.ftl().valid_count(block), 0u);
  const std::uint32_t plane = geom.plane_of(geom.first_page(block));
  alloc.debug_force_free(block, plane);
  alloc.debug_force_free(block, plane);

  const AuditReport report = h.audit();
  EXPECT_EQ(count_kind(report, InvariantKind::kAllocatorArenaMismatch), 5u);
  const std::string overlap =
      "block " + std::to_string(block) + " is in both the free pool and the sealed set";
  EXPECT_EQ(std::count_if(report.violations.begin(), report.violations.end(),
                          [&](const Violation& v) { return v.detail == overlap; }),
            1);
}

// Several corruptions in one audit. Lpns 5 and 7 are remapped onto lpn 2's
// page, whose reverse-map entry still names lpn 2: two double-map findings
// that name lpn 2, the lowest owner, as the first one. Lpns 1 and 3 are
// remapped onto the page lpn 0's previous version left behind, which the
// reverse map names no owner of: a double map where no owner agrees with the
// reverse map. Lpn 6 points back at its own previous page: a reverse-map
// mismatch on a page no other LPN owns.
TEST(TortureAuditor, DoubleMapWithReverseMapMismatch) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();
  const ftl::Ppn stale0 = h.ppn_of(0);
  const ftl::Ppn stale6 = h.ppn_of(6);
  h.write(0);
  h.write(6);
  h.flush();
  ASSERT_NE(h.ppn_of(0), stale0);
  ASSERT_NE(h.ppn_of(6), stale6);

  const ftl::Ppn shared = h.ppn_of(2);
  h.ssd.ftl().debug_corrupt_map(5, shared);
  h.ssd.ftl().debug_corrupt_map(7, shared);
  h.ssd.ftl().debug_corrupt_map(1, stale0);
  h.ssd.ftl().debug_corrupt_map(3, stale0);
  h.ssd.ftl().debug_corrupt_map(6, stale6);

  const AuditReport report = h.audit();
  std::vector<std::string> doubles;
  for (const Violation& v : report.violations) {
    if (v.kind == InvariantKind::kDoubleMappedPpn) doubles.push_back(v.detail);
  }
  const std::string p = std::to_string(shared);
  const std::string q = std::to_string(stale0);
  EXPECT_EQ(doubles, (std::vector<std::string>{"lpn 3 and lpn 1 both map to ppn " + q,
                                               "lpn 5 and lpn 2 both map to ppn " + p,
                                               "lpn 7 and lpn 2 both map to ppn " + p}));
  EXPECT_EQ(count_kind(report, InvariantKind::kReverseMapMismatch), 5u);
  EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                          [&](const Violation& v) {
                            return v.kind == InvariantKind::kReverseMapMismatch &&
                                   v.lpn == 6 && v.ppn == stale6;
                          }));
}

// A mapping past the end of the geometry has no block to count against and
// no page behind it: it reports incomplete replay (the page reads as never
// programmed), and the per-block accounting skips it instead of indexing
// past its arrays (the asan preset checks the latter).
TEST(TortureAuditor, MappingPastGeometryIsReplayIncomplete) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  const nand::Geometry& geom = h.ssd.chip().geometry();
  const ftl::Ppn just_past = geom.total_pages();
  const ftl::Ppn far_past = geom.total_pages() * 64 + 3;
  h.ssd.ftl().debug_corrupt_map(3, just_past);
  h.ssd.ftl().debug_corrupt_map(4, far_past);

  const AuditReport report = h.audit();
  for (const auto& [lpn, ppn] : {std::pair{ftl::Lpn{3}, just_past},
                                 std::pair{ftl::Lpn{4}, far_past}}) {
    EXPECT_TRUE(std::any_of(report.violations.begin(), report.violations.end(),
                            [&](const Violation& v) {
                              return v.kind == InvariantKind::kJournalReplayIncomplete &&
                                     v.lpn == lpn && v.ppn == ppn &&
                                     v.block == geom.block_of(ppn);
                            }))
        << "lpn " << lpn;
  }
  EXPECT_EQ(report.mappings_checked, 8u);
}

// Free-pool entries past the geometry have no per-block counter slot: they
// are checked from a side list (the reference sees the same report), and
// with no valid count, no NAND state and no other set to overlap they raise
// nothing.
TEST(TortureAuditor, FreeEntryPastGeometryIsCheckedWithoutASlot) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  const nand::Geometry& geom = h.ssd.chip().geometry();
  ftl::BlockAllocator& alloc = h.ssd.ftl().debug_allocator();
  alloc.debug_force_free(geom.total_blocks() + 7, 0);
  alloc.debug_force_free(geom.total_blocks() + 7, 0);
  alloc.debug_force_free(geom.total_blocks() * 3, 1);

  const AuditReport report = h.audit();
  EXPECT_TRUE(report.ok()) << report.violations.front().detail;
}

// Dropping an ACKed write's mapping without any declaration (no revert, no
// cache-loss record, media intact) is a silent loss.
TEST(TortureAuditor, LostAckedWriteFires) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  h.ssd.ftl().debug_corrupt_drop_mapping(4);

  const AuditReport report = h.audit();
  EXPECT_EQ(count_kind(report, InvariantKind::kLostAckedWrite), 1u);
  const auto it = std::find_if(report.violations.begin(), report.violations.end(),
                               [](const Violation& v) {
                                 return v.kind == InvariantKind::kLostAckedWrite;
                               });
  ASSERT_NE(it, report.violations.end());
  EXPECT_EQ(it->lpn, 4u);
}

// Indeterminate pages make no durability claim: the same dropped mapping is
// fine once the write is marked in-flight-at-crash.
TEST(TortureAuditor, IndeterminateWritesMakeNoClaim) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();

  const std::vector<std::uint64_t> alt = h.shadow.allocate_tags(1);
  h.shadow.mark_indeterminate(4, alt);
  h.ssd.ftl().debug_corrupt_drop_mapping(4);

  const AuditReport report = h.audit();
  EXPECT_EQ(count_kind(report, InvariantKind::kLostAckedWrite), 0u);
}

// Without a shadow store the device-internal families still run.
TEST(TortureAuditor, NullShadowSkipsOnlyAckedCheck) {
  Harness h;
  for (ftl::Lpn lpn = 0; lpn < 8; ++lpn) h.write(lpn);
  h.flush();
  h.ssd.ftl().debug_corrupt_drop_mapping(4);

  const AuditReport report = h.audit(/*with_shadow=*/false);
  EXPECT_EQ(report.acked_pages_checked, 0u);
  EXPECT_EQ(count_kind(report, InvariantKind::kLostAckedWrite), 0u);
  // The dropped mapping still leaves its block's valid count off by one.
  EXPECT_GE(count_kind(report, InvariantKind::kMapValidCountMismatch), 1u);
}

// Crash-recovered state, not just hand corruption: the first 1024 boundaries
// of a short torture schedule, each crashed (restored from pilot checkpoints,
// as the explorer sweeps them) with recovery intact and with it broken, audit
// identically through the harness's reused auditor and the reference.
TEST(TortureAuditor, StrideOneSweepMatchesReference) {
  for (const bool broken : {false, true}) {
    TortureConfig cfg;
    cfg.seed = 7;
    cfg.drive = Harness::drive();
    cfg.workload.wss_pages = 4096;
    cfg.workload.min_pages = 1;
    cfg.workload.max_pages = 16;
    cfg.workload.write_fraction = 0.8;
    cfg.requests = 24;
    cfg.pace_iops = 2000.0;
    cfg.break_recovery = broken;

    CrashHarness harness(cfg);
    runner::SessionSlot slot;
    SchedulePilot pilot;
    const std::uint64_t schedule = harness.run_pilot(
        runner::ExperimentSession::acquire(slot, cfg.drive, cfg.platform, cfg.seed), pilot,
        64);
    ASSERT_GT(schedule, 0u);

    std::size_t injected = 0;
    std::size_t failing = 0;
    for (std::uint64_t k = 0; k < std::min<std::uint64_t>(schedule, 1024); ++k) {
      const HarnessSnapshot* snap = pilot.nearest_at_or_before(k);
      ASSERT_NE(snap, nullptr) << "k=" << k;
      platform::TestPlatform& tp =
          runner::ExperimentSession::acquire_for_restore(slot, cfg.drive, cfg.platform);
      const CrashOutcome out = harness.run_crash_point_from(tp, pilot, *snap, k);
      if (out.injected) ++injected;
      if (!out.report.ok()) ++failing;
      SCOPED_TRACE("broken=" + std::to_string(broken) + " k=" + std::to_string(k));
      expect_same(out.report, reference_audit(tp.device(), &tp.shadow()));
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(injected, 0u);
    // The broken path must give the comparison violations to agree on.
    EXPECT_EQ(failing > 0, broken) << failing << " failing point(s)";
  }
}

}  // namespace
}  // namespace pofi::torture
