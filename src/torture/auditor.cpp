#include "torture/auditor.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "ftl/ftl.hpp"
#include "nand/page.hpp"

namespace pofi::torture {

namespace {

void add(AuditReport& report, InvariantKind kind, ftl::Lpn lpn, ftl::Ppn ppn,
         ftl::BlockId block, std::string detail) {
  Violation v;
  v.kind = kind;
  v.lpn = lpn;
  v.ppn = ppn;
  v.block = block;
  v.detail = std::move(detail);
  report.violations.push_back(std::move(v));
}

[[nodiscard]] bool sorted_contains(const std::vector<ftl::Lpn>& sorted, ftl::Lpn lpn) {
  return std::binary_search(sorted.begin(), sorted.end(), lpn);
}

}  // namespace

void InvariantAuditor::check_membership(AuditReport& report, ftl::BlockId block,
                                        const Membership& m, std::uint32_t valid_count) {
  // Each pair emits min(count_a, count_b) findings: what std::set_intersection
  // emits over the sets as sorted multisets.
  auto overlap = [&](std::uint32_t a, std::uint32_t b, const char* what) {
    for (std::uint32_t i = 0; i < std::min(a, b); ++i) {
      add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn,
          ~ftl::Ppn{0}, block, "block " + std::to_string(block) + " is in both " + what);
    }
  };
  overlap(m.free, m.active, "the free pool and the active set");
  overlap(m.free, m.sealed, "the free pool and the sealed set");
  overlap(m.active, m.sealed, "the active set and the sealed set");
  if (valid_count == 0) return;
  // Every free-pool entry is checked, so a block pushed twice reports twice.
  for (std::uint32_t i = 0; i < m.free; ++i) {
    add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn, ~ftl::Ppn{0},
        block,
        "free block " + std::to_string(block) + " still counts " +
            std::to_string(valid_count) + " valid page(s)");
  }
}

void InvariantAuditor::check_free_pages(AuditReport& report, const nand::ChipArray& chip,
                                        ftl::BlockId block, std::uint32_t free_entries) {
  // A free block must be erased end to end. An untouched block has no arena
  // slot and a block unprogrammed since its erase has no page lane: both
  // are erased by definition and answer without a scan.
  const std::optional<ftl::Ppn> ppn = chip.first_unerased_page(block);
  if (!ppn.has_value()) return;
  const nand::PageStatus status = chip.page_fields(*ppn).status;
  // One finding per free-pool entry, at the first unerased page: enough to
  // localise it.
  for (std::uint32_t i = 0; i < free_entries; ++i) {
    add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn, *ppn, block,
        "free block " + std::to_string(block) + " holds a " +
            std::string(nand::to_string(status)) + " page");
  }
}

AuditReport InvariantAuditor::audit(const ssd::Ssd& ssd,
                                    const platform::ShadowStore* shadow) {
  AuditReport report;
  const ftl::Ftl& ftl = ssd.ftl();
  const ftl::MappingTable& map = ftl.mapping();
  const nand::ChipArray& chip = ssd.chip();
  const nand::Geometry& geom = chip.geometry();
  const std::uint64_t horizon = ftl.journal_horizon();
  const std::uint64_t total_blocks = geom.total_blocks();

  // --- I1 + I2 + I4: walk the L2P map once ---------------------------------
  // Count live pages per block (valid-count cross-check), check reverse-map
  // agreement and journal-replay completeness for persisted entries, and
  // collect the PPNs that could be doubly owned (see I1 below).
  owners_.clear();
  counted_.assign(total_blocks, 0);
  map.for_each_mapping([&](ftl::Lpn lpn, ftl::Ppn ppn) {
    ++report.mappings_checked;
    const ftl::BlockId block = geom.block_of(ppn);
    // A mapping past the geometry has no block to count against; the page
    // read below reports it as pointing at a never-programmed page.
    if (block < total_blocks) ++counted_[block];

    if (const ftl::Lpn reverse = ftl.reverse_lpn(ppn); reverse != lpn) {
      add(report, InvariantKind::kReverseMapMismatch, lpn, ppn, block,
          "map says lpn " + std::to_string(lpn) + " -> ppn " + std::to_string(ppn) +
              " but reverse map holds lpn " + std::to_string(reverse));
      owners_.emplace_back(ppn, lpn);
      if (reverse != ftl::kUnmappedLpn && map.lookup(reverse) == ppn) {
        owners_.emplace_back(ppn, reverse);
      }
    }

    const nand::PageFields page = chip.page_fields(ppn);
    if (page.status == nand::PageStatus::kErased) {
      add(report, InvariantKind::kJournalReplayIncomplete, lpn, ppn, block,
          "mapping points at an erased/never-programmed page");
      return;
    }
    // Partial/corrupt pages are the paper's data-failure channel, not a
    // replay bug; their OOB shares the page's fate and proves nothing.
    if (page.status != nand::PageStatus::kValid) return;
    const bool foreign = page.oob.lpn != lpn;
    if (!foreign && page.oob.seq <= horizon) return;
    if (map.entry_volatile(lpn)) return;  // not journaled yet: no horizon claim
    if (foreign) {
      add(report, InvariantKind::kJournalReplayIncomplete, lpn, ppn, block,
          "persisted mapping points at a page stamped for lpn " +
              std::to_string(page.oob.lpn));
    } else {
      add(report, InvariantKind::kJournalReplayIncomplete, lpn, ppn, block,
          "persisted mapping carries seq " + std::to_string(page.oob.seq) +
              " > journal horizon " + std::to_string(horizon));
    }
  });

  // --- I1: no PPN has two owners --------------------------------------------
  // The reverse map names one LPN per PPN, so of a PPN's owners at most one
  // agrees with it: every doubly owned PPN has a mismatching owner, and the
  // walk collected all of that PPN's owners (each mismatching one, plus the
  // agreeing one it still maps). A clean map collects nothing. The walk
  // visits LPNs in ascending order, so the lowest LPN of a PPN is its first
  // owner and every later one is the duplicate.
  std::sort(owners_.begin(), owners_.end());
  owners_.erase(std::unique(owners_.begin(), owners_.end()), owners_.end());
  for (std::size_t first = 0; first < owners_.size();) {
    const auto [ppn, owner] = owners_[first];
    std::size_t i = first + 1;
    for (; i < owners_.size() && owners_[i].first == ppn; ++i) {
      add(report, InvariantKind::kDoubleMappedPpn, owners_[i].second, ppn,
          geom.block_of(ppn),
          "lpn " + std::to_string(owners_[i].second) + " and lpn " +
              std::to_string(owner) + " both map to ppn " + std::to_string(ppn));
    }
    first = i;
  }

  // --- I3: allocator free/active/sealed sets, as per-block tallies ---------
  // tally_[b] counts b's allocator entries: free-pool ones in the low half,
  // active and sealed ones in the high half. A clean block has at most one
  // entry, and a free one counts no valid page.
  const ftl::BlockAllocator& alloc = ftl.allocator();
  tally_.assign(total_blocks, 0);
  std::uint64_t* const tally = tally_.data();
  strays_.clear();
  auto note = [&](ftl::BlockId b, AllocSet set) {
    if (b < total_blocks) {
      tally[b] += set == AllocSet::kFree ? 1 : kTallyInUse;
    } else {
      strays_.emplace_back(b, set);
    }
  };
  // The free pool holds nearly every block of a young drive: tally it
  // inline, without a call per entry.
  alloc.for_each_free_block([&](ftl::BlockId b) {
    if (b < total_blocks) {
      ++tally[b];
    } else {
      strays_.emplace_back(b, AllocSet::kFree);
    }
  });
  for (std::size_t s = 0; s < ftl::kStreamCount; ++s) {
    for (std::uint32_t plane = 0; plane < geom.planes; ++plane) {
      if (const auto b = alloc.active_block(static_cast<ftl::Stream>(s), plane)) {
        note(*b, AllocSet::kActive);
      }
    }
  }
  for (const ftl::BlockId b : alloc.sealed_blocks()) note(b, AllocSet::kSealed);

  // --- I2 + I3: the dense per-block arrays ---------------------------------
  // The fast pass makes no call and writes only locals, so it runs from
  // registers: it counts the blocks in use and notes whether any block's
  // walked and believed counts disagree or its tally breaks a membership
  // rule. Only then does the exact pass run; it recounts a misfiled block's
  // active and sealed entries set by set.
  const std::uint32_t* const counted = counted_.data();
  std::uint64_t checked = 0;
  bool flagged = false;
  for (ftl::BlockId b = 0; b < total_blocks; ++b) {
    const std::uint32_t believed = ftl.valid_count(b);
    checked += (counted[b] | believed) != 0 ? 1 : 0;
    flagged |= (counted[b] != believed) | misfiled(tally[b], believed);
  }
  report.blocks_checked = checked;
  for (ftl::BlockId b = 0; flagged && b < total_blocks; ++b) {
    const std::uint32_t walked = counted[b];
    const std::uint32_t believed = ftl.valid_count(b);
    if (walked != believed) {
      add(report, InvariantKind::kMapValidCountMismatch, ftl::kUnmappedLpn,
          ~ftl::Ppn{0}, b,
          "block " + std::to_string(b) + " valid_count=" + std::to_string(believed) +
              " but the map holds " + std::to_string(walked) + " live page(s)");
    }
    if (misfiled(tally[b], believed)) {
      Membership m;
      m.free = free_entries(tally[b]);
      for (std::size_t s = 0; s < ftl::kStreamCount; ++s) {
        for (std::uint32_t plane = 0; plane < geom.planes; ++plane) {
          if (alloc.active_block(static_cast<ftl::Stream>(s), plane) == b) ++m.active;
        }
      }
      const std::vector<ftl::BlockId>& sealed = alloc.sealed_blocks();
      m.sealed = static_cast<std::uint32_t>(std::count(sealed.begin(), sealed.end(), b));
      check_membership(report, b, m, believed);
    }
  }
  chip.for_each_materialized_block([&](ftl::BlockId b) {
    if (b < total_blocks && free_entries(tally[b]) != 0) {
      check_free_pages(report, chip, b, free_entries(tally[b]));
    }
  });
  std::sort(strays_.begin(), strays_.end());
  for (std::size_t i = 0; i < strays_.size();) {
    const ftl::BlockId b = strays_[i].first;
    Membership m;
    for (; i < strays_.size() && strays_[i].first == b; ++i) m.add(strays_[i].second);
    check_membership(report, b, m, ftl.valid_count(b));
    if (m.free != 0) check_free_pages(report, chip, b, m.free);
  }

  // --- I5: every ACKed write is durable or declared lost --------------------
  if (shadow != nullptr) {
    const std::vector<ftl::Lpn>& reverted = ftl.last_reverted_lpns();
    const std::vector<ftl::Lpn>& dropped = ssd.cache().last_dropped_lpns();
    // The shadow store visits its pages in ascending LPN order; the final
    // sort orders the report across all invariant families regardless.
    shadow->for_each([&](ftl::Lpn lpn, std::uint64_t expected, bool indeterminate) {
      if (indeterminate) return;  // device may hold either version: no claim
      if (expected == nand::kErasedContent) return;
      ++report.acked_pages_checked;
      const auto ppn = map.lookup(lpn);
      if (ppn.has_value()) {
        const nand::PageFields page = chip.page_fields(*ppn);
        if (page.status == nand::PageStatus::kValid && page.content == expected) {
          return;  // durable
        }
      }
      // Not durable: acceptable only when classified into the paper's
      // taxonomy — FWA (map revert), declared cache loss, or media damage
      // (data failure). Anything else is a silent loss.
      const nand::Page* page = ppn.has_value() ? chip.peek(*ppn) : nullptr;
      const bool declared_fwa = sorted_contains(reverted, lpn);
      const bool declared_cache_loss = sorted_contains(dropped, lpn);
      const bool damaged =
          page != nullptr && (page->status == nand::PageStatus::kPartial ||
                              page->status == nand::PageStatus::kCorrupt ||
                              page->upset_errors > 0);
      if (declared_fwa || declared_cache_loss || damaged) return;
      add(report, InvariantKind::kLostAckedWrite, lpn,
          ppn.value_or(~ftl::Ppn{0}),
          ppn.has_value() ? geom.block_of(*ppn) : ~ftl::BlockId{0},
          "ACKed write to lpn " + std::to_string(lpn) +
              " is gone: not reverted, not declared cache loss, media intact");
    });
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.kind, a.lpn, a.ppn, a.block, a.detail) <
                     std::tie(b.kind, b.lpn, b.ppn, b.block, b.detail);
            });
  return report;
}

}  // namespace pofi::torture
