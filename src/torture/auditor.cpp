#include "torture/auditor.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_map>

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

AuditReport InvariantAuditor::audit(const ssd::Ssd& ssd,
                                    const platform::ShadowStore* shadow) {
  AuditReport report;
  const ftl::Ftl& ftl = ssd.ftl();
  const ftl::MappingTable& map = ftl.mapping();
  const nand::ChipArray& chip = ssd.chip();
  const nand::Geometry& geom = chip.geometry();
  const std::uint64_t horizon = ftl.journal_horizon();

  // --- I1 + I2 + I4: walk the L2P map once ---------------------------------
  // Collect per-PPN ownership (double-map detection), per-block live counts
  // (valid-count cross-check), reverse-map agreement, and journal-replay
  // completeness for persisted entries.
  std::unordered_map<ftl::Ppn, ftl::Lpn> owner;
  std::unordered_map<ftl::BlockId, std::uint32_t> counted;
  owner.reserve(map.entry_count());
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
    // Partial/corrupt pages are the paper's data-failure channel, not a
    // replay bug; their OOB shares the page's fate and proves nothing.
    if (page->status != nand::PageStatus::kValid) return;
    if (map.entry_volatile(lpn)) return;  // not journaled yet: no horizon claim
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

  // --- I2: per-block valid counts match the map walk ------------------------
  const std::uint64_t total_blocks = geom.total_blocks();
  for (ftl::BlockId b = 0; b < total_blocks; ++b) {
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

  // --- I3: allocator free/active/sealed sets vs the arena -------------------
  const ftl::BlockAllocator& alloc = ftl.allocator();
  const std::vector<ftl::BlockId> free_ids = alloc.free_block_ids();
  const std::vector<ftl::BlockId> active = alloc.active_blocks();
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
    // Untouched blocks have no arena slot (peek == nullptr) and are erased
    // by definition; a materialised free block must be erased end to end.
    if (chip.peek(geom.first_page(b)) == nullptr) continue;
    for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
      const nand::Page* page = chip.peek(geom.first_page(b) + p);
      if (page != nullptr && page->status != nand::PageStatus::kErased) {
        add(report, InvariantKind::kAllocatorArenaMismatch, ftl::kUnmappedLpn,
            geom.first_page(b) + p, b,
            "free block " + std::to_string(b) + " holds a " +
                std::string(nand::to_string(page->status)) + " page");
        break;  // one finding per block is enough to localise it
      }
    }
  }

  // --- I5: every ACKed write is durable or declared lost --------------------
  if (shadow != nullptr) {
    const std::vector<ftl::Lpn>& reverted = ftl.last_reverted_lpns();
    const std::vector<ftl::Lpn>& dropped = ssd.cache().last_dropped_lpns();
    // Deterministic visit order: collect and sort (the shadow store visits
    // its slots in hash order).
    std::vector<std::pair<ftl::Lpn, std::uint64_t>> acked;
    shadow->for_each([&](ftl::Lpn lpn, std::uint64_t expected, bool indeterminate) {
      if (indeterminate) return;  // device may hold either version: no claim
      if (expected == nand::kErasedContent) return;
      acked.emplace_back(lpn, expected);
    });
    std::sort(acked.begin(), acked.end());
    for (const auto& [lpn, expected] : acked) {
      ++report.acked_pages_checked;
      const auto ppn = map.lookup(lpn);
      const nand::Page* page = ppn.has_value() ? chip.peek(*ppn) : nullptr;
      const std::uint64_t on_media =
          page == nullptr ? nand::kErasedContent : page->content;
      if (ppn.has_value() && page != nullptr && on_media == expected &&
          page->status == nand::PageStatus::kValid) {
        continue;  // durable
      }
      // Not durable: acceptable only when classified into the paper's
      // taxonomy — FWA (map revert), declared cache loss, or media damage
      // (data failure). Anything else is a silent loss.
      const bool declared_fwa = sorted_contains(reverted, lpn);
      const bool declared_cache_loss = sorted_contains(dropped, lpn);
      const bool damaged =
          page != nullptr && (page->status == nand::PageStatus::kPartial ||
                              page->status == nand::PageStatus::kCorrupt ||
                              page->upset_errors > 0);
      if (declared_fwa || declared_cache_loss || damaged) continue;
      add(report, InvariantKind::kLostAckedWrite, lpn,
          ppn.value_or(~ftl::Ppn{0}),
          ppn.has_value() ? geom.block_of(*ppn) : ~ftl::BlockId{0},
          "ACKed write to lpn " + std::to_string(lpn) +
              " is gone: not reverted, not declared cache loss, media intact");
    }
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.kind, a.lpn, a.ppn, a.block) <
                     std::tie(b.kind, b.lpn, b.ppn, b.block);
            });
  return report;
}

}  // namespace pofi::torture
