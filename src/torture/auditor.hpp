// Recovery-invariant auditing over a remounted device's *internal* state.
//
// The paper's methodology classifies externally visible damage (data failure
// / FWA / IO error); it cannot say whether the FTL's own bookkeeping is
// consistent after an outage. The auditor closes that gap: after each
// injected crash and remount, it cross-checks the L2P map, the reverse map,
// per-block valid counts, the allocator's free/active/sealed sets, the NAND
// arena's page-status lanes, the journal horizon and the host's shadow
// ground truth against each other. Every check is read-only (peek-based) and
// deterministic, so it can run inside the torture explorer's parallel shards
// without perturbing the simulation; each shard's harness owns its auditor
// (and with it the auditor's reusable scratch).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ftl/types.hpp"
#include "platform/shadow_store.hpp"
#include "ssd/ssd.hpp"

namespace pofi::torture {

/// Which invariant a violation breaks. Kept coarse on purpose: each kind is
/// one provable statement about recovered state.
enum class InvariantKind : std::uint8_t {
  kDoubleMappedPpn,         ///< two LPNs resolve to the same physical page
  kMapValidCountMismatch,   ///< per-block live-page count != mapped pages
  kReverseMapMismatch,      ///< reverse_map[ppn] disagrees with the L2P map
  kAllocatorArenaMismatch,  ///< free/active/sealed sets overlap, or a free
                            ///< block holds non-erased pages / live data
  kJournalReplayIncomplete, ///< a persisted mapping points at an erased page,
                            ///< a foreign LPN, or data newer than the journal
                            ///< horizon — replay lost or invented a record
  kLostAckedWrite,          ///< an ACKed write is gone without being declared
                            ///< (not reverted, not dropped cache, not damaged)
};

[[nodiscard]] constexpr const char* to_string(InvariantKind k) {
  switch (k) {
    case InvariantKind::kDoubleMappedPpn: return "double-mapped-ppn";
    case InvariantKind::kMapValidCountMismatch: return "map-valid-count-mismatch";
    case InvariantKind::kReverseMapMismatch: return "reverse-map-mismatch";
    case InvariantKind::kAllocatorArenaMismatch: return "allocator-arena-mismatch";
    case InvariantKind::kJournalReplayIncomplete: return "journal-replay-incomplete";
    case InvariantKind::kLostAckedWrite: return "lost-acked-write";
  }
  return "?";
}

struct Violation {
  InvariantKind kind = InvariantKind::kDoubleMappedPpn;
  ftl::Lpn lpn = ftl::kUnmappedLpn;     ///< involved logical page (if any)
  ftl::Ppn ppn = ~ftl::Ppn{0};          ///< involved physical page (if any)
  ftl::BlockId block = ~ftl::BlockId{0};  ///< involved block (if any)
  std::string detail;                   ///< human-readable one-liner
};

struct AuditReport {
  /// Sorted by (kind, lpn, ppn, block, detail) so reports are byte-identical
  /// at any shard/thread layout and whatever order the checks ran in.
  std::vector<Violation> violations;
  std::uint64_t mappings_checked = 0;
  std::uint64_t blocks_checked = 0;
  std::uint64_t acked_pages_checked = 0;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Cost model: one pass over the L2P mappings and one over the shadow
/// store's acked pages, each page read decoded once from the NAND lanes
/// (ChipArray::page_fields); a status-word scan per free block the NAND
/// arena holds page lanes for; and one call-free pass of flat per-block
/// counters over the block range (no hashing, sorting or NAND access per
/// block), followed by an exact pass only when it flags a block. Scratch
/// buffers live in the auditor and keep their capacity, so a warm auditor
/// allocates only for the violations it reports.
class InvariantAuditor {
 public:
  /// Audit a mounted (ready) device. `shadow` supplies the host's view of
  /// ACKed data for the lost-write check; pass nullptr to skip it (the four
  /// device-internal invariant families still run). The caller must have
  /// marked writes that were still in flight at the crash as indeterminate —
  /// the device may legitimately hold either version of those.
  ///
  /// The lost-write check consumes the *declared-loss* channels of the most
  /// recent power loss (Ftl::last_reverted_lpns, WriteCache::
  /// last_dropped_lpns), so it is sound for the one-fault-per-session runs
  /// the torture harness performs.
  [[nodiscard]] AuditReport audit(const ssd::Ssd& ssd, const platform::ShadowStore* shadow);

 private:
  enum class AllocSet : std::uint8_t { kFree, kActive, kSealed };
  /// How often a block appears in each allocator set (free heaps, open
  /// cursors, sealed list). A healthy block is in at most one, once. Built
  /// only for a block whose tally_ breaks that rule, and for strays.
  struct Membership {
    std::uint32_t free = 0;
    std::uint32_t active = 0;
    std::uint32_t sealed = 0;
    void add(AllocSet set) {
      switch (set) {
        case AllocSet::kFree: ++free; break;
        case AllocSet::kActive: ++active; break;
        case AllocSet::kSealed: ++sealed; break;
      }
    }
  };

  static void check_membership(AuditReport& report, ftl::BlockId block, const Membership& m,
                               std::uint32_t valid_count);
  static void check_free_pages(AuditReport& report, const nand::ChipArray& chip,
                               ftl::BlockId block, std::uint32_t free_entries);

  /// One active or sealed entry in a tally_ slot; a free-pool entry is 1.
  static constexpr std::uint64_t kTallyInUse = std::uint64_t{1} << 32;
  [[nodiscard]] static std::uint32_t free_entries(std::uint64_t tally) {
    return static_cast<std::uint32_t>(tally);
  }
  /// Whether a block breaks a membership rule: more than one allocator
  /// entry, or free while the FTL believes it holds valid pages. Bitwise,
  /// so the per-block fast pass stays branch-free.
  [[nodiscard]] static bool misfiled(std::uint64_t tally, std::uint32_t believed) {
    const std::uint32_t free = free_entries(tally);
    return (free + (tally >> 32) > 1) | ((free != 0) & (believed != 0));
  }

  /// Owners of the PPNs a reverse-map mismatch names, PPN-sorted.
  std::vector<std::pair<ftl::Ppn, ftl::Lpn>> owners_;
  std::vector<std::uint32_t> counted_;  ///< live mappings per block
  std::vector<std::uint64_t> tally_;    ///< allocator entries per block
  /// Allocator entries naming a block past the geometry (only a corrupted
  /// allocator holds one): checked like the rest, without a dense slot.
  std::vector<std::pair<ftl::BlockId, AllocSet>> strays_;
};

}  // namespace pofi::torture
