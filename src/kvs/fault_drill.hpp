// The application-level fault drill: MiniKv transactions on a cached Table I
// drive while the power supply is cut and restored, audited from the
// application's side after every recovery.
//
//   durability violations — keys the store reported committed that are gone
//                           or stale after recovery;
//   torn transactions     — PUT runs recovery found without a commit record;
//   holes                 — valid records after an invalid page (the
//                           surviving log is not a clean prefix).
//
// Swept across commit discipline (trust-the-ACK vs FLUSH barriers) and drive
// (commodity vs PLP), this is the paper's FWA result seen from the
// application (§II lists application-level operations among the parameters
// earlier testbeds left out).
#pragma once

#include <cstdint>

#include "kvs/minikv.hpp"

namespace pofi::kvs {

struct DrillResult {
  std::uint64_t committed = 0;              ///< transactions reported committed
  std::uint64_t durability_violations = 0;  ///< summed over every recovery
  std::uint64_t torn = 0;                   ///< RecoveryStats::torn, summed
  std::uint64_t holes = 0;                  ///< RecoveryStats::holes, summed
};

/// One drill: a 2 GiB preset-A drive (`plp` selects the supercap), 25 power
/// faults through the ATX bridge with a 300 ms restore, and before each fault
/// 15–34 transactions of 1–4 puts separated by 20 ms of think time.
/// Deterministic in `seed`.
[[nodiscard]] DrillResult run_fault_drill(CommitDiscipline discipline, bool plp,
                                          std::uint64_t seed);

}  // namespace pofi::kvs
