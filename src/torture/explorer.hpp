// Systematic crash-point exploration with checkpointed fan-out and repro
// shrinking.
//
// explore() is the torture subsystem's entry point. It measures the golden
// schedule once (B event boundaries from mount to quiescence), plans the
// injection lattice {window_first + i*stride | i < window_count} ∩ [0, B),
// and fans the points out across runner::CampaignRunner in deterministic
// seed-sharded groups: each shard is one session-pooled campaign entry that
// crashes, remounts and audits `shard_points` consecutive lattice points.
// Shards run through spec::run_resumable, the campaign path's resume core,
// and checkpoint under the torture spec's content hash, so a killed
// exploration resumes; shards that found violations are deliberately never
// checkpointed (kAuditFailed is not a success) and re-run on resume,
// repopulating the findings.
//
// When violations surface and cfg.shrink is set, the explorer minimises the
// failing schedule — binary search for the smallest workload prefix that
// still violates, then the earliest failing boundary within it — and emits a
// minimal self-contained repro spec (ExploreReport::repro) whose workload
// section replays the recorded request prefix verbatim.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/campaign_runner.hpp"
#include "spec/campaign.hpp"
#include "torture/auditor.hpp"
#include "torture/torture_spec.hpp"

namespace pofi::torture {

struct TortureFinding {
  std::uint64_t boundary = 0;  ///< injection point that produced the report
  AuditReport report;
};

struct ExploreReport {
  std::uint64_t schedule_events = 0;  ///< B: boundaries in the golden schedule
  std::uint64_t points_planned = 0;
  std::uint64_t points_explored = 0;  ///< includes checkpoint-restored shards
  std::uint64_t points_injected = 0;
  std::uint64_t total_violations = 0;
  /// Sorted by boundary — identical at any thread count.
  std::vector<TortureFinding> findings;

  // Shrinking (populated when findings were made and cfg.shrink is set).
  bool shrunk = false;
  std::uint64_t repro_requests = 0;  ///< minimal workload prefix length
  std::uint64_t repro_boundary = 0;  ///< earliest failing boundary within it
  /// Minimal self-contained torture spec (loadable via load_torture) that
  /// deterministically reproduces the first violation.
  spec::Value repro;

  /// Per-shard runner outcomes, submission order.
  std::vector<runner::CampaignRunner::Outcome> outcomes;

  [[nodiscard]] bool ok() const { return total_violations == 0; }
};

/// Run one exploration: one spec::run_resumable job per shard, keyed by
/// torture_hash(cfg), the shard index and cfg.seed. Throws spec::Error on
/// checkpoint IO problems and std::runtime_error on a wedged schedule; audit
/// violations are *data* (reported, shrunk), never exceptions.
[[nodiscard]] ExploreReport explore(const TortureConfig& cfg,
                                    const spec::RunOptions& options = {});

}  // namespace pofi::torture
