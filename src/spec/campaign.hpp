// CampaignSpec: the declarative IR between a JSON campaign file and the
// runner.
//
// A campaign document has the shape
//
//   {
//     "name": "fig7-request-size",
//     "seed": 42,                  // master seed for derived per-entry seeds
//     "units": 1,                  // statistically independent copies
//     "runner": {"threads": 0},
//     "platform": { ... },         // platform::PlatformConfig overrides
//     "drive": {"preset": "A", "capacity_gb": 16},
//     "experiment": { ... },       // platform::ExperimentSpec overrides
//     "sweep": {"experiment.workload.max_pages": [1, 4, 32]},
//     "entries": [ {"experiment": { ... }}, ... ]
//   }
//
// Exactly one of "sweep"/"entries" may appear (neither = one entry).
// Expansion happens on the raw JSON: each sweep combination (cartesian
// product, file-order axes, first axis outermost) or entry overlay
// (deep-merged) produces a complete {platform, drive, experiment} document,
// which is then parsed through the strict codecs. Because merging precedes
// parsing, any key — preset choice included — can be swept.
//
// Seed policy (the anti-footgun rule): an entry whose merged document spells
// out "experiment.seed" keeps it verbatim; every other entry gets
// sim::derive_seed(master_seed, flat_index), so omitting seeds yields
// independent campaigns, never N copies of seed 42.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/fwd.hpp"
#include "platform/experiment.hpp"
#include "platform/test_platform.hpp"
#include "runner/campaign_runner.hpp"
#include "spec/value.hpp"
#include "ssd/ssd.hpp"
#include "stats/csv.hpp"

namespace pofi::spec {

/// One fully resolved experiment: everything TestPlatform needs.
struct CampaignEntry {
  std::string label;  ///< summary-table row name (defaults to experiment.name)
  platform::ExperimentSpec experiment;  ///< seed already resolved
  ssd::SsdConfig drive;
  platform::PlatformConfig platform;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::uint64_t master_seed = 42;
  std::uint32_t units = 1;
  runner::RunnerConfig runner;
  /// The source document (after any --set overrides) and its canonical
  /// FNV-1a content hash — the provenance stamp for every result artifact.
  /// The hash excludes the "runner" section: execution config does not change
  /// results (bit-identical at any thread count), so it must not change the
  /// stamp either.
  Value document;
  std::uint64_t hash = 0;
  std::vector<CampaignEntry> entries;
};

/// Validate and expand a campaign document. Throws spec::Error naming the
/// offending key and line on any problem.
[[nodiscard]] CampaignSpec load_campaign(const Value& doc);
[[nodiscard]] CampaignSpec load_campaign_file(const std::string& path);

/// What the resume splice actually did with the checkpoint file. A corrupted
/// or stale checkpoint must not masquerade as a clean resume: callers surface
/// the dropped-line/dropped-record counts (pofi_run prints a warning line,
/// and the counts land on the runner metrics registry when one is attached).
struct ResumeStats {
  std::size_t records_loaded = 0;    ///< parseable records in the file
  std::size_t records_reused = 0;    ///< spliced back in as skipped-cached
  std::size_t malformed_lines = 0;   ///< unparseable lines dropped on load
  bool truncated_tail = false;       ///< the malformed line was the last one
  /// Parseable records ignored because they no longer match this spec
  /// (hash/index/seed mismatch) or carry a non-success status.
  std::size_t stale_records = 0;
};

/// Execution options for the resilient run_campaign overload.
struct RunCampaignOptions {
  runner::ProgressSink* sink = nullptr;
  /// JSONL checkpoint file (see spec/checkpoint.hpp). Empty disables
  /// checkpointing; otherwise every successfully finished entry is appended.
  std::string checkpoint_path;
  /// Load `checkpoint_path` first and splice every matching successful
  /// record back in as a skipped-cached entry instead of re-running it.
  /// Records are matched by (content hash, entry index, seed); stale records
  /// from an edited spec are ignored.
  bool resume = false;
  /// Cooperative cancellation token (signal handler, watchdog). Threaded
  /// into the runner *and* every entry's simulator.
  const std::atomic<bool>* cancel = nullptr;
  /// Force per-entry telemetry (platform.metrics = true) for every entry
  /// regardless of the spec — the --metrics export path. Campaign rows stay
  /// bit-identical either way; only ExperimentResult::metrics fills in.
  bool collect_metrics = false;
  /// Optional host-side registry for runner telemetry (per-worker busy/wait
  /// time, jobs completed). Wall-clock; kept out of campaign results.
  obs::MetricRegistry* runner_metrics = nullptr;
  /// When non-null and resume is set, filled with what the splice found in
  /// the checkpoint file (reused / malformed / stale counts).
  ResumeStats* resume_stats = nullptr;
};

/// Execute every entry on runner::CampaignRunner per spec.runner. Outcomes
/// come back in entry order, bit-identical at any thread count.
[[nodiscard]] std::vector<runner::CampaignRunner::Outcome> run_campaign(
    const CampaignSpec& spec, runner::ProgressSink* sink = nullptr);

/// Resilient variant: checkpoint/resume + cancellation. With both a
/// checkpoint path and resume set, the merged outcome sequence is
/// bit-identical to an uninterrupted run of the same spec.
[[nodiscard]] std::vector<runner::CampaignRunner::Outcome> run_campaign(
    const CampaignSpec& spec, const RunCampaignOptions& options);

/// One finished entry: the summary-table row name, its result and how it
/// was obtained (fresh, over budget, restored from a checkpoint).
struct CampaignRow {
  std::string label;
  platform::ExperimentResult result;
  runner::CampaignStatus status = runner::CampaignStatus::kOk;
};

/// Fold outcomes into rows in entry order: every success (ok, timed-out,
/// restored from a checkpoint) becomes a row; an entry that never finished
/// (skipped, cancelled, pending) has none. Throws std::runtime_error on the
/// first failed, audit-failed or quarantined entry — a sweep with silently
/// missing points is worse than no sweep.
[[nodiscard]] std::vector<CampaignRow> campaign_rows(
    std::vector<runner::CampaignRunner::Outcome> outcomes);

/// run_campaign + campaign_rows.
[[nodiscard]] std::vector<CampaignRow> run_campaign_rows(
    const CampaignSpec& spec, runner::ProgressSink* sink = nullptr);

/// Render rows as an aligned comparison table: one row per entry, with the
/// entry label (which carries the figure's x value) first.
[[nodiscard]] std::string summary_table(const std::vector<CampaignRow>& rows);

/// The same columns as summary_table, one CSV row per entry at full
/// precision, stamped with the campaign's content hash, the build and the
/// ok / timed-out / restored entry counts.
[[nodiscard]] stats::CsvWriter summary_csv(const std::vector<CampaignRow>& rows,
                                           const CampaignSpec& campaign);

}  // namespace pofi::spec
