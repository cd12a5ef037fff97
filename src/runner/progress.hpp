// Live progress reporting for parallel campaign execution.
//
// The runner emits one ProgressEvent per campaign lifecycle transition
// (queued -> started -> finished/skipped). Events are serialized: the runner
// holds its own lock around every on_event call, so no two calls overlap and
// sink implementations need no locking of their own.
// Event order is guaranteed per campaign (queued before started before
// finished) and the `finished` counter is monotone across the whole run;
// started/finished events of *different* campaigns interleave freely under
// parallelism.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "sim/enum_names.hpp"

namespace pofi::runner {

enum class CampaignPhase : std::uint8_t { kQueued, kStarted, kFinished };

/// Terminal (and pending) states of one campaign entry — the error taxonomy
/// carried through progress events, checkpoint records, CSV comments and the
/// suite summary. is_success() below partitions it for callers.
enum class CampaignStatus : std::uint8_t {
  kPending,       ///< not finished yet (queued/started events)
  kOk,            ///< completed within budget
  kFailed,        ///< threw under fail-fast; Outcome::error holds the message
  kTimedOut,      ///< completed, but over the wall-clock budget
  kQuarantined,   ///< threw (fail-fast off); the suite continued without it
  kCancelled,     ///< stopped mid-run by cooperative cancellation
  kSkipped,       ///< never ran (fail-fast or cancellation emptied the queue)
  kSkippedCached, ///< resume: result restored from a checkpoint, not re-run
  kAuditFailed,   ///< ran to completion but a recovery invariant was violated
};

[[nodiscard]] constexpr const char* to_string(CampaignPhase p) {
  switch (p) {
    case CampaignPhase::kQueued: return "queued";
    case CampaignPhase::kStarted: return "started";
    case CampaignPhase::kFinished: return "finished";
  }
  return "?";
}

[[nodiscard]] constexpr auto enum_names(CampaignStatus) {
  return std::to_array<sim::EnumName<CampaignStatus>>({
      {CampaignStatus::kPending, "pending"},
      {CampaignStatus::kOk, "ok"},
      {CampaignStatus::kFailed, "failed"},
      {CampaignStatus::kTimedOut, "timed-out"},
      {CampaignStatus::kQuarantined, "quarantined"},
      {CampaignStatus::kCancelled, "cancelled"},
      {CampaignStatus::kSkipped, "skipped"},
      {CampaignStatus::kSkippedCached, "skipped-cached"},
      {CampaignStatus::kAuditFailed, "audit-failed"},
  });
}
[[nodiscard]] constexpr const char* to_string(CampaignStatus s) { return sim::enum_name(s); }

/// Parse a to_string(CampaignStatus) form back; returns false on unknown
/// names (checkpoint files from other builds degrade gracefully).
[[nodiscard]] constexpr bool status_from_string(std::string_view name, CampaignStatus& out) {
  return sim::enum_from_name(name, out);
}

/// States whose ExperimentResult is complete and trustworthy. kTimedOut
/// counts: the campaign finished, it just blew its wall-clock budget.
/// kAuditFailed does not: the result is a bug report, not a measurement —
/// keeping it out of is_success() also keeps it out of resume checkpoint
/// reuse, so a fixed build re-runs previously-failing entries.
[[nodiscard]] constexpr bool is_success(CampaignStatus s) {
  return s == CampaignStatus::kOk || s == CampaignStatus::kTimedOut ||
         s == CampaignStatus::kSkippedCached;
}

struct ProgressEvent {
  CampaignPhase phase = CampaignPhase::kQueued;
  std::size_t index = 0;  ///< submission index (== position in the results)
  std::string label;
  CampaignStatus status = CampaignStatus::kPending;  ///< set on kFinished

  // Per-campaign aggregates, populated on kFinished when the campaign ran.
  std::uint32_t faults_injected = 0;
  std::uint64_t requests_submitted = 0;
  std::uint64_t data_failures = 0;
  std::uint64_t fwa_failures = 0;
  std::uint64_t io_errors = 0;
  double wall_seconds = 0.0;
  std::string error;  ///< kFailed/kQuarantined/kCancelled: what it threw

  // Suite-level running totals at the instant of the event.
  std::size_t finished = 0;           ///< campaigns finished so far
  std::size_t total = 0;              ///< campaigns in the run
  std::uint64_t suite_data_loss = 0;  ///< data failures + FWAs so far
};

/// Receives serialized lifecycle events; implementations never see
/// concurrent calls (the runner locks around each one).
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void on_event(const ProgressEvent& event) = 0;
};

/// Human-oriented one-line-per-event reporter. Quiet by default: only
/// started/finished lines; `verbose` adds the queued burst.
class ConsoleProgress final : public ProgressSink {
 public:
  explicit ConsoleProgress(std::FILE* out = stderr, bool verbose = false)
      : out_(out), verbose_(verbose) {}
  void on_event(const ProgressEvent& event) override;

 private:
  std::FILE* out_;
  bool verbose_;
};

/// Machine-readable reporter: one JSON object per line (JSONL), schema
/// documented in README.md ("Parallel execution"). Every event phase is
/// emitted, including the initial queued burst. Each record is rendered
/// into a buffer and handed to the stream as a single write, then flushed —
/// a run killed mid-event can leave at most one truncated final line, never
/// an interleaved one, so checkpoint/JSONL consumers stay parseable.
class JsonlProgress final : public ProgressSink {
 public:
  explicit JsonlProgress(std::ostream& out) : out_(out) {}
  void on_event(const ProgressEvent& event) override;

 private:
  std::ostream& out_;
};

/// Escape a string for embedding in a JSON value (exposed for tests).
[[nodiscard]] std::string json_escape(const std::string& s);

/// Render one progress event as its JSONL record (no trailing newline is
/// *included* — the sink appends it; exposed for tests and the checkpoint
/// writer).
[[nodiscard]] std::string to_jsonl(const ProgressEvent& event);

}  // namespace pofi::runner
