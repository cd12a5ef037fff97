// CampaignRunner: execute queued fault-injection campaigns on a fixed pool
// of worker threads, with per-entry fault tolerance.
//
// Campaigns are embarrassingly parallel — each one builds a fresh platform
// from its own seed — so the runner is a plain mutex-protected work queue in
// front of std::jthread workers. Three guarantees make parallel sweeps as
// trustworthy as sequential ones:
//
//   1. Determinism: a campaign's result depends only on its own closure
//      (drive config + spec + seed). Seeds are derived per submission index
//      (sim::derive_seed), never from execution order, so results are
//      bit-identical at any thread count.
//   2. Ordered collection: outcomes land at their submission index; callers
//      never see interleaving.
//   3. Serialized progress: every ProgressSink call happens under the runner
//      lock, with per-campaign queued < started < finished ordering and a
//      monotone finished counter.
//
// Resilience (see runner_config.hpp for the knobs):
//
//   * Exception firewall: a throwing entry never takes down the pool. It runs
//     once and is quarantined — the rest of the suite completes and the
//     quarantined entry is reported through its Outcome and the sink. A
//     retry would rerun the same pure closure and fail the same way.
//     fail_fast restores the historical stop-the-suite behaviour (kFailed).
//   * Cooperative cancellation: RunnerConfig::cancel stops workers from
//     dequeuing; a sim::AbortError(kCancelled) unwinding out of an entry
//     (the same token threaded into its simulator) resolves that entry as
//     kCancelled and stops the suite. Remaining entries become kSkipped.
//   * Checkpoint hand-off: a result hook fires under the runner lock for
//     every entry that actually ran, in completion order — the spec layer's
//     checkpoint writer appends durable JSONL records from it. Entries
//     already satisfied by a checkpoint enter via add_completed() and
//     resolve instantly as kSkippedCached, keeping submission indices and
//     suite totals identical to an uninterrupted run.
//
// Session pooling (see session.hpp): each worker thread owns one opaque
// SessionSlot, handed to every session-aware campaign it executes. A
// campaign typically resets a pooled device stack in place instead of
// rebuilding it — a pure performance optimisation; the pooling contract
// requires results to be bit-identical either way, so all three guarantees
// above survive reuse. A throwing entry drops the worker's slot, so the
// worker's next entry rebuilds from nothing.
//
// The runner is generic over *what* a campaign runs (a CampaignFn returning
// an ExperimentResult, or a SessionFn that also sees the worker's session
// slot), which keeps this layer free of TestPlatform dependencies and lets
// tests drive it with synthetic jobs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "platform/experiment.hpp"
#include "runner/progress.hpp"
#include "runner/runner_config.hpp"
#include "runner/session.hpp"

namespace pofi::runner {

class CampaignRunner {
 public:
  using CampaignFn = std::function<platform::ExperimentResult()>;
  /// Session-aware campaign: receives the calling worker's session slot (see
  /// session.hpp for the pooling contract). The slot may arrive empty or
  /// holding whatever the worker's previous campaign left behind; results
  /// must not depend on which.
  using SessionFn = std::function<platform::ExperimentResult(SessionSlot&)>;

  struct Outcome {
    std::string label;
    CampaignStatus status = CampaignStatus::kSkipped;
    /// Valid when is_success(status) (a timed-out campaign still completed;
    /// it just blew its wall-clock budget).
    platform::ExperimentResult result;
    double wall_seconds = 0.0;
    std::string error;  ///< what it threw (failed/quarantined/cancelled)
  };

  /// Observes each resolved outcome that actually *ran* this session (not
  /// kSkipped / kSkippedCached), invoked under the runner lock in completion
  /// order — implementations need no locking and must not call back into the
  /// runner. Exceptions are swallowed (a failing observer must not kill the
  /// suite); they are reported to stderr.
  using ResultHook = std::function<void(std::size_t index, const Outcome& outcome)>;

  /// `sink` may be null (no progress reporting); it must outlive run().
  explicit CampaignRunner(RunnerConfig config = {}, ProgressSink* sink = nullptr)
      : config_(config), sink_(sink) {}

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Queue one campaign; returns its submission index (== outcome position).
  std::size_t add(std::string label, CampaignFn fn);

  /// Queue one session-aware campaign (pooled device stack); same contract
  /// as add() otherwise.
  std::size_t add(std::string label, SessionFn fn);

  /// Queue one *pre-resolved* campaign (restored from a checkpoint): it is
  /// never executed, resolves as kSkippedCached with `result` verbatim, and
  /// still occupies its submission slot so indices, progress totals and
  /// suite aggregates match an uninterrupted run bit-for-bit.
  std::size_t add_completed(std::string label, platform::ExperimentResult result);

  /// Install the per-result observer (checkpoint writer). Call before run().
  void set_result_hook(ResultHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  /// Execute every queued campaign; blocks until the pool drains (or
  /// fail-fast / cancellation empties the queue). Outcomes are in submission
  /// order. run() consumes the queue: a second call runs nothing and returns
  /// empty.
  [[nodiscard]] std::vector<Outcome> run();

 private:
  struct Job {
    std::string label;
    SessionFn fn;  ///< plain CampaignFns are wrapped by add()
    bool cached = false;
    platform::ExperimentResult cached_result;
  };

  RunnerConfig config_;
  ProgressSink* sink_;
  ResultHook hook_;
  std::vector<Job> jobs_;
};

}  // namespace pofi::runner
