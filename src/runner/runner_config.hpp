// Execution policy for a CampaignRunner.
//
// The runner never preempts a campaign from the outside (a TestPlatform::run
// is an opaque, single-threaded simulation), so two budgets exist:
//
//   * campaign_timeout_seconds is a *post-hoc* budget: a campaign that
//     finishes over it is flagged kTimedOut after the fact (its result is
//     still valid) and, under fail-fast, cancels everything still queued.
//   * genuinely stuck campaigns are stopped *cooperatively*: thread a
//     sim::Simulator step limit or cancel token into the campaign (the spec
//     layer wires platform.max_sim_events and the suite cancel flag); the
//     simulator then throws sim::AbortError between events, which the runner
//     treats as a failed entry (step limit) or a suite stop (cancel).
//
// Each entry runs once. A failed entry — a throw or a step-limit abort — is
// quarantined (fail_fast off) so the rest of the suite still completes, or
// fails the suite (fail_fast on). Every entry is a pure function of its spec
// and seed, so running it again would only fail the same way; an interrupted
// suite is completed with --checkpoint/--resume instead.
#pragma once

#include <atomic>
#include <thread>

#include "obs/fwd.hpp"

namespace pofi::runner {

struct RunnerConfig {
  /// Worker threads. 0 = one per hardware thread; 1 = run on the calling
  /// thread (sequential, no pool).
  unsigned threads = 1;

  /// Stop scheduling queued campaigns after the first one that does not
  /// finish kOk (exception or blown timeout budget). Campaigns already
  /// running on other workers complete normally; queued ones become kSkipped.
  bool fail_fast = false;

  /// Wall-clock budget per campaign in seconds; <= 0 disables the check.
  double campaign_timeout_seconds = 0.0;

  /// Cooperative suite cancellation (may be flipped by a signal handler or a
  /// supervisor thread): when it reads true, workers stop dequeuing and the
  /// rest of the queue resolves kSkipped. Wire the same token into each
  /// campaign's simulator to also stop entries already in flight. Not part of
  /// the spec codec — runtime wiring only.
  const std::atomic<bool>* cancel = nullptr;

  /// Host-side telemetry registry (runner.worker.N.busy_us / wait_us,
  /// runner.jobs.*). Wall-clock times — never exported into campaign rows,
  /// so determinism is unaffected. Must outlive run(). Runtime wiring only,
  /// like `cancel`; the registry is thread-safe for counter increments.
  obs::MetricRegistry* metrics = nullptr;
};

/// Threads the config resolves to on this machine (never 0).
[[nodiscard]] inline unsigned resolved_threads(const RunnerConfig& config) {
  if (config.threads != 0) return config.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace pofi::runner
