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
//     treats as a failed attempt (step limit) or a suite stop (cancel).
//
// Failed attempts — throws and step-limit aborts — are retried up to
// retry_limit times with exponential backoff and deterministic jitter; an
// entry that exhausts its budget is quarantined (fail_fast off) so the rest
// of the suite still completes, or fails the suite (fail_fast on).
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>

#include "obs/fwd.hpp"
#include "sim/rng.hpp"

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

  /// Extra attempts after the first for an entry that throws (or trips its
  /// simulator step budget). 0 = never retry (historical behaviour).
  std::uint32_t retry_limit = 0;

  /// Base backoff before the first retry, in wall milliseconds; doubles per
  /// retry up to retry_backoff_max_ms. <= 0 retries immediately.
  double retry_backoff_ms = 0.0;

  /// Cap on the exponential backoff, in milliseconds.
  double retry_backoff_max_ms = 10'000.0;

  /// Seed of the deterministic jitter stream (sim::derive_seed over entry
  /// index and attempt): schedules are reproducible at any thread count.
  std::uint64_t retry_jitter_seed = 42;

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

/// Backoff before retry `attempt` (1-based) of entry `entry_index`, in wall
/// milliseconds: exponential base doubling capped at retry_backoff_max_ms,
/// scaled by a deterministic jitter factor in [0.5, 1.0) so simultaneous
/// retries decorrelate without breaking reproducibility. Pure function of
/// (config, entry_index, attempt) — identical at any thread count.
[[nodiscard]] inline double backoff_delay_ms(const RunnerConfig& config,
                                             std::size_t entry_index,
                                             std::uint32_t attempt) {
  if (config.retry_backoff_ms <= 0.0 || attempt == 0) return 0.0;
  const double base =
      std::min(std::ldexp(config.retry_backoff_ms, static_cast<int>(
                              std::min<std::uint32_t>(attempt, 53) - 1)),
               config.retry_backoff_max_ms);
  const std::uint64_t raw =
      sim::derive_seed(sim::derive_seed(config.retry_jitter_seed, entry_index), attempt);
  const double jitter = static_cast<double>(raw >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (0.5 + 0.5 * jitter);
}

}  // namespace pofi::runner
