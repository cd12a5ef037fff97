#include "runner/campaign_runner.hpp"

#include <chrono>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace pofi::runner {

std::size_t CampaignRunner::add(std::string label, CampaignFn fn) {
  // Plain campaigns ignore the worker's session slot entirely (they neither
  // read nor disturb a pooled stack another entry may have left there).
  jobs_.push_back(Job{std::move(label),
                      [f = std::move(fn)](SessionSlot&) { return f(); }, false, {}});
  return jobs_.size() - 1;
}

std::size_t CampaignRunner::add(std::string label, SessionFn fn) {
  jobs_.push_back(Job{std::move(label), std::move(fn), false, {}});
  return jobs_.size() - 1;
}

std::size_t CampaignRunner::add_completed(std::string label,
                                          platform::ExperimentResult result) {
  jobs_.push_back(Job{std::move(label), nullptr, true, std::move(result)});
  return jobs_.size() - 1;
}

std::vector<CampaignRunner::Outcome> CampaignRunner::run() {
  std::vector<Job> jobs = std::move(jobs_);
  jobs_.clear();
  const std::size_t n = jobs.size();

  std::vector<Outcome> outcomes(n);
  for (std::size_t i = 0; i < n; ++i) outcomes[i].label = jobs[i].label;

  // Shared state; every access (including sink and hook calls) is under `mu`.
  std::mutex mu;
  std::deque<std::size_t> pending;
  bool cancelled = false;
  std::size_t finished = 0;
  std::uint64_t suite_data_loss = 0;

  const auto emit = [&](ProgressEvent ev) {
    ev.total = n;
    ev.finished = finished;
    ev.suite_data_loss = suite_data_loss;
    if (sink_ != nullptr) sink_->on_event(ev);
  };
  const auto call_hook = [&](std::size_t idx) {
    if (!hook_) return;
    try {
      hook_(idx, outcomes[idx]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[runner] result hook failed for \"%s\": %s\n",
                   outcomes[idx].label.c_str(), e.what());
    } catch (...) {
      std::fprintf(stderr, "[runner] result hook failed for \"%s\"\n",
                   outcomes[idx].label.c_str());
    }
  };
  const auto externally_cancelled = [&] {
    return config_.cancel != nullptr && config_.cancel->load(std::memory_order_relaxed);
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (!jobs[i].cached) pending.push_back(i);
    ProgressEvent ev;
    ev.phase = CampaignPhase::kQueued;
    ev.index = i;
    ev.label = jobs[i].label;
    emit(ev);
  }
  if (n == 0) return outcomes;

  // Checkpoint-restored entries resolve up front, before any worker starts:
  // deterministic event order, and the finished counter / suite totals count
  // them exactly as an uninterrupted run would have.
  for (std::size_t i = 0; i < n; ++i) {
    if (!jobs[i].cached) continue;
    Outcome& out = outcomes[i];
    out.status = CampaignStatus::kSkippedCached;
    out.result = std::move(jobs[i].cached_result);
    ++finished;
    suite_data_loss += out.result.total_data_loss();
    ProgressEvent ev;
    ev.phase = CampaignPhase::kFinished;
    ev.index = i;
    ev.label = out.label;
    ev.status = out.status;
    ev.faults_injected = out.result.faults_injected;
    ev.requests_submitted = out.result.requests_submitted;
    ev.data_failures = out.result.data_failures;
    ev.fwa_failures = out.result.fwa_failures;
    ev.io_errors = out.result.io_errors;
    emit(ev);
  }

  const auto worker = [&](unsigned worker_id) {
    // Per-worker utilization telemetry (wall clock; exported only through the
    // host-side runner registry, never into deterministic campaign rows).
    obs::MetricRegistry* reg = config_.metrics;
    obs::MetricId obs_busy = obs::kNoMetric;
    obs::MetricId obs_wait = obs::kNoMetric;
    obs::MetricId obs_jobs = obs::kNoMetric;
    if (reg != nullptr) {
      char name[48];
      std::snprintf(name, sizeof name, "runner.worker.%u.busy_us", worker_id);
      obs_busy = reg->counter(name);
      std::snprintf(name, sizeof name, "runner.worker.%u.wait_us", worker_id);
      obs_wait = reg->counter(name);
      obs_jobs = reg->counter("runner.jobs.completed");
    }
    auto idle_since = std::chrono::steady_clock::now();
    // The worker's session box: campaigns pool a device stack here across
    // entries (see session.hpp). Destroyed when the worker exits.
    SessionSlot session;
    for (;;) {
      std::size_t idx = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (cancelled || externally_cancelled() || pending.empty()) return;
        idx = pending.front();
        pending.pop_front();
        ProgressEvent ev;
        ev.phase = CampaignPhase::kStarted;
        ev.index = idx;
        ev.label = jobs[idx].label;
        emit(ev);
      }

      Outcome& out = outcomes[idx];
      const auto t0 = std::chrono::steady_clock::now();
      if (reg != nullptr) {
        reg->add(obs_wait, static_cast<std::uint64_t>(
                               std::chrono::duration<double, std::micro>(t0 - idle_since).count()));
      }

      // Exception firewall: a throwing entry resolves terminally and never
      // takes down the pool.
      bool ok = false;
      bool entry_cancelled = false;
      try {
        out.result = jobs[idx].fn(session);
        ok = true;
      } catch (const sim::AbortError& e) {
        out.error = e.what();
        entry_cancelled = e.reason() == sim::AbortReason::kCancelled;
      } catch (const std::exception& e) {
        out.error = e.what();
      } catch (...) {
        out.error = "unknown exception";
      }
      if (ok && out.result.audit_violations > 0) {
        // The session ran to completion but the torture auditor found
        // inconsistent recovery state.
        out.status = CampaignStatus::kAuditFailed;
        out.error = std::to_string(out.result.audit_violations) +
                    " recovery-invariant violation(s)";
      } else if (ok) {
        out.status = CampaignStatus::kOk;
      } else {
        // The throw may have left a pooled stack mid-reset or mid-run:
        // poisoned. Drop it so the worker's next entry rebuilds from nothing.
        session.reset();
        if (entry_cancelled || externally_cancelled()) {
          out.status = CampaignStatus::kCancelled;
        } else {
          // Quarantine the entry so the rest of the suite still completes
          // (fail-fast restores stop-the-world semantics).
          out.status =
              config_.fail_fast ? CampaignStatus::kFailed : CampaignStatus::kQuarantined;
        }
      }
      out.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (reg != nullptr) {
        reg->add(obs_busy, static_cast<std::uint64_t>(out.wall_seconds * 1e6));
        reg->add(obs_jobs);
      }
      idle_since = std::chrono::steady_clock::now();
      if (out.status == CampaignStatus::kOk && config_.campaign_timeout_seconds > 0.0 &&
          out.wall_seconds > config_.campaign_timeout_seconds) {
        out.status = CampaignStatus::kTimedOut;
      }

      {
        std::lock_guard<std::mutex> lock(mu);
        ++finished;
        if (is_success(out.status)) {
          suite_data_loss += out.result.total_data_loss();
        }
        ProgressEvent ev;
        ev.phase = CampaignPhase::kFinished;
        ev.index = idx;
        ev.label = out.label;
        ev.status = out.status;
        ev.faults_injected = out.result.faults_injected;
        ev.requests_submitted = out.result.requests_submitted;
        ev.data_failures = out.result.data_failures;
        ev.fwa_failures = out.result.fwa_failures;
        ev.io_errors = out.result.io_errors;
        ev.wall_seconds = out.wall_seconds;
        ev.error = out.error;
        emit(ev);
        call_hook(idx);
        if (config_.fail_fast && out.status != CampaignStatus::kOk) cancelled = true;
        if (out.status == CampaignStatus::kCancelled) cancelled = true;
      }
    }
  };

  const unsigned threads =
      static_cast<unsigned>(std::min<std::size_t>(resolved_threads(config_), n));
  if (threads <= 1) {
    // Calling-thread execution: exactly the historical sequential path.
    worker(0);
  } else {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back([&worker, t] { worker(t); });
    // jthreads join on destruction.
  }

  // Anything fail-fast/cancellation left in the queue resolves as kSkipped,
  // in order.
  for (std::size_t i = 0; i < n; ++i) {
    if (outcomes[i].status != CampaignStatus::kSkipped) continue;
    ++finished;
    ProgressEvent ev;
    ev.phase = CampaignPhase::kFinished;
    ev.index = i;
    ev.label = outcomes[i].label;
    ev.status = CampaignStatus::kSkipped;
    emit(ev);
  }
  return outcomes;
}

}  // namespace pofi::runner
