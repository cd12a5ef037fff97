// The simulation executor: a virtual clock plus the event queue.
//
// Components hold a Simulator& and schedule work with `after()` /`at()`.
// `run_until` / `run_for` / `run_all` drive the experiment. The executor is
// strictly single-threaded; "threads" in the paper's software part (fault
// scheduler vs IO generator) become interleaved event streams, which keeps
// every run deterministic.
//
// Two cooperative abort channels protect long campaigns from pathological
// configs and let an external supervisor (the campaign runner, a signal
// handler) stop a simulation without killing the process:
//
//   * step budget  — set_step_limit(n): the run loops throw AbortError
//     (kStepLimit) once the lifetime event count exceeds n. Deterministic:
//     the same campaign aborts at the same event at any thread count.
//   * cancel token — set_cancel_token(flag): a shared atomic polled between
//     events; when another thread sets it, the run loops throw AbortError
//     (kCancelled) at the next event boundary.
//
// Both throw *between* callbacks, never inside one, so component state is
// always at an event boundary when the exception unwinds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/state_image.hpp"
#include "sim/time.hpp"

namespace pofi::obs {
class MetricRegistry;
}  // namespace pofi::obs

namespace pofi::sim {

/// Why a simulation was aborted between event callbacks.
enum class AbortReason : std::uint8_t {
  kStepLimit,  ///< lifetime event count exceeded the configured budget
  kCancelled,  ///< the cancel token was set by a supervisor
};

[[nodiscard]] constexpr const char* to_string(AbortReason r) {
  switch (r) {
    case AbortReason::kStepLimit: return "step-limit";
    case AbortReason::kCancelled: return "cancelled";
  }
  return "?";
}

/// Thrown by the run loops when the step budget is exhausted or the cancel
/// token fires. Carries the reason so supervisors can tell a stuck campaign
/// (quarantine it) from an operator interrupt (stop the suite).
class AbortError : public std::runtime_error {
 public:
  AbortError(AbortReason reason, const std::string& message)
      : std::runtime_error(message), reason_(reason) {}
  [[nodiscard]] AbortReason reason() const { return reason_; }

 private:
  AbortReason reason_;
};

/// Crash-point hook for systematic exploration (src/torture/). When a probe
/// is attached, the run loops consult it once per event — *before* popping —
/// and stop cleanly (no throw, event still queued) when it returns true. The
/// torture explorer uses this to halt the simulation at an exact event-queue
/// boundary and inject a power fault there. Like the obs attachment, a
/// detached probe (nullptr, the default) costs one pointer compare per event
/// and cannot alter the schedule.
class BoundaryProbe {
 public:
  virtual ~BoundaryProbe() = default;
  /// `events_fired` is the lifetime count *before* the pending event runs;
  /// return true to stop the run loop at this boundary.
  virtual bool on_boundary(std::uint64_t events_fired) = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : master_rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule at an absolute instant. Scheduling in the past is clamped to
  /// `now` (fires next, preserving order with other now-events).
  EventId at(TimePoint t, EventQueue::Callback cb) {
    if (t < now_) t = now_;
    return queue_.schedule_at(t, std::move(cb));
  }

  /// Schedule `d` after the current instant.
  EventId after(Duration d, EventQueue::Callback cb) {
    if (d.is_negative()) d = Duration::zero();
    return queue_.schedule_at(now_ + d, std::move(cb));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run events with time <= deadline. Returns number of events fired.
  std::uint64_t run_until(TimePoint deadline);

  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Run to quiescence (no pending events). `max_events` guards against
  /// self-perpetuating chains; 0 means unbounded.
  std::uint64_t run_all(std::uint64_t max_events = 0);

  /// Fire events one at a time while `pred()` holds, stopping early when
  /// the queue runs dry, a boundary probe halts the run, or `max_events`
  /// have fired (0 means unbounded). `pred` is checked before each event.
  /// Returns the number of events fired.
  template <typename Pred>
  std::uint64_t run_while(Pred&& pred, std::uint64_t max_events = 0) {
    std::uint64_t fired = 0;
    while ((max_events == 0 || fired < max_events) && pred() && run_all(1) == 1) ++fired;
    return fired;
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }

  /// Whether a scheduled event is still pending (not fired, not cancelled).
  [[nodiscard]] bool event_pending(EventId id) const { return queue_.pending(id); }
  /// Scheduled time of a pending event; TimePoint::max() otherwise.
  [[nodiscard]] TimePoint event_time(EventId id) const { return queue_.time_of(id); }

  /// Capture the simulator's copyable state at a quiescent boundary. The
  /// queue itself is NOT captured (its callbacks are non-copyable); callers
  /// record each still-armed timer as a TimerImage and re-arm on restore.
  void snapshot(SimulatorImage& out) const {
    out.now = now_;
    out.events_fired = events_fired_;
    out.rng_state = master_rng_.state();
  }

  /// Restore to a captured quiescent boundary: clock, lifetime event count
  /// and master RNG rewind; every pending event is dropped (the caller
  /// re-arms the captured timers). Step limit, cancel token, metrics and
  /// probe attachments are left alone, like reset().
  void restore(const SimulatorImage& image) {
    queue_.clear();
    now_ = image.now;
    events_fired_ = image.events_fired;
    master_rng_.set_state(image.rng_state);
  }

  /// Lifetime event budget: once events_fired() exceeds `max_events`, the run
  /// loops throw AbortError(kStepLimit) at the next event boundary. 0 (the
  /// default) disables the check. The budget is in simulation events, so it
  /// trips at the same point of the same campaign on every machine.
  void set_step_limit(std::uint64_t max_events) { step_limit_ = max_events; }
  [[nodiscard]] std::uint64_t step_limit() const { return step_limit_; }

  /// Cooperative cancellation: `token` (owned by the caller, may be shared by
  /// a supervisor thread or a signal handler) is polled between events; when
  /// it reads true the run loops throw AbortError(kCancelled). nullptr (the
  /// default) disables the check.
  void set_cancel_token(const std::atomic<bool>* token) { cancel_ = token; }

  /// Session reset: drain every pending event, rewind the clock and reseed
  /// the master RNG, keeping the queue's slot arena (and its capacity) so a
  /// pooled simulator re-runs without allocating. Event sequence numbers keep
  /// counting across resets — only their relative order matters for
  /// tie-breaks, so the schedule is bit-identical to a fresh simulator.
  /// The step limit, cancel token and metrics attachment are deliberately
  /// left alone; owners re-apply them as part of their own reset.
  void reset(std::uint64_t seed) {
    queue_.clear();
    now_ = TimePoint::zero();
    events_fired_ = 0;
    master_rng_.reseed(seed);
  }

  /// Master RNG: fork children from it, one per component.
  [[nodiscard]] Rng& rng() { return master_rng_; }
  [[nodiscard]] Rng fork_rng(std::string_view label) const { return master_rng_.fork(label); }

  /// Observability attachment point. Components register their Stats
  /// counters with it at construction and push gauges, histograms, series
  /// and spans through
  ///   if (auto* m = sim.metrics()) m->set(id, value);
  /// Attaching a registry is the enable. Instrumentation must only read sim
  /// state — never schedule events or draw randomness — so behaviour is
  /// identical with and without one.
  void set_metrics(obs::MetricRegistry* registry) { metrics_ = registry; }

  /// Crash-point attachment (see BoundaryProbe). reset() leaves it alone,
  /// like the metrics registry: the owner manages the probe's lifetime.
  void set_boundary_probe(BoundaryProbe* probe) { probe_ = probe; }
  [[nodiscard]] BoundaryProbe* boundary_probe() const { return probe_; }

  [[nodiscard]] obs::MetricRegistry* metrics() const { return metrics_; }

 private:
  /// Throws AbortError when the step budget is spent or the cancel token is
  /// set; called once per event, before the callback fires.
  void check_abort() const;

  TimePoint now_ = TimePoint::zero();
  EventQueue queue_;
  Rng master_rng_;
  std::uint64_t events_fired_ = 0;
  std::uint64_t step_limit_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  BoundaryProbe* probe_ = nullptr;
};

}  // namespace pofi::sim
