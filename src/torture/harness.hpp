// CrashHarness: one deterministic crash-point experiment on a TestPlatform.
//
// The harness replaces the platform's own campaign loop with a schedule whose
// injection point is an exact *event-queue boundary* rather than a sampled
// time offset. Each run replays the identical prefix — power-up, mount, a
// fixed open-loop stream of `requests` workload requests, all RNG streams
// forked under fixed labels from the platform seed — so the k-th event
// boundary after the mount baseline names the same machine state in every
// run, at any thread count. A CountdownProbe stops the simulator exactly
// there; the harness then injects the configured power fault, rides the rail
// down, dwells, remounts through the normal POR path and hands the recovered
// device to the InvariantAuditor.
//
// The harness owns the host's side channels during the run: it allocates
// shadow-store tags per write, commits them on ACK, and marks anything still
// in flight at the crash as indeterminate (the device may legitimately hold
// either version), which is exactly the precondition the auditor's
// lost-ACKed-write check needs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <unordered_map>
#include <vector>

#include "platform/test_platform.hpp"
#include "sim/simulator.hpp"
#include "torture/auditor.hpp"
#include "torture/torture_spec.hpp"
#include "workload/workload.hpp"

namespace pofi::torture {

/// Stops the run loops at the first boundary where the lifetime event count
/// reaches `target` (see sim::BoundaryProbe). Reusable for passive counting
/// by setting an unreachable target.
class CountdownProbe final : public sim::BoundaryProbe {
 public:
  explicit CountdownProbe(std::uint64_t target) : target_(target) {}
  bool on_boundary(std::uint64_t events_fired) override {
    ++consulted_;
    if (events_fired >= target_) {
      tripped_ = true;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool tripped() const { return tripped_; }
  [[nodiscard]] std::uint64_t consulted() const { return consulted_; }

 private:
  std::uint64_t target_;
  std::uint64_t consulted_ = 0;
  bool tripped_ = false;
};

struct CrashOutcome {
  std::uint64_t boundary = 0;  ///< injection point, events past the baseline
  bool injected = false;       ///< probe tripped (false: schedule quiesced first)
  AuditReport report;
};

/// One quiescent-boundary checkpoint of the pilot run: the harness's own
/// cursor plus the whole device-stack image. Sized to be pooled — restoring
/// into warm containers copies without allocating.
struct HarnessSnapshot {
  std::uint64_t boundary = 0;  ///< events past the baseline at capture
  std::uint64_t base = 0;      ///< absolute events_fired at the baseline
  std::uint64_t submitted = 0;
  std::uint64_t next_key = 1;
  std::array<std::uint64_t, 4> pace_rng{};
  workload::WorkloadGenerator::StateImage gen;
  sim::TimerImage pump;
  platform::TestPlatform::StateImage platform;
};

/// Pilot artifacts shared by every crash point of a sweep: the schedule
/// length B, the full golden request stream (prefix source for restored
/// runs), and checkpoints every ~snapshot_interval events. The pilot fires
/// exactly the events measure_schedule() would — captures are pure reads —
/// so B and the recording are byte-identical to the full-replay path.
struct SchedulePilot {
  std::uint64_t schedule_events = 0;
  std::vector<workload::RequestSpec> recording;
  std::vector<HarnessSnapshot> snapshots;  ///< ascending by boundary

  /// Latest checkpoint at or before `boundary`; nullptr when none exists
  /// (caller falls back to a full replay).
  [[nodiscard]] const HarnessSnapshot* nearest_at_or_before(std::uint64_t boundary) const {
    const auto after = std::upper_bound(
        snapshots.begin(), snapshots.end(), boundary,
        [](std::uint64_t k, const HarnessSnapshot& s) { return k < s.boundary; });
    return after == snapshots.begin() ? nullptr : &*std::prev(after);
  }
};

class CrashHarness {
 public:
  /// `cfg` must outlive the harness (the explorer owns both).
  explicit CrashHarness(const TortureConfig& cfg) : cfg_(cfg) {}

  CrashHarness(const CrashHarness&) = delete;
  CrashHarness& operator=(const CrashHarness&) = delete;

  /// Golden run, no injection: execute the full schedule to quiescence
  /// (all requests submitted and completed, cache drained) plus a journal
  /// margin, and return the boundary count B. Every k in [0, B) is a
  /// meaningful injection point. `tp` must be freshly acquired/reset for
  /// this config and seed.
  std::uint64_t measure_schedule(platform::TestPlatform& tp);

  /// Crash run: replay the schedule, stop at boundary `k`, inject the fault,
  /// remount, audit. Same platform precondition as measure_schedule; the
  /// platform must be reset before it is stepped again (self-perpetuating
  /// harness events may still be queued).
  CrashOutcome run_crash_point(platform::TestPlatform& tp, std::uint64_t boundary);

  /// Golden run that additionally records a device-state checkpoint at every
  /// quiescent boundary at least `snapshot_interval` events past the previous
  /// one (plus one at the drained tail). Returns the schedule length B —
  /// identical to measure_schedule(), as captures never perturb the run.
  std::uint64_t run_pilot(platform::TestPlatform& tp, SchedulePilot& out,
                          std::uint64_t snapshot_interval);

  /// Crash run seeded from a pilot checkpoint: restore `snap` onto `tp`
  /// (which may be dirty from a previous crash run — no reset needed),
  /// replay only the residual window up to `boundary`, then inject, remount
  /// and audit exactly like run_crash_point. Precondition:
  /// snap.boundary <= boundary and `tp` compatible with this config.
  CrashOutcome run_crash_point_from(platform::TestPlatform& tp, const SchedulePilot& pilot,
                                    const HarnessSnapshot& snap, std::uint64_t boundary);

  /// Requests actually submitted during the most recent run, in submission
  /// order — the workload prefix a shrunk repro replays verbatim.
  [[nodiscard]] const std::vector<workload::RequestSpec>& recorded_requests() const {
    return recorded_;
  }

 private:
  struct PendingWrite {
    ftl::Lpn lpn = 0;
    std::vector<std::uint64_t> tags;
  };

  /// Power up (if needed), run to mount, install the torture fault, set the
  /// event baseline and schedule the first submission.
  void begin_run(platform::TestPlatform& tp);
  void pump();
  void submit(const workload::RequestSpec& spec);
  void on_write_done(std::uint64_t key, blk::IoStatus status);
  [[nodiscard]] bool drained() const;
  /// Whole-stack quiescence census: platform quiescent, no unsettled writes,
  /// and the simulator holds exactly the armed re-armable timers (pump,
  /// journal tick, cache wake) — i.e. nothing uncapturable is in flight.
  [[nodiscard]] bool quiescent_for_snapshot() const;
  void capture(HarnessSnapshot& snap) const;
  void restore_from(platform::TestPlatform& tp, const SchedulePilot& pilot,
                    const HarnessSnapshot& snap);
  /// Shared tail of both crash paths: probe to `boundary`, inject, ride the
  /// rail down, dwell, remount, mark unsettled writes indeterminate, audit.
  /// The approach checks drain on kScheduleChunk edges like the golden run,
  /// so both paths stop at the same boundaries. The rail-down and remount
  /// waits step per event: nothing after the cut defines the schedule, and
  /// at ready() POR has flushed the map, so the run ends at the remount.
  CrashOutcome finish_crash_point(std::uint64_t boundary);
  /// Step `chunk` events at a time until `stop` holds; throws if the sim
  /// goes idle or the event budget blows first (a wedged schedule, not a
  /// finding). `stop` is checked only between chunks. The mount and the
  /// golden drain pass kScheduleChunk, whose edges fix the schedule length
  /// B; the post-fault waits pass 1.
  template <class Pred>
  void run_sim_until(Pred stop, std::uint64_t chunk, const char* what);

  const TortureConfig& cfg_;

  // Per-run state (reset by begin_run).
  platform::TestPlatform* tp_ = nullptr;
  std::optional<workload::WorkloadGenerator> gen_;
  sim::Rng pace_rng_;
  std::uint64_t base_ = 0;       ///< events_fired at the post-mount baseline
  std::uint64_t submitted_ = 0;
  std::uint64_t next_key_ = 1;
  bool halted_ = false;          ///< crash reached: no further submissions
  sim::EventId pump_event_{};    ///< armed inter-arrival timer (census/capture)
  sim::TimerRearmer rearm_;      ///< pooled across restores
  InvariantAuditor auditor_;     ///< scratch pooled across crash points
  std::unordered_map<std::uint64_t, PendingWrite> outstanding_;
  std::vector<workload::RequestSpec> recorded_;
};

}  // namespace pofi::torture
