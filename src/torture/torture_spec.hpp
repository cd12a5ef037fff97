// Torture spec: the JSON schema for systematic crash-point exploration.
//
// A torture document reuses the campaign codec's building blocks (drive /
// platform / workload / runner sections) and adds a "torture" section
// describing the injection-point lattice: how many workload requests to
// submit, which event-boundary window to sweep, how points shard across
// runner workers, and whether to shrink failures into minimal repro specs.
// Like campaign specs, the content hash excludes the "runner" section —
// execution shape never changes what a crash point produces.
#pragma once

#include <cstdint>
#include <string>

#include "platform/test_platform.hpp"
#include "runner/runner_config.hpp"
#include "spec/value.hpp"
#include "ssd/presets.hpp"
#include "workload/workload.hpp"

namespace pofi::torture {

/// How the power fault is delivered at a tripped boundary.
enum class Injection : std::uint8_t {
  kImmediateCut,  ///< rail starts discharging at the exact event boundary
  kCommandOff,    ///< realistic path: Off command through the Arduino bridge
};

[[nodiscard]] constexpr const char* to_string(Injection i) {
  return i == Injection::kImmediateCut ? "immediate" : "command";
}

struct TortureConfig {
  std::string name = "torture";
  std::uint64_t seed = 1;
  ssd::SsdConfig drive;
  platform::PlatformConfig platform;
  workload::WorkloadConfig workload;

  // --- "torture" section ----------------------------------------------------
  /// Workload prefix: requests submitted before (and only before) the crash.
  std::uint64_t requests = 64;
  /// Open-loop submission pace for the torture IO chain.
  double pace_iops = 2000.0;
  /// First event-boundary offset (relative to the post-mount baseline).
  std::uint64_t window_first = 0;
  /// Number of injection points; 0 sweeps every boundary to quiescence.
  std::uint64_t window_count = 0;
  /// Boundary stride between consecutive injection points.
  std::uint64_t stride = 1;
  /// Injection points per runner shard (one pooled session per shard).
  std::uint64_t shard_points = 16;
  Injection injection = Injection::kImmediateCut;
  /// Install Ftl::TortureFault::kSkipLastJournalRecord before the crash —
  /// the deliberately broken recovery path the auditor must catch (self-test
  /// and CI exit-code coverage).
  bool break_recovery = false;
  /// Shrink the first failing schedule (binary search over workload prefix,
  /// then re-locate the earliest failing boundary) and emit a repro spec.
  bool shrink = true;
  /// Pilot checkpoint cadence: capture a device-state snapshot at the first
  /// quiescent boundary at least this many events past the previous capture.
  /// Pure wall-clock knob — excluded from torture_hash, verdicts identical
  /// at any value.
  std::uint64_t snapshot_interval = 256;

  runner::RunnerConfig runner;
};

/// Validate and expand a torture document. Unknown keys are hard errors,
/// matching the campaign codec's conventions. Throws spec::Error.
[[nodiscard]] TortureConfig load_torture(const spec::Value& doc);
[[nodiscard]] TortureConfig load_torture_file(const std::string& path);

/// Complete canonical record of a torture configuration (round-trips through
/// load_torture).
[[nodiscard]] spec::Value to_json(const TortureConfig& cfg);

/// FNV-1a content hash excluding the "runner" section — the provenance stamp
/// for torture checkpoints and repro specs.
[[nodiscard]] std::uint64_t torture_hash(const TortureConfig& cfg);

}  // namespace pofi::torture
