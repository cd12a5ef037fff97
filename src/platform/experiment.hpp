// Experiment specification and results.
//
// One ExperimentSpec describes a full fault-injection campaign: the workload
// to run, how many faults to inject and how the faults are timed. Results
// aggregate the three failure classes plus the raw failure records used for
// the interval analysis (§IV-A) and the IOPS measurements (Fig. 8).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"
#include "platform/analyzer.hpp"
#include "sim/enum_names.hpp"
#include "sim/time.hpp"
#include "workload/workload.hpp"

namespace pofi::platform {

enum class FaultMode : std::uint8_t {
  /// Faults land at random instants while the workload runs (default; the
  /// paper's Scheduler picks "random time instances").
  kRandomDuringWorkload,
  /// §IV-A: one write, wait for its ACK, cut power a fixed delay later.
  kFixedDelayAfterAck,
};

[[nodiscard]] constexpr auto enum_names(FaultMode) {
  return std::to_array<sim::EnumName<FaultMode>>(
      {{FaultMode::kRandomDuringWorkload, "random-during-workload"},
       {FaultMode::kFixedDelayAfterAck, "fixed-delay-after-ack"}});
}
[[nodiscard]] constexpr const char* to_string(FaultMode m) { return sim::enum_name(m); }

struct ExperimentSpec {
  std::string name = "experiment";
  workload::WorkloadConfig workload;
  std::uint64_t total_requests = 16'000;
  std::uint32_t faults = 200;
  FaultMode mode = FaultMode::kRandomDuringWorkload;
  /// kFixedDelayAfterAck: ACK-to-fault interval under test.
  sim::Duration post_ack_delay = sim::Duration::ms(0);
  /// Extra random delay after the per-cycle request budget is reached
  /// before the Off command goes out (keeps fault instants random).
  sim::Duration fault_jitter = sim::Duration::ms(200);
  /// Submission pacing when the workload has no target_iops of its own:
  /// requests arrive Poisson at this rate, matching the measured cadence of
  /// the paper's generator. <= 0 switches to device-limited closed loop.
  double pace_iops = 5.0;
  std::uint64_t seed = 42;
};

struct ExperimentResult {
  std::string name;
  std::uint64_t requests_submitted = 0;
  std::uint64_t write_acks = 0;
  std::uint64_t reads_completed = 0;
  std::uint32_t faults_injected = 0;

  std::uint64_t data_failures = 0;
  std::uint64_t fwa_failures = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t verified_ok = 0;
  std::uint64_t read_mismatches = 0;

  double requested_iops = 0.0;   ///< open-loop target (0 for closed loop)
  double responded_iops = 0.0;   ///< completions per second of active time
  double mean_latency_us = 0.0;  ///< Q2C of successful requests
  double max_latency_us = 0.0;
  double active_seconds = 0.0;   ///< workload-on wall time (virtual)
  double sim_seconds = 0.0;      ///< total virtual time of the campaign

  /// All failure records (Δt histograms, per-type breakdowns).
  std::vector<FailureRecord> failures;

  // Device-side diagnostics.
  std::uint64_t cache_dirty_lost = 0;
  std::uint64_t interrupted_programs = 0;
  std::uint64_t paired_page_upsets = 0;
  std::uint64_t map_updates_reverted = 0;
  std::uint64_t uncorrectable_reads = 0;
  /// Recovery-invariant violations found by the torture auditor (0 outside
  /// torture runs). Non-zero resolves the campaign entry to kAuditFailed.
  std::uint64_t audit_violations = 0;

  /// Telemetry snapshot taken at campaign end when the platform was built
  /// with metrics collection on (PlatformConfig::metrics); empty otherwise.
  /// Deliberately excluded from determinism hashing — the campaign rows
  /// above must be bit-identical with metrics on or off.
  obs::Snapshot metrics;

  [[nodiscard]] std::uint64_t total_data_loss() const { return data_failures + fwa_failures; }
  [[nodiscard]] double data_failures_per_fault() const {
    return faults_injected == 0
               ? 0.0
               : static_cast<double>(total_data_loss()) / faults_injected;
  }
};

}  // namespace pofi::platform
