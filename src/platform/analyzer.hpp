// The Analyzer of the paper's software part.
//
// Consumes request outcomes from the IO generator, keeps the set of
// ACKed-but-not-yet-verified write packets, and after every power cycle
// reads each of them back through the full device stack, comparing content
// tags against the shadow store. Classification follows §III-B exactly:
//
//   completed=1, notApplied=1  ->  FWA   (old data still at the address)
//   completed=1, notApplied=0, checksum mismatch -> data failure
//   completed=0                ->  IO error
//
// A packet with any page that is neither its payload nor the pre-request
// contents is a data failure; all-pages-reverted is an FWA.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "blk/queue.hpp"
#include "platform/shadow_store.hpp"
#include "sim/enum_names.hpp"
#include "sim/simulator.hpp"
#include "workload/data_packet.hpp"

namespace pofi::platform {

enum class FailureType : std::uint8_t { kDataFailure, kFwa, kIoError };

[[nodiscard]] constexpr auto enum_names(FailureType) {
  return std::to_array<sim::EnumName<FailureType>>({{FailureType::kDataFailure, "data-failure"},
                                                    {FailureType::kFwa, "FWA"},
                                                    {FailureType::kIoError, "io-error"}});
}
[[nodiscard]] constexpr const char* to_string(FailureType t) { return sim::enum_name(t); }

struct FailureRecord {
  std::uint64_t packet_id = 0;
  FailureType type = FailureType::kDataFailure;
  std::uint32_t fault_index = 0;
  /// ACK-to-fault interval (ms); negative when the packet never ACKed.
  double ack_to_fault_ms = -1.0;
  std::uint32_t pages_garbage = 0;
  std::uint32_t pages_reverted = 0;
  workload::OpType op = workload::OpType::kWrite;
};

struct AnalyzerCounters {
  std::uint64_t data_failures = 0;
  std::uint64_t fwa_failures = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t verified_ok = 0;
  std::uint64_t superseded_skipped = 0;
  std::uint64_t read_mismatches = 0;  ///< live reads that saw wrong data
};

class Analyzer {
 public:
  Analyzer(sim::Simulator& simulator, blk::BlockQueue& queue, ShadowStore& shadow);

  // --- Fed by the IO generator ----------------------------------------------
  /// A write was ACKed; packet enters the pending-verification set.
  void note_acked_write(workload::DataPacket packet);
  /// A request failed (device unavailable / timeout): IO error.
  void note_io_error(const workload::DataPacket& packet);
  /// A live read returned data; cross-check against the shadow store.
  void note_read_result(const workload::DataPacket& packet,
                        std::span<const std::uint64_t> observed);

  // --- Post-power-cycle verification ----------------------------------------
  /// Read back every pending packet and classify. The device must be ready.
  /// `done` fires when the whole pending set has been processed.
  void verify_pending(sim::TimePoint fault_time, std::uint32_t fault_index,
                      std::function<void()> done);
  [[nodiscard]] bool verification_running() const { return verifying_; }

  [[nodiscard]] const AnalyzerCounters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<FailureRecord>& failures() const { return failures_; }
  [[nodiscard]] std::size_t pending_packets() const { return pending_.size(); }

  /// Session reset: drop pending packets, verification state, counters and
  /// the failure log; container capacities are retained.
  void reset() {
    pending_.clear();
    verifying_ = false;
    fault_time_ = sim::TimePoint{};
    fault_index_ = 0;
    done_ = nullptr;
    counters_ = AnalyzerCounters{};
    failures_.clear();
  }

  /// Snapshot precondition: no verification pass in flight.
  [[nodiscard]] bool quiescent() const { return !verifying_; }

  struct StateImage {
    std::deque<workload::DataPacket> pending;
    sim::TimePoint fault_time;
    std::uint32_t fault_index = 0;
    AnalyzerCounters counters;
    std::vector<FailureRecord> failures;
  };
  void snapshot(StateImage& out) const {
    out.pending = pending_;
    out.fault_time = fault_time_;
    out.fault_index = fault_index_;
    out.counters = counters_;
    out.failures = failures_;
  }
  void restore(const StateImage& image) {
    pending_ = image.pending;
    verifying_ = false;
    fault_time_ = image.fault_time;
    fault_index_ = image.fault_index;
    done_ = nullptr;
    counters_ = image.counters;
    failures_ = image.failures;
  }

 private:
  void verify_next();
  void classify(const workload::DataPacket& packet, std::span<const std::uint64_t> observed);

  sim::Simulator& sim_;
  blk::BlockQueue& queue_;
  ShadowStore& shadow_;

  std::deque<workload::DataPacket> pending_;
  bool verifying_ = false;
  sim::TimePoint fault_time_;
  std::uint32_t fault_index_ = 0;
  std::function<void()> done_;

  AnalyzerCounters counters_;
  std::vector<FailureRecord> failures_;
};

}  // namespace pofi::platform
