// Host block layer: request splitting, dispatch, tracing, timeouts.
//
// Mirrors the kernel behaviour the paper relies on: large requests are split
// into sub-requests bounded by max_pages (max_sectors_kb analogue); every
// state change is traced; a 30-second watchdog abandons requests whose
// completions will never arrive (device died with them in flight).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "blk/trace.hpp"
#include "ftl/types.hpp"
#include "obs/fwd.hpp"
#include "sim/inplace_function.hpp"
#include "stats/summary.hpp"
#include "sim/simulator.hpp"
#include "ssd/ssd.hpp"

namespace pofi::blk {

enum class IoStatus : std::uint8_t { kOk, kError, kTimeout };

[[nodiscard]] constexpr const char* to_string(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kError: return "error";
    case IoStatus::kTimeout: return "timeout";
  }
  return "?";
}

struct RequestOutcome {
  std::uint64_t request_id = 0;
  IoStatus status = IoStatus::kOk;
  bool media_error = false;
  /// Read data, one tag per page (valid when status == kOk on reads).
  std::vector<std::uint64_t> read_contents;
  sim::TimePoint queued_at;
  sim::TimePoint finished_at;
};

struct BlockQueueStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t splits = 0;
  /// Q2C latency of successfully completed requests.
  stats::RunningStat latency_us;
};

class BlockQueue {
 public:
  struct Config {
    std::uint32_t max_pages_per_subrequest = 64;  ///< 256 KiB at 4 KiB pages
    sim::Duration request_timeout = sim::Duration::sec(30);

    bool operator==(const Config&) const = default;
  };

  /// Request completion. Inline storage sized for the fattest production
  /// continuation (TestPlatform's `this` + a moved-in DataPacket, ~136
  /// bytes); larger captures are a compile error, not a heap allocation.
  using Completion = sim::InplaceFunction<void(RequestOutcome), 160>;

  BlockQueue(sim::Simulator& simulator, ssd::Ssd& device, Config config);
  // NOTE: defined out-of-line. GCC 12 miscompiles `Config{}` NSDMIs when a
  // delegating constructor is defined inside the class body in some TUs.
  BlockQueue(sim::Simulator& simulator, ssd::Ssd& device);

  /// Submit a host write: one content tag per page (the page count is the
  /// size of `contents`, eliminating any argument-evaluation-order hazard
  /// between a `.size()` call and the moved-from vector).
  std::uint64_t submit_write(ftl::Lpn lpn, std::vector<std::uint64_t> contents,
                             Completion done);
  std::uint64_t submit_read(ftl::Lpn lpn, std::uint32_t pages, Completion done);
  /// FLUSH barrier: completes once everything previously ACKed is durable.
  std::uint64_t submit_flush(Completion done);
  /// TRIM/discard a logical range (deallocation is volatile until the
  /// device journals it -- see the zombie-data tests).
  std::uint64_t submit_discard(ftl::Lpn lpn, std::uint32_t pages, Completion done);

  [[nodiscard]] BlkTrace& trace() { return trace_; }
  [[nodiscard]] const BlockQueueStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t outstanding() const { return live_.size(); }

  /// Session reset: drop live requests, stats and the trace buffer (its
  /// enabled flag is the owner's business). Precondition: simulator events
  /// drained, so timeout watchdogs cannot fire into a reset queue.
  void reset() {
    live_.clear();
    next_id_ = 1;
    stats_ = BlockQueueStats{};
    trace_.clear();
  }

  /// Snapshot precondition: no request in flight (LiveRequest holds a
  /// non-copyable Completion; at quiescence there are none to copy).
  [[nodiscard]] bool quiescent() const { return live_.empty(); }

  struct StateImage {
    BlkTrace trace;
    BlockQueueStats stats;
    std::uint64_t next_id = 1;
  };
  void snapshot(StateImage& out) const {
    out.trace = trace_;
    out.stats = stats_;
    out.next_id = next_id_;
  }
  void restore(const StateImage& image) {
    live_.clear();
    trace_ = image.trace;
    stats_ = image.stats;
    next_id_ = image.next_id;
  }

 private:
  struct LiveRequest {
    std::uint64_t id = 0;
    bool is_write = false;
    ftl::Lpn lpn = 0;
    std::uint32_t pages = 0;
    std::uint32_t subs_total = 0;
    std::uint32_t subs_done = 0;
    std::uint32_t subs_error = 0;
    bool any_media_error = false;
    sim::TimePoint queued_at;
    std::vector<std::uint64_t> read_contents;
    Completion done;
    sim::EventId timeout_event{};
  };

  /// The one submit path: live-request setup, trace records, timeout and
  /// gauges, then one device command per sub-request.
  std::uint64_t submit(ssd::Command::Op op, ftl::Lpn lpn, std::uint32_t pages,
                       std::vector<std::uint64_t> contents, Completion done);
  void sub_finished(std::uint64_t id, std::uint32_t sub_index, ftl::Lpn sub_lpn,
                    std::uint32_t sub_pages, ssd::DeviceStatus status,
                    std::vector<std::uint64_t> contents);
  void maybe_complete(std::uint64_t id);
  void fire_timeout(std::uint64_t id);

  sim::Simulator& sim_;
  ssd::Ssd& device_;
  Config config_;
  BlkTrace trace_;
  BlockQueueStats stats_;
  std::unordered_map<std::uint64_t, LiveRequest> live_;
  std::uint64_t next_id_ = 1;

  /// Refresh the outstanding-request gauge from live_.
  void obs_outstanding_gauge();

  // Observability handles (no-ops unless a registry is attached to sim_).
  obs::MetricId obs_outstanding_ = obs::kNoMetric;
  obs::MetricId obs_split_fanout_ = obs::kNoMetric;
};

}  // namespace pofi::blk
