// The SSD device model: NAND chip + FTL + volatile write cache + command
// queue, wired to the power rail as a psu::PowerSink.
//
// Host-visible semantics under power failure (the paper's three channels):
//  * ACK-on-DRAM-insert -> dirty pages die with the rail -> FWA.
//  * Interrupted ISPP programs / paired-page upsets -> uncorrectable reads
//    -> data failure.
//  * Commands outstanding or submitted while the device is down/mounting ->
//    device-unavailable -> IO error.
// Optional supercap PLP gives the drive a grace window after cutoff in which
// it drains the cache and journal (enterprise behaviour).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ftl/ftl.hpp"
#include "nand/chip_array.hpp"
#include "obs/fwd.hpp"
#include "psu/power_supply.hpp"
#include "sim/inplace_function.hpp"
#include "sim/simulator.hpp"
#include "ssd/write_cache.hpp"

namespace pofi::ssd {

enum class DeviceStatus : std::uint8_t {
  kOk,
  kDeviceUnavailable,  ///< powered off, dying, or mounting
  kMediaError,         ///< at least one page was uncorrectable
  kWriteError,         ///< program failure / device full
  kLbaOutOfRange,      ///< the command reaches past lpn_space()
};

[[nodiscard]] constexpr const char* to_string(DeviceStatus s) {
  switch (s) {
    case DeviceStatus::kOk: return "ok";
    case DeviceStatus::kDeviceUnavailable: return "device-unavailable";
    case DeviceStatus::kMediaError: return "media-error";
    case DeviceStatus::kWriteError: return "write-error";
    case DeviceStatus::kLbaOutOfRange: return "lba-out-of-range";
  }
  return "?";
}

struct Command {
  enum class Op : std::uint8_t { kRead, kWrite, kFlush, kTrim };
  Op op = Op::kRead;
  ftl::Lpn lpn = 0;      ///< first logical page (unused for kFlush)
  std::uint32_t pages = 1;  ///< unused for kFlush
  std::vector<std::uint64_t> contents;  ///< writes: one tag per page
  /// Completion. Reads receive one tag per page (garbage tags where the
  /// media was uncorrectable, kErasedContent where never written).
  /// Inline-storage callable: one Command per host IO rides the hot path,
  /// and the block layer's continuations are small (id + sub-range), so the
  /// completion never touches the heap. Commands are move-only as a result.
  using DoneFn = sim::InplaceFunction<void(DeviceStatus, std::vector<std::uint64_t>), 64>;
  DoneFn done;
};

struct SsdStats {
  std::uint64_t commands_accepted = 0;
  std::uint64_t commands_completed = 0;
  std::uint64_t commands_failed_unavailable = 0;
  std::uint64_t commands_media_error = 0;
  std::uint64_t write_acks = 0;
  std::uint64_t power_losses = 0;
  std::uint64_t clean_plp_shutdowns = 0;
};

struct SsdConfig {
  std::string model = "generic";
  /// Independent NAND channels (dies); chip.geometry describes one die.
  std::uint32_t channels = 1;
  nand::NandChip::Config chip;
  ftl::Ftl::Config ftl;
  WriteCache::Config cache;
  bool cache_enabled = true;
  bool plp = false;  ///< supercap-backed
  /// Supercap energy budget: how long the electronics keep running after
  /// the rail dies. Enterprise PLP is sized to drain the full DRAM cache.
  sim::Duration plp_hold = sim::Duration::ms(400);
  double load_amps = 0.5;
  double cutoff_volts = 4.5;     ///< paper: unavailable below 4.5 V
  double brownout_volts = 4.75;  ///< early-warning threshold (PLP trigger)
  std::uint32_t queue_depth = 32;  ///< NCQ
  double link_mb_per_s = 550.0;    ///< SATA 6 Gb/s payload rate
  sim::Duration command_overhead = sim::Duration::us(20);
  sim::Duration mount_delay = sim::Duration::ms(800);
  // Table I reporting fields.
  std::uint32_t capacity_gb = 120;
  std::string interface_name = "SATA";
  int release_year = 2015;

  bool operator==(const SsdConfig&) const = default;
};

/// The drive's host-visible LPN space: what its FTL sizes the L2P map from
/// (ftl::Ftl::lpn_space over the whole chip array). A workload must stay
/// below it.
[[nodiscard]] std::uint64_t lpn_space(const SsdConfig& config);

class Ssd final : public psu::PowerSink {
 public:
  Ssd(sim::Simulator& simulator, SsdConfig config);

  // --- Host interface -------------------------------------------------------
  /// Device is powered, mounted and accepting commands.
  [[nodiscard]] bool ready() const { return ready_; }
  /// Submit a command. If the device is not ready the command fails
  /// immediately with kDeviceUnavailable (host sees an IO error); a read,
  /// write or TRIM reaching past lpn_space() fails immediately with
  /// kLbaOutOfRange, as a SATA drive rejects an LBA past its capacity.
  void submit(Command cmd);
  /// One-shot callback when the device next becomes ready. Inline-storage
  /// callable: waiters fire at every mount, i.e. once per power cycle, and
  /// their captures are small (a platform pointer or a couple of flags). The
  /// read and write paths are std::function-free; FLUSH and a write stalled
  /// on a full cache still wait through std::function
  /// (WriteCache::flush_all/on_space, Ftl::flush_all).
  using ReadyFn = sim::InplaceFunction<void(), 64>;
  void on_ready(ReadyFn cb) { ready_waiters_.push_back(std::move(cb)); }

  // --- psu::PowerSink -------------------------------------------------------
  [[nodiscard]] double load_amps() const override { return config_.load_amps; }
  [[nodiscard]] double cutoff_volts() const override { return config_.cutoff_volts; }
  [[nodiscard]] double brownout_volts() const override {
    return config_.plp ? config_.brownout_volts : 0.0;
  }
  void on_brownout(sim::TimePoint now) override;
  void on_power_lost(sim::TimePoint now) override;
  void on_power_good(sim::TimePoint now) override;

  /// Session reset: chip array, FTL and cache reset in construction order,
  /// then the device's own queues, waiters and stats. Precondition: the
  /// simulator's events are already drained (mount timers, PLP death events
  /// and epoch-guarded completions must not fire into a reset device).
  void reset();

  /// Snapshot precondition: ready, not dying, no queued/in-flight commands,
  /// no mount/death timers, and chip/FTL/cache all quiescent themselves.
  [[nodiscard]] bool quiescent() const {
    return ready_ && !dying_ && pending_.empty() && inflight_cmds_.empty() &&
           ready_waiters_.empty() && !sim_.event_pending(plp_death_event_) &&
           !sim_.event_pending(mount_event_) && chip_->quiescent() && ftl_->quiescent() &&
           cache_->quiescent();
  }

  /// Copyable device state at a quiescent boundary. The NCQ is empty by
  /// precondition; restore() clears whatever a dirty (post-crash) device
  /// still holds. `epoch` is captured so stale completions of the pre-restore
  /// lifetime can never act on the restored one.
  struct StateImage {
    nand::ChipArray::StateImage chip;
    ftl::Ftl::StateImage ftl;
    WriteCache::StateImage cache;
    bool ready = false;
    std::uint64_t epoch = 0;
    SsdStats stats;
  };

  void snapshot(StateImage& out) const {
    chip_->snapshot(out.chip);
    ftl_->snapshot(out.ftl);
    cache_->snapshot(out.cache);
    out.ready = ready_;
    out.epoch = epoch_;
    out.stats = stats_;
  }

  void restore(const StateImage& image, sim::TimerRearmer& rearm) {
    chip_->restore(image.chip);
    ftl_->restore(image.ftl, rearm);
    cache_->restore(image.cache, rearm);
    ready_ = image.ready;
    dying_ = false;
    // Strictly greater than both the captured and the current epoch: stale
    // callbacks from either lifetime must miss.
    epoch_ = std::max(epoch_, image.epoch) + 1;
    pending_.clear();
    inflight_cmds_.clear();
    plp_death_event_ = {};
    mount_event_ = {};
    ready_waiters_.clear();
    stats_ = image.stats;
  }

  // --- Introspection --------------------------------------------------------
  [[nodiscard]] const SsdConfig& config() const { return config_; }
  [[nodiscard]] nand::ChipArray& chip() { return *chip_; }
  [[nodiscard]] ftl::Ftl& ftl() { return *ftl_; }
  [[nodiscard]] WriteCache& cache() { return *cache_; }
  // Const views for read-only inspection (invariant auditing).
  [[nodiscard]] const nand::ChipArray& chip() const { return *chip_; }
  [[nodiscard]] const ftl::Ftl& ftl() const { return *ftl_; }
  [[nodiscard]] const WriteCache& cache() const { return *cache_; }
  [[nodiscard]] const SsdStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued_commands() const { return pending_.size(); }
  [[nodiscard]] std::size_t inflight_commands() const { return inflight_cmds_.size(); }

 private:
  using CmdPtr = std::shared_ptr<Command>;

  void dispatch();
  void execute(const CmdPtr& cmd);
  void run_write(const CmdPtr& cmd);
  void write_into_cache(const CmdPtr& cmd, std::uint32_t next_page);
  void write_through(const CmdPtr& cmd);
  void run_read(const CmdPtr& cmd);
  void run_flush(const CmdPtr& cmd);
  void run_trim(const CmdPtr& cmd);
  void finish(const CmdPtr& cmd, DeviceStatus status, std::vector<std::uint64_t> contents);
  void die();
  [[nodiscard]] sim::Duration transfer_time(std::uint32_t pages) const;

  sim::Simulator& sim_;
  SsdConfig config_;
  std::unique_ptr<nand::ChipArray> chip_;
  std::unique_ptr<ftl::Ftl> ftl_;
  std::unique_ptr<WriteCache> cache_;

  bool ready_ = false;
  bool dying_ = false;       ///< PLP grace window active
  std::uint64_t epoch_ = 0;  ///< bumped at every death; stales callbacks
  std::deque<Command> pending_;
  std::vector<CmdPtr> inflight_cmds_;
  sim::EventId plp_death_event_{};
  sim::EventId mount_event_{};
  std::vector<ReadyFn> ready_waiters_;
  SsdStats stats_;

  /// Refresh the NCQ depth gauges from pending_/inflight_cmds_.
  void obs_queue_gauges();

  // Observability handles (no-ops unless a registry is attached to sim_).
  obs::MetricId obs_ncq_inflight_ = obs::kNoMetric;
  obs::MetricId obs_ncq_pending_ = obs::kNoMetric;
  std::uint32_t obs_span_mount_ = 0;
};

}  // namespace pofi::ssd
