// Workload generation: every knob the paper sweeps.
//
// WSS, request-size range, read/write mix, random vs sequential pattern,
// dependent access sequences (RAR/RAW/WAR/WAW, "each request is submitted on
// the address of the previously completed request"), and target request
// rate. The generator emits descriptors; the platform turns them into data
// packets with allocated content tags.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ftl/types.hpp"
#include "sim/enum_names.hpp"
#include "sim/rng.hpp"
#include "workload/data_packet.hpp"

namespace pofi::workload {

enum class AccessPattern : std::uint8_t { kUniformRandom, kSequential };

[[nodiscard]] constexpr auto enum_names(AccessPattern) {
  return std::to_array<sim::EnumName<AccessPattern>>(
      {{AccessPattern::kUniformRandom, "random"}, {AccessPattern::kSequential, "sequential"}});
}
[[nodiscard]] constexpr const char* to_string(AccessPattern p) { return sim::enum_name(p); }

/// Dependent-pair sequences of §IV-G.
enum class SequenceMode : std::uint8_t { kNone, kRAR, kRAW, kWAR, kWAW };

[[nodiscard]] constexpr auto enum_names(SequenceMode) {
  return std::to_array<sim::EnumName<SequenceMode>>({{SequenceMode::kNone, "none"},
                                                     {SequenceMode::kRAR, "RAR"},
                                                     {SequenceMode::kRAW, "RAW"},
                                                     {SequenceMode::kWAR, "WAR"},
                                                     {SequenceMode::kWAW, "WAW"}});
}
[[nodiscard]] constexpr const char* to_string(SequenceMode m) { return sim::enum_name(m); }

/// One request to be materialised into a DataPacket.
struct RequestSpec {
  OpType op = OpType::kWrite;
  ftl::Lpn lpn = 0;
  std::uint32_t pages = 1;
};

struct WorkloadConfig {
  std::string name = "workload";
  /// 1 GiB at 4 KiB pages: within the default ssd::SsdConfig and every
  /// preset down to capacity_gb 1, so a spec on one of those drives may
  /// leave the working set out.
  std::uint64_t wss_pages = 1ULL << 18;
  ftl::Lpn base_lpn = 0;
  std::uint32_t min_pages = 1;     ///< 4 KiB
  std::uint32_t max_pages = 256;   ///< 1 MiB
  double write_fraction = 1.0;     ///< 1.0 = fully write
  AccessPattern pattern = AccessPattern::kUniformRandom;
  SequenceMode sequence = SequenceMode::kNone;
  /// Open-loop request rate; 0 keeps the platform in closed-loop mode.
  double target_iops = 0.0;
  /// Trace replay: when non-empty the generator cycles through these specs
  /// verbatim (the spec's "workload.replay" array) and every synthetic knob
  /// above except target_iops is ignored.
  std::vector<RequestSpec> replay;

  [[nodiscard]] std::uint64_t wss_bytes(std::uint32_t page_size) const {
    return wss_pages * page_size;
  }
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, sim::Rng rng);

  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  /// Produce the next request of the workload.
  RequestSpec next();

  /// Mean inter-arrival gap for open-loop submission (nullopt = closed loop).
  [[nodiscard]] std::optional<double> mean_interarrival_sec() const {
    if (config_.target_iops <= 0.0) return std::nullopt;
    return 1.0 / config_.target_iops;
  }

  [[nodiscard]] std::uint64_t generated() const { return generated_; }

  /// Session reset: adopt a (possibly different) workload and a fresh RNG
  /// stream in place. Equivalent to re-constructing, but string/vector
  /// assignment reuses existing capacity, keeping pooled runs alloc-free in
  /// steady state.
  void reset(const WorkloadConfig& config, sim::Rng rng) {
    config_ = config;
    rng_ = rng;
    generated_ = 0;
    seq_cursor_ = config_.base_lpn;
    pair_pending_ = false;
    pair_second_ = RequestSpec{};
  }

  /// Generator position within its stream. The config is construction/reset
  /// input, not state: restore() requires the generator to already carry the
  /// same workload the image was captured under.
  struct StateImage {
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t generated = 0;
    ftl::Lpn seq_cursor = 0;
    bool pair_pending = false;
    RequestSpec pair_second{};
  };
  void snapshot(StateImage& out) const {
    out.rng_state = rng_.state();
    out.generated = generated_;
    out.seq_cursor = seq_cursor_;
    out.pair_pending = pair_pending_;
    out.pair_second = pair_second_;
  }
  void restore(const StateImage& image) {
    rng_.set_state(image.rng_state);
    generated_ = image.generated;
    seq_cursor_ = image.seq_cursor;
    pair_pending_ = image.pair_pending;
    pair_second_ = image.pair_second;
  }

 private:
  [[nodiscard]] std::uint32_t pick_pages();
  [[nodiscard]] ftl::Lpn pick_lpn(std::uint32_t pages);

  WorkloadConfig config_;
  sim::Rng rng_;
  std::uint64_t generated_ = 0;
  ftl::Lpn seq_cursor_ = 0;
  // Sequence-mode pair state: the second access replays the first's address.
  bool pair_pending_ = false;
  RequestSpec pair_second_{};
};

}  // namespace pofi::workload
