// JSON codecs for every public configuration struct in the stack.
//
// Conventions, applied uniformly:
//
//   * apply_json(cfg, v) treats `cfg` as the base and overrides only the keys
//     present in `v` — every field is optional, defaults come from the C++
//     struct (or from a vendor preset when the drive uses the "preset" form).
//   * Unknown keys are hard errors naming the key and its source line; typos
//     never silently no-op.
//   * Out-of-range and wrong-typed values are errors naming the key, the
//     expected type/range, and the line.
//   * Durations carry their unit in the key name ("hold_time_ms",
//     "command_latency_us") and round-trip losslessly for any value below
//     ~11 simulated days.
//   * Enum-valued keys accept the spellings of the enum's enum_names table
//     (sim/enum_names.hpp); a bad one lists them all ("expected one of").
//   * to_json(cfg) emits every field, so dump(to_json(cfg)) is the complete,
//     canonical record of a configuration. The exceptions are keys left at
//     their default that would change meaning if spelled out: "seed" (see
//     ExperimentSpec below) and an empty workload "replay".
//   * Each struct's keys are written once, in a field list (spec/fields.hpp)
//     in codec.cpp that both to_json and apply_json walk: to_json emits keys
//     in list order, apply_json reads the object's members in file order.
#pragma once

#include "platform/experiment.hpp"
#include "platform/test_platform.hpp"
#include "runner/runner_config.hpp"
#include "spec/value.hpp"
#include "ssd/presets.hpp"
#include "workload/workload.hpp"

namespace pofi::spec {

// --- workload ---------------------------------------------------------------
[[nodiscard]] Value to_json(const workload::WorkloadConfig& cfg);
void apply_json(workload::WorkloadConfig& cfg, const Value& v);

// --- nand -------------------------------------------------------------------
[[nodiscard]] Value to_json(const nand::Geometry& g);
void apply_json(nand::Geometry& g, const Value& v);
[[nodiscard]] Value to_json(const nand::NandChip::Config& cfg);
void apply_json(nand::NandChip::Config& cfg, const Value& v);

// --- ftl --------------------------------------------------------------------
[[nodiscard]] Value to_json(const ftl::Ftl::Config& cfg);
void apply_json(ftl::Ftl::Config& cfg, const Value& v);

// --- ssd --------------------------------------------------------------------
[[nodiscard]] Value to_json(const ssd::WriteCache::Config& cfg);
void apply_json(ssd::WriteCache::Config& cfg, const Value& v);
[[nodiscard]] Value to_json(const ssd::SsdConfig& cfg);
void apply_json(ssd::SsdConfig& cfg, const Value& v);

/// Drive spec: either a full SsdConfig object, or the preset form
///   {"preset": "A", "cache_enabled": false, "capacity_gb": 8, ...}
/// which builds the Table I preset and then applies any remaining SsdConfig
/// keys (plus the preset-only knobs "por_scan", "preage_pe_cycles",
/// "mapping_policy", "capacity_gb") as overrides on top of it.
[[nodiscard]] ssd::SsdConfig drive_from_json(const Value& v);

// --- psu / platform ---------------------------------------------------------
[[nodiscard]] Value to_json(const psu::PowerSupply::Params& p);
void apply_json(psu::PowerSupply::Params& p, const Value& v);
[[nodiscard]] Value to_json(const psu::ArduinoBridge::Params& p);
void apply_json(psu::ArduinoBridge::Params& p, const Value& v);
[[nodiscard]] Value to_json(const blk::BlockQueue::Config& cfg);
void apply_json(blk::BlockQueue::Config& cfg, const Value& v);
[[nodiscard]] Value to_json(const platform::PlatformConfig& cfg);
void apply_json(platform::PlatformConfig& cfg, const Value& v);

// --- experiment -------------------------------------------------------------
/// to_json omits "seed" when it equals the ExperimentSpec default, so a
/// dumped campaign keeps per-entry seed derivation instead of freezing the
/// shared default (the seed-42 footgun stays dead across round trips).
[[nodiscard]] Value to_json(const platform::ExperimentSpec& spec);
void apply_json(platform::ExperimentSpec& spec, const Value& v);

/// Reject a workload that addresses LPNs outside `drive` (ssd::lpn_space):
/// its working set [base_lpn, base_lpn + wss_pages), or for a replay
/// workload each replayed request. `parent` is the document object holding
/// the "workload" section (an experiment, or a torture doc's root); the
/// error points at its "wss_pages" or replay request when the document
/// spells them out.
void check_workload_fits(const workload::WorkloadConfig& workload, const ssd::SsdConfig& drive,
                         const Value& parent);

// --- runner -----------------------------------------------------------------
[[nodiscard]] Value to_json(const runner::RunnerConfig& cfg);
void apply_json(runner::RunnerConfig& cfg, const Value& v);

// --- low-level typed readers (shared with campaign.cpp; exposed for tests) --
[[nodiscard]] bool read_bool(const Value& v, const std::string& key);
[[nodiscard]] std::uint64_t read_u64(const Value& v, const std::string& key,
                                     std::uint64_t lo = 0,
                                     std::uint64_t hi = ~0ULL);
[[nodiscard]] std::uint32_t read_u32(const Value& v, const std::string& key,
                                     std::uint64_t lo = 0, std::uint64_t hi = 0xFFFFFFFFULL);
[[nodiscard]] double read_double(const Value& v, const std::string& key,
                                 double lo, double hi);
[[nodiscard]] std::string read_string(const Value& v, const std::string& key);
[[nodiscard]] sim::Duration read_duration_ms(const Value& v, const std::string& key);
[[nodiscard]] sim::Duration read_duration_us(const Value& v, const std::string& key);
[[nodiscard]] double duration_to_ms(sim::Duration d);
[[nodiscard]] double duration_to_us(sim::Duration d);

}  // namespace pofi::spec
