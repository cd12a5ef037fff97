#include "spec/codec.hpp"

#include <algorithm>
#include <cmath>

#include "spec/fields.hpp"

namespace pofi::spec {

namespace {

[[noreturn]] void fail(const Value& v, const std::string& key, const std::string& msg) {
  throw Error(msg, v.line, v.col, key);
}

// Largest duration (in ms) that stays exactly representable through the
// double <-> ns round trip: ~2^53 ns ≈ 104 simulated days.
constexpr double kMaxDurationMs = 9.0e9;

}  // namespace

// --- typed readers ----------------------------------------------------------

void fields::erase(Value& v, std::string_view key) {
  std::erase_if(v.members(), [key](const Value::Member& m) { return m.first == key; });
}

bool read_bool(const Value& v, const std::string& key) {
  if (!v.is_bool()) fail(v, key, "expected true or false");
  return v.as_bool();
}

std::uint64_t read_u64(const Value& v, const std::string& key, std::uint64_t lo,
                       std::uint64_t hi) {
  if (v.kind() != Value::Kind::kUInt) {
    fail(v, key, "expected a non-negative integer");
  }
  const std::uint64_t u = v.as_uint();
  if (u < lo || u > hi) {
    fail(v, key,
         "value " + std::to_string(u) + " out of range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
  }
  return u;
}

std::uint32_t read_u32(const Value& v, const std::string& key, std::uint64_t lo,
                       std::uint64_t hi) {
  return static_cast<std::uint32_t>(read_u64(v, key, lo, hi));
}

double read_double(const Value& v, const std::string& key, double lo, double hi) {
  if (!v.is_number()) fail(v, key, "expected a number");
  const double d = v.as_double();
  if (std::isnan(d) || d < lo || d > hi) {
    fail(v, key,
         "value " + std::to_string(d) + " out of range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]");
  }
  return d;
}

std::string read_string(const Value& v, const std::string& key) {
  if (!v.is_string()) fail(v, key, "expected a string");
  return v.as_string();
}

sim::Duration read_duration_ms(const Value& v, const std::string& key) {
  const double ms = read_double(v, key, 0.0, kMaxDurationMs);
  return sim::Duration::ns(std::llround(ms * 1e6));
}

sim::Duration read_duration_us(const Value& v, const std::string& key) {
  const double us = read_double(v, key, 0.0, kMaxDurationMs * 1e3);
  return sim::Duration::ns(std::llround(us * 1e3));
}

double duration_to_ms(sim::Duration d) {
  return static_cast<double>(d.count_ns()) / 1e6;
}

double duration_to_us(sim::Duration d) {
  return static_cast<double>(d.count_ns()) / 1e3;
}

// --- field lists ------------------------------------------------------------
//
// One list per struct (see fields.hpp). What a list cannot say is written
// beside it: workload.replay's omission when empty, the min/max/wss and
// brownout/cutoff cross-checks, experiment.seed's omission when default,
// and the preset split in drive_from_json.

namespace {

using fields::Choice;
using fields::Flag;
using fields::Integer;
using fields::Items;
using fields::Micros;
using fields::Millis;
using fields::Nested;
using fields::Real;
using fields::Text;

using workload::RequestSpec;
using workload::WorkloadConfig;
constexpr fields::List kRequest{"replay entry",
                                Choice{"op", &RequestSpec::op},
                                Integer{"lpn", &RequestSpec::lpn},
                                Integer{"pages", &RequestSpec::pages, 1}};
constexpr fields::List kWorkload{
    "workload config",
    Text{"name", &WorkloadConfig::name},
    Integer{"wss_pages", &WorkloadConfig::wss_pages, 1},
    Integer{"base_lpn", &WorkloadConfig::base_lpn},
    Integer{"min_pages", &WorkloadConfig::min_pages, 1},
    Integer{"max_pages", &WorkloadConfig::max_pages, 1},
    Real{"write_fraction", &WorkloadConfig::write_fraction, 0.0, 1.0},
    Choice{"pattern", &WorkloadConfig::pattern},
    Choice{"sequence", &WorkloadConfig::sequence},
    Real{"target_iops", &WorkloadConfig::target_iops, 0.0, 1e9},
    Items{"replay", &WorkloadConfig::replay, &kRequest}};

using nand::Geometry;
constexpr fields::List kGeometry{"nand geometry",
                                 Integer{"page_size_bytes", &Geometry::page_size_bytes, 512},
                                 Integer{"pages_per_block", &Geometry::pages_per_block, 1},
                                 Integer{"blocks_per_plane", &Geometry::blocks_per_plane, 1},
                                 Integer{"planes", &Geometry::planes, 1, 64}};

using Chip = nand::NandChip::Config;
constexpr fields::List kChip{"nand chip config",
                             Nested{"geometry", &Chip::geometry},
                             Choice{"tech", &Chip::tech},
                             Choice{"ecc", &Chip::ecc},
                             Integer{"endurance_pe_cycles", &Chip::endurance_pe_cycles, 1},
                             Integer{"initial_pe_cycles", &Chip::initial_pe_cycles},
                             Flag{"enforce_program_order", &Chip::enforce_program_order}};

using Ftl = ftl::Ftl::Config;
constexpr fields::List kFtl{"ftl config",
                            Choice{"mapping_policy", &Ftl::mapping_policy},
                            Millis{"journal_interval_ms", &Ftl::journal_interval},
                            Integer{"journal_batch_threshold", &Ftl::journal_batch_threshold, 1},
                            Integer{"gc_low_watermark", &Ftl::gc_low_watermark, 1},
                            Integer{"extent_frame_pages", &Ftl::extent_frame_pages, 1},
                            Integer{"extent_min_fill", &Ftl::extent_min_fill, 1},
                            Flag{"map_update_on_issue", &Ftl::map_update_on_issue},
                            Integer{"lpn_capacity", &Ftl::lpn_capacity},
                            Flag{"por_scan", &Ftl::por_scan}};

using Cache = ssd::WriteCache::Config;
constexpr fields::List kCache{"write cache config",
                              Integer{"capacity_pages", &Cache::capacity_pages, 1},
                              Millis{"hold_time_ms", &Cache::hold_time},
                              Integer{"flush_ways", &Cache::flush_ways, 1},
                              Real{"high_watermark", &Cache::high_watermark, 0.01, 1.0},
                              Integer{"flush_scramble_window", &Cache::flush_scramble_window, 1}};

using ssd::SsdConfig;
constexpr fields::List kSsd{"ssd config",
                            Text{"model", &SsdConfig::model},
                            Integer{"channels", &SsdConfig::channels, 1, 64},
                            Nested{"chip", &SsdConfig::chip},
                            Nested{"ftl", &SsdConfig::ftl},
                            Nested{"cache", &SsdConfig::cache},
                            Flag{"cache_enabled", &SsdConfig::cache_enabled},
                            Flag{"plp", &SsdConfig::plp},
                            Millis{"plp_hold_ms", &SsdConfig::plp_hold},
                            Real{"load_amps", &SsdConfig::load_amps, 0.001, 100.0},
                            Real{"cutoff_volts", &SsdConfig::cutoff_volts, 0.0, 12.0},
                            Real{"brownout_volts", &SsdConfig::brownout_volts, 0.0, 12.0},
                            Integer{"queue_depth", &SsdConfig::queue_depth, 1, 4096},
                            Real{"link_mb_per_s", &SsdConfig::link_mb_per_s, 0.1, 1e6},
                            Micros{"command_overhead_us", &SsdConfig::command_overhead},
                            Millis{"mount_delay_ms", &SsdConfig::mount_delay},
                            Integer{"capacity_gb", &SsdConfig::capacity_gb, 1},
                            Text{"interface", &SsdConfig::interface_name},
                            Integer{"release_year", &SsdConfig::release_year, 0, 3000}};

/// The preset form's own knobs (read only: a drive is written as SsdConfig).
using ssd::PresetOptions;
constexpr fields::List kPreset{"drive",
                               Flag{"cache_enabled", &PresetOptions::cache_enabled},
                               Flag{"plp", &PresetOptions::plp},
                               Flag{"por_scan", &PresetOptions::por_scan},
                               Integer{"preage_pe_cycles", &PresetOptions::preage_pe_cycles},
                               Choice{"mapping_policy", &PresetOptions::mapping_policy},
                               Integer{"capacity_gb", &PresetOptions::capacity_override_gb, 1}};

using Psu = psu::PowerSupply::Params;
constexpr fields::List kPsu{"psu params",
                            Real{"nominal_volts", &Psu::nominal_volts, 0.1, 48.0},
                            Millis{"rise_time_ms", &Psu::rise_time}};

using Arduino = psu::ArduinoBridge::Params;
constexpr fields::List kArduino{"arduino params",
                                Micros{"command_latency_us", &Arduino::command_latency},
                                Micros{"jitter_us", &Arduino::jitter}};

using BlockQueue = blk::BlockQueue::Config;
constexpr fields::List kBlockQueue{
    "block queue config",
    Integer{"max_pages_per_subrequest", &BlockQueue::max_pages_per_subrequest, 1},
    Millis{"request_timeout_ms", &BlockQueue::request_timeout}};

using platform::PlatformConfig;
constexpr fields::List kPlatform{
    "platform config",
    Choice{"discharge", &PlatformConfig::discharge},
    Nested{"psu", &PlatformConfig::psu},
    Nested{"arduino", &PlatformConfig::arduino},
    Nested{"block_queue", &PlatformConfig::block_queue},
    Millis{"post_fault_dwell_ms", &PlatformConfig::post_fault_dwell},
    Integer{"closed_loop_depth", &PlatformConfig::closed_loop_depth, 1, 4096},
    Micros{"think_time_us", &PlatformConfig::think_time},
    Flag{"trace_enabled", &PlatformConfig::trace_enabled},
    Flag{"metrics", &PlatformConfig::metrics},
    Integer{"max_sim_events", &PlatformConfig::max_sim_events}};

using platform::ExperimentSpec;
constexpr fields::List kExperiment{"experiment spec",
                                   Text{"name", &ExperimentSpec::name},
                                   Nested{"workload", &ExperimentSpec::workload},
                                   Integer{"total_requests", &ExperimentSpec::total_requests, 1},
                                   Integer{"faults", &ExperimentSpec::faults, 1},
                                   Choice{"mode", &ExperimentSpec::mode},
                                   Millis{"post_ack_delay_ms", &ExperimentSpec::post_ack_delay},
                                   Millis{"fault_jitter_ms", &ExperimentSpec::fault_jitter},
                                   Real{"pace_iops", &ExperimentSpec::pace_iops, 0.0, 1e9},
                                   Integer{"seed", &ExperimentSpec::seed}};

using runner::RunnerConfig;
constexpr fields::List kRunner{
    "runner config",
    Integer{"threads", &RunnerConfig::threads, 0, 1024},
    Flag{"fail_fast", &RunnerConfig::fail_fast},
    Real{"campaign_timeout_seconds", &RunnerConfig::campaign_timeout_seconds, 0.0, 1e9}};

}  // namespace

Value to_json(const WorkloadConfig& cfg) {
  Value v = kWorkload.write(cfg);
  if (cfg.replay.empty()) fields::erase(v, "replay");
  return v;
}

void apply_json(WorkloadConfig& cfg, const Value& v) {
  kWorkload.read(cfg, v);
  if (cfg.max_pages < cfg.min_pages) {
    fail(v, "max_pages",
         "max_pages (" + std::to_string(cfg.max_pages) + ") is below min_pages (" +
             std::to_string(cfg.min_pages) + ")");
  }
  if (cfg.wss_pages < cfg.max_pages) {
    fail(v, "wss_pages",
         "working-set size (" + std::to_string(cfg.wss_pages) +
             " pages) cannot hold a max-sized request (" + std::to_string(cfg.max_pages) +
             " pages)");
  }
}

Value to_json(const Geometry& g) { return kGeometry.write(g); }
void apply_json(Geometry& g, const Value& v) { kGeometry.read(g, v); }
Value to_json(const Chip& cfg) { return kChip.write(cfg); }
void apply_json(Chip& cfg, const Value& v) { kChip.read(cfg, v); }
Value to_json(const Ftl& cfg) { return kFtl.write(cfg); }
void apply_json(Ftl& cfg, const Value& v) { kFtl.read(cfg, v); }
Value to_json(const Cache& cfg) { return kCache.write(cfg); }
void apply_json(Cache& cfg, const Value& v) { kCache.read(cfg, v); }
Value to_json(const SsdConfig& cfg) { return kSsd.write(cfg); }

void apply_json(SsdConfig& cfg, const Value& v) {
  kSsd.read(cfg, v);
  if (cfg.brownout_volts < cfg.cutoff_volts) {
    fail(v, "brownout_volts", "brownout threshold must not be below the cutoff voltage");
  }
}

SsdConfig drive_from_json(const Value& v) {
  if (!v.is_object()) {
    throw Error("expected an object", v.line, v.col, kPreset.context);
  }
  const Value* preset = v.find("preset");
  if (preset == nullptr) {
    SsdConfig cfg;
    apply_json(cfg, v);
    return cfg;
  }
  const auto model = read_enum<ssd::VendorModel>(*preset, "preset");
  // The preset's own knobs build it; every other key overrides the result.
  PresetOptions opts;
  Value rest = Value::object();
  rest.line = v.line;
  rest.col = v.col;
  for (const auto& [key, m] : v.members()) {
    if (&m != preset && !kPreset.read_member(opts, key, m)) rest.set(key, m);
  }
  SsdConfig cfg = ssd::make_preset(model, opts);
  if (!rest.members().empty()) apply_json(cfg, rest);
  return cfg;
}

Value to_json(const Psu& p) { return kPsu.write(p); }
void apply_json(Psu& p, const Value& v) { kPsu.read(p, v); }
Value to_json(const Arduino& p) { return kArduino.write(p); }
void apply_json(Arduino& p, const Value& v) { kArduino.read(p, v); }
Value to_json(const BlockQueue& cfg) { return kBlockQueue.write(cfg); }
void apply_json(BlockQueue& cfg, const Value& v) { kBlockQueue.read(cfg, v); }
Value to_json(const PlatformConfig& cfg) { return kPlatform.write(cfg); }
void apply_json(PlatformConfig& cfg, const Value& v) { kPlatform.read(cfg, v); }

Value to_json(const ExperimentSpec& spec) {
  Value v = kExperiment.write(spec);
  if (spec.seed == ExperimentSpec{}.seed) fields::erase(v, "seed");
  return v;
}

void apply_json(ExperimentSpec& spec, const Value& v) { kExperiment.read(spec, v); }

Value to_json(const RunnerConfig& cfg) { return kRunner.write(cfg); }
void apply_json(RunnerConfig& cfg, const Value& v) { kRunner.read(cfg, v); }

void check_workload_fits(const workload::WorkloadConfig& workload, const ssd::SsdConfig& drive,
                         const Value& parent) {
  const std::uint64_t space = ssd::lpn_space(drive);
  const auto past_end = [space](std::uint64_t first, std::uint64_t pages) {
    return pages > space || first > space - pages;
  };
  const std::string limit = "the drive's LPN space of " + std::to_string(space) + " pages";
  const Value* doc = parent.find("workload");
  const Value& at = doc != nullptr ? *doc : parent;
  if (!workload.replay.empty()) {
    const Value* replay = at.find("replay");
    for (std::size_t i = 0; i < workload.replay.size(); ++i) {
      const workload::RequestSpec& r = workload.replay[i];
      if (past_end(r.lpn, r.pages)) {
        fail(replay != nullptr ? replay->items()[i] : at, "replay",
             "request of " + std::to_string(r.pages) + " pages at LPN " +
                 std::to_string(r.lpn) + " reaches past " + limit);
      }
    }
    return;
  }
  if (past_end(workload.base_lpn, workload.wss_pages)) {
    const Value* wss = at.find("wss_pages");
    fail(wss != nullptr ? *wss : at, "wss_pages",
         "working set of " + std::to_string(workload.wss_pages) + " pages from LPN " +
             std::to_string(workload.base_lpn) + " reaches past " + limit);
  }
}

}  // namespace pofi::spec
