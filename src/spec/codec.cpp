#include "spec/codec.hpp"

#include <cmath>
#include <initializer_list>

namespace pofi::spec {

namespace {

[[noreturn]] void fail(const Value& v, const std::string& key, const std::string& msg) {
  throw Error(msg, v.line, v.col, key);
}

/// Parse one of a fixed set of string forms; the error lists every legal one.
template <typename E>
[[nodiscard]] E read_enum(const Value& v, const std::string& key,
                          std::initializer_list<std::pair<const char*, E>> table) {
  if (!v.is_string()) fail(v, key, "expected a string");
  for (const auto& [name, value] : table) {
    if (v.as_string() == name) return value;
  }
  std::string msg = "expected one of";
  const char* sep = " ";
  for (const auto& [name, value] : table) {
    (void)value;
    msg += sep;
    msg += '"';
    msg += name;
    msg += '"';
    sep = ", ";
  }
  fail(v, key, msg + "; got \"" + v.as_string() + '"');
}

constexpr const char* fault_mode_name(platform::FaultMode m) {
  return m == platform::FaultMode::kFixedDelayAfterAck ? "fixed-delay-after-ack"
                                                       : "random-during-workload";
}

// Largest duration (in ms) that stays exactly representable through the
// double <-> ns round trip: ~2^53 ns ≈ 104 simulated days.
constexpr double kMaxDurationMs = 9.0e9;

}  // namespace

// --- typed readers ----------------------------------------------------------

void for_each_member(const Value& v, const std::string& context,
                     const std::function<bool(const std::string&, const Value&)>& handler) {
  if (!v.is_object()) {
    throw Error("expected an object", v.line, v.col, context);
  }
  for (const auto& [key, member] : v.members()) {
    if (!handler(key, member)) {
      throw Error("unknown key in " + context, member.line, member.col, key);
    }
  }
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

// --- workload ---------------------------------------------------------------

namespace {

Value to_json(const workload::RequestSpec& r) {
  Value v = Value::object();
  v.set("op", workload::to_string(r.op));
  v.set("lpn", std::uint64_t{r.lpn});
  v.set("pages", std::uint64_t{r.pages});
  return v;
}

workload::RequestSpec request_from_json(const Value& v) {
  workload::RequestSpec r;
  for_each_member(v, "replay entry", [&](const std::string& key, const Value& m) {
    if (key == "op") {
      r.op = read_enum<workload::OpType>(m, key,
                                         {{"read", workload::OpType::kRead},
                                          {"write", workload::OpType::kWrite}});
    } else if (key == "lpn") {
      r.lpn = read_u64(m, key);
    } else if (key == "pages") {
      r.pages = read_u32(m, key, 1);
    } else {
      return false;
    }
    return true;
  });
  return r;
}

}  // namespace

Value to_json(const workload::WorkloadConfig& cfg) {
  Value v = Value::object();
  v.set("name", cfg.name);
  v.set("wss_pages", cfg.wss_pages);
  v.set("base_lpn", std::uint64_t{cfg.base_lpn});
  v.set("min_pages", std::uint64_t{cfg.min_pages});
  v.set("max_pages", std::uint64_t{cfg.max_pages});
  v.set("write_fraction", cfg.write_fraction);
  v.set("pattern", workload::to_string(cfg.pattern));
  v.set("sequence", workload::to_string(cfg.sequence));
  v.set("target_iops", cfg.target_iops);
  if (!cfg.replay.empty()) {
    Value replay = Value::array();
    for (const auto& r : cfg.replay) replay.push_back(to_json(r));
    v.set("replay", std::move(replay));
  }
  return v;
}

void apply_json(workload::WorkloadConfig& cfg, const Value& v) {
  for_each_member(v, "workload config", [&](const std::string& key, const Value& m) {
    if (key == "name") {
      cfg.name = read_string(m, key);
    } else if (key == "wss_pages") {
      cfg.wss_pages = read_u64(m, key, 1);
    } else if (key == "base_lpn") {
      cfg.base_lpn = read_u64(m, key);
    } else if (key == "min_pages") {
      cfg.min_pages = read_u32(m, key, 1);
    } else if (key == "max_pages") {
      cfg.max_pages = read_u32(m, key, 1);
    } else if (key == "write_fraction") {
      cfg.write_fraction = read_double(m, key, 0.0, 1.0);
    } else if (key == "pattern") {
      cfg.pattern = read_enum<workload::AccessPattern>(
          m, key,
          {{"random", workload::AccessPattern::kUniformRandom},
           {"sequential", workload::AccessPattern::kSequential}});
    } else if (key == "sequence") {
      cfg.sequence = read_enum<workload::SequenceMode>(
          m, key,
          {{"none", workload::SequenceMode::kNone},
           {"RAR", workload::SequenceMode::kRAR},
           {"RAW", workload::SequenceMode::kRAW},
           {"WAR", workload::SequenceMode::kWAR},
           {"WAW", workload::SequenceMode::kWAW}});
    } else if (key == "target_iops") {
      cfg.target_iops = read_double(m, key, 0.0, 1e9);
    } else if (key == "replay") {
      if (!m.is_array()) fail(m, key, "expected an array of request objects");
      cfg.replay.clear();
      for (const auto& item : m.items()) cfg.replay.push_back(request_from_json(item));
    } else {
      return false;
    }
    return true;
  });
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

// --- nand -------------------------------------------------------------------

Value to_json(const nand::Geometry& g) {
  Value v = Value::object();
  v.set("page_size_bytes", std::uint64_t{g.page_size_bytes});
  v.set("pages_per_block", std::uint64_t{g.pages_per_block});
  v.set("blocks_per_plane", std::uint64_t{g.blocks_per_plane});
  v.set("planes", std::uint64_t{g.planes});
  return v;
}

void apply_json(nand::Geometry& g, const Value& v) {
  for_each_member(v, "nand geometry", [&](const std::string& key, const Value& m) {
    if (key == "page_size_bytes") {
      g.page_size_bytes = read_u32(m, key, 512);
    } else if (key == "pages_per_block") {
      g.pages_per_block = read_u32(m, key, 1);
    } else if (key == "blocks_per_plane") {
      g.blocks_per_plane = read_u32(m, key, 1);
    } else if (key == "planes") {
      g.planes = read_u32(m, key, 1, 64);
    } else {
      return false;
    }
    return true;
  });
}

Value to_json(const nand::NandChip::Config& cfg) {
  Value v = Value::object();
  v.set("geometry", to_json(cfg.geometry));
  v.set("tech", nand::to_string(cfg.tech));
  v.set("ecc", nand::to_string(cfg.ecc));
  v.set("endurance_pe_cycles", std::uint64_t{cfg.endurance_pe_cycles});
  v.set("initial_pe_cycles", std::uint64_t{cfg.initial_pe_cycles});
  v.set("enforce_program_order", cfg.enforce_program_order);
  return v;
}

void apply_json(nand::NandChip::Config& cfg, const Value& v) {
  for_each_member(v, "nand chip config", [&](const std::string& key, const Value& m) {
    if (key == "geometry") {
      apply_json(cfg.geometry, m);
    } else if (key == "tech") {
      cfg.tech = read_enum<nand::CellTech>(m, key,
                                           {{"SLC", nand::CellTech::kSlc},
                                            {"MLC", nand::CellTech::kMlc},
                                            {"TLC", nand::CellTech::kTlc}});
    } else if (key == "ecc") {
      cfg.ecc = read_enum<nand::EccKind>(m, key,
                                         {{"none", nand::EccKind::kNone},
                                          {"BCH", nand::EccKind::kBch},
                                          {"LDPC", nand::EccKind::kLdpc}});
    } else if (key == "endurance_pe_cycles") {
      cfg.endurance_pe_cycles = read_u32(m, key, 1);
    } else if (key == "initial_pe_cycles") {
      cfg.initial_pe_cycles = read_u32(m, key);
    } else if (key == "enforce_program_order") {
      cfg.enforce_program_order = read_bool(m, key);
    } else {
      return false;
    }
    return true;
  });
}

// --- ftl --------------------------------------------------------------------

Value to_json(const ftl::Ftl::Config& cfg) {
  Value v = Value::object();
  v.set("mapping_policy", ftl::to_string(cfg.mapping_policy));
  v.set("journal_interval_ms", duration_to_ms(cfg.journal_interval));
  v.set("journal_batch_threshold", std::uint64_t{cfg.journal_batch_threshold});
  v.set("gc_low_watermark", std::uint64_t{cfg.gc_low_watermark});
  v.set("extent_frame_pages", std::uint64_t{cfg.extent_frame_pages});
  v.set("extent_min_fill", std::uint64_t{cfg.extent_min_fill});
  v.set("map_update_on_issue", cfg.map_update_on_issue);
  v.set("lpn_capacity", cfg.lpn_capacity);
  v.set("por_scan", cfg.por_scan);
  return v;
}

void apply_json(ftl::Ftl::Config& cfg, const Value& v) {
  for_each_member(v, "ftl config", [&](const std::string& key, const Value& m) {
    if (key == "mapping_policy") {
      cfg.mapping_policy = read_enum<ftl::MappingPolicy>(
          m, key,
          {{"page-level", ftl::MappingPolicy::kPageLevel},
           {"hybrid-extent", ftl::MappingPolicy::kHybridExtent}});
    } else if (key == "journal_interval_ms") {
      cfg.journal_interval = read_duration_ms(m, key);
    } else if (key == "journal_batch_threshold") {
      cfg.journal_batch_threshold = read_u64(m, key, 1);
    } else if (key == "gc_low_watermark") {
      cfg.gc_low_watermark = read_u64(m, key, 1);
    } else if (key == "extent_frame_pages") {
      cfg.extent_frame_pages = read_u32(m, key, 1);
    } else if (key == "extent_min_fill") {
      cfg.extent_min_fill = read_u32(m, key, 1);
    } else if (key == "map_update_on_issue") {
      cfg.map_update_on_issue = read_bool(m, key);
    } else if (key == "lpn_capacity") {
      cfg.lpn_capacity = read_u64(m, key);
    } else if (key == "por_scan") {
      cfg.por_scan = read_bool(m, key);
    } else {
      return false;
    }
    return true;
  });
}

// --- ssd --------------------------------------------------------------------

Value to_json(const ssd::WriteCache::Config& cfg) {
  Value v = Value::object();
  v.set("capacity_pages", std::uint64_t{cfg.capacity_pages});
  v.set("hold_time_ms", duration_to_ms(cfg.hold_time));
  v.set("flush_ways", std::uint64_t{cfg.flush_ways});
  v.set("high_watermark", cfg.high_watermark);
  v.set("flush_scramble_window", std::uint64_t{cfg.flush_scramble_window});
  return v;
}

void apply_json(ssd::WriteCache::Config& cfg, const Value& v) {
  for_each_member(v, "write cache config", [&](const std::string& key, const Value& m) {
    if (key == "capacity_pages") {
      cfg.capacity_pages = read_u64(m, key, 1);
    } else if (key == "hold_time_ms") {
      cfg.hold_time = read_duration_ms(m, key);
    } else if (key == "flush_ways") {
      cfg.flush_ways = read_u32(m, key, 1);
    } else if (key == "high_watermark") {
      cfg.high_watermark = read_double(m, key, 0.01, 1.0);
    } else if (key == "flush_scramble_window") {
      cfg.flush_scramble_window = read_u32(m, key, 1);
    } else {
      return false;
    }
    return true;
  });
}

Value to_json(const ssd::SsdConfig& cfg) {
  Value v = Value::object();
  v.set("model", cfg.model);
  v.set("channels", std::uint64_t{cfg.channels});
  v.set("chip", to_json(cfg.chip));
  v.set("ftl", to_json(cfg.ftl));
  v.set("cache", to_json(cfg.cache));
  v.set("cache_enabled", cfg.cache_enabled);
  v.set("plp", cfg.plp);
  v.set("plp_hold_ms", duration_to_ms(cfg.plp_hold));
  v.set("load_amps", cfg.load_amps);
  v.set("cutoff_volts", cfg.cutoff_volts);
  v.set("brownout_volts", cfg.brownout_volts);
  v.set("queue_depth", std::uint64_t{cfg.queue_depth});
  v.set("link_mb_per_s", cfg.link_mb_per_s);
  v.set("command_overhead_us", duration_to_us(cfg.command_overhead));
  v.set("mount_delay_ms", duration_to_ms(cfg.mount_delay));
  v.set("capacity_gb", std::uint64_t{cfg.capacity_gb});
  v.set("interface", cfg.interface_name);
  v.set("release_year", static_cast<std::int64_t>(cfg.release_year));
  return v;
}

void apply_json(ssd::SsdConfig& cfg, const Value& v) {
  for_each_member(v, "ssd config", [&](const std::string& key, const Value& m) {
    if (key == "model") {
      cfg.model = read_string(m, key);
    } else if (key == "channels") {
      cfg.channels = read_u32(m, key, 1, 64);
    } else if (key == "chip") {
      apply_json(cfg.chip, m);
    } else if (key == "ftl") {
      apply_json(cfg.ftl, m);
    } else if (key == "cache") {
      apply_json(cfg.cache, m);
    } else if (key == "cache_enabled") {
      cfg.cache_enabled = read_bool(m, key);
    } else if (key == "plp") {
      cfg.plp = read_bool(m, key);
    } else if (key == "plp_hold_ms") {
      cfg.plp_hold = read_duration_ms(m, key);
    } else if (key == "load_amps") {
      cfg.load_amps = read_double(m, key, 0.001, 100.0);
    } else if (key == "cutoff_volts") {
      cfg.cutoff_volts = read_double(m, key, 0.0, 12.0);
    } else if (key == "brownout_volts") {
      cfg.brownout_volts = read_double(m, key, 0.0, 12.0);
    } else if (key == "queue_depth") {
      cfg.queue_depth = read_u32(m, key, 1, 4096);
    } else if (key == "link_mb_per_s") {
      cfg.link_mb_per_s = read_double(m, key, 0.1, 1e6);
    } else if (key == "command_overhead_us") {
      cfg.command_overhead = read_duration_us(m, key);
    } else if (key == "mount_delay_ms") {
      cfg.mount_delay = read_duration_ms(m, key);
    } else if (key == "capacity_gb") {
      cfg.capacity_gb = read_u32(m, key, 1);
    } else if (key == "interface") {
      cfg.interface_name = read_string(m, key);
    } else if (key == "release_year") {
      cfg.release_year = static_cast<int>(read_u32(m, key, 0, 3000));
    } else {
      return false;
    }
    return true;
  });
  if (cfg.brownout_volts < cfg.cutoff_volts) {
    fail(v, "brownout_volts",
         "brownout threshold must not be below the cutoff voltage");
  }
}

ssd::SsdConfig drive_from_json(const Value& v) {
  if (!v.is_object()) {
    throw Error("expected an object", v.line, v.col, "drive");
  }
  const Value* preset = v.find("preset");
  if (preset == nullptr) {
    ssd::SsdConfig cfg;
    apply_json(cfg, v);
    return cfg;
  }
  const auto model = read_enum<ssd::VendorModel>(*preset, "preset",
                                                 {{"A", ssd::VendorModel::kA},
                                                  {"B", ssd::VendorModel::kB},
                                                  {"C", ssd::VendorModel::kC}});
  ssd::PresetOptions opts;
  Value rest = Value::object();
  rest.line = v.line;
  rest.col = v.col;
  for (const auto& [key, m] : v.members()) {
    if (key == "preset") {
      continue;
    } else if (key == "cache_enabled") {
      opts.cache_enabled = read_bool(m, key);
    } else if (key == "plp") {
      opts.plp = read_bool(m, key);
    } else if (key == "por_scan") {
      opts.por_scan = read_bool(m, key);
    } else if (key == "preage_pe_cycles") {
      opts.preage_pe_cycles = read_u32(m, key);
    } else if (key == "mapping_policy") {
      opts.mapping_policy = read_enum<ftl::MappingPolicy>(
          m, key,
          {{"page-level", ftl::MappingPolicy::kPageLevel},
           {"hybrid-extent", ftl::MappingPolicy::kHybridExtent}});
    } else if (key == "capacity_gb") {
      opts.capacity_override_gb = read_u32(m, key, 1);
    } else {
      rest.set(key, m);
    }
  }
  ssd::SsdConfig cfg = ssd::make_preset(model, opts);
  if (!rest.members().empty()) apply_json(cfg, rest);
  return cfg;
}

// --- psu / platform ---------------------------------------------------------

Value to_json(const psu::PowerSupply::Params& p) {
  Value v = Value::object();
  v.set("nominal_volts", p.nominal_volts);
  v.set("rise_time_ms", duration_to_ms(p.rise_time));
  return v;
}

void apply_json(psu::PowerSupply::Params& p, const Value& v) {
  for_each_member(v, "psu params", [&](const std::string& key, const Value& m) {
    if (key == "nominal_volts") {
      p.nominal_volts = read_double(m, key, 0.1, 48.0);
    } else if (key == "rise_time_ms") {
      p.rise_time = read_duration_ms(m, key);
    } else {
      return false;
    }
    return true;
  });
}

Value to_json(const psu::ArduinoBridge::Params& p) {
  Value v = Value::object();
  v.set("command_latency_us", duration_to_us(p.command_latency));
  v.set("jitter_us", duration_to_us(p.jitter));
  return v;
}

void apply_json(psu::ArduinoBridge::Params& p, const Value& v) {
  for_each_member(v, "arduino params", [&](const std::string& key, const Value& m) {
    if (key == "command_latency_us") {
      p.command_latency = read_duration_us(m, key);
    } else if (key == "jitter_us") {
      p.jitter = read_duration_us(m, key);
    } else {
      return false;
    }
    return true;
  });
}

Value to_json(const blk::BlockQueue::Config& cfg) {
  Value v = Value::object();
  v.set("max_pages_per_subrequest", std::uint64_t{cfg.max_pages_per_subrequest});
  v.set("request_timeout_ms", duration_to_ms(cfg.request_timeout));
  return v;
}

void apply_json(blk::BlockQueue::Config& cfg, const Value& v) {
  for_each_member(v, "block queue config", [&](const std::string& key, const Value& m) {
    if (key == "max_pages_per_subrequest") {
      cfg.max_pages_per_subrequest = read_u32(m, key, 1);
    } else if (key == "request_timeout_ms") {
      cfg.request_timeout = read_duration_ms(m, key);
    } else {
      return false;
    }
    return true;
  });
}

Value to_json(const platform::PlatformConfig& cfg) {
  Value v = Value::object();
  v.set("discharge", psu::to_string(cfg.discharge));
  v.set("psu", to_json(cfg.psu));
  v.set("arduino", to_json(cfg.arduino));
  v.set("block_queue", to_json(cfg.block_queue));
  v.set("post_fault_dwell_ms", duration_to_ms(cfg.post_fault_dwell));
  v.set("closed_loop_depth", std::uint64_t{cfg.closed_loop_depth});
  v.set("think_time_us", duration_to_us(cfg.think_time));
  v.set("trace_enabled", cfg.trace_enabled);
  v.set("metrics", cfg.metrics);
  v.set("max_sim_events", cfg.max_sim_events);
  return v;
}

void apply_json(platform::PlatformConfig& cfg, const Value& v) {
  for_each_member(v, "platform config", [&](const std::string& key, const Value& m) {
    if (key == "discharge") {
      cfg.discharge = read_enum<psu::DischargeKind>(
          m, key,
          {{"power-law", psu::DischargeKind::kPowerLaw},
           {"exponential", psu::DischargeKind::kExponential},
           {"instant", psu::DischargeKind::kInstant}});
    } else if (key == "psu") {
      apply_json(cfg.psu, m);
    } else if (key == "arduino") {
      apply_json(cfg.arduino, m);
    } else if (key == "block_queue") {
      apply_json(cfg.block_queue, m);
    } else if (key == "post_fault_dwell_ms") {
      cfg.post_fault_dwell = read_duration_ms(m, key);
    } else if (key == "closed_loop_depth") {
      cfg.closed_loop_depth = read_u32(m, key, 1, 4096);
    } else if (key == "think_time_us") {
      cfg.think_time = read_duration_us(m, key);
    } else if (key == "trace_enabled") {
      cfg.trace_enabled = read_bool(m, key);
    } else if (key == "metrics") {
      cfg.metrics = read_bool(m, key);
    } else if (key == "max_sim_events") {
      cfg.max_sim_events = read_u64(m, key);
    } else {
      return false;
    }
    return true;
  });
}

// --- experiment -------------------------------------------------------------

Value to_json(const platform::ExperimentSpec& spec) {
  Value v = Value::object();
  v.set("name", spec.name);
  v.set("workload", to_json(spec.workload));
  v.set("total_requests", spec.total_requests);
  v.set("faults", std::uint64_t{spec.faults});
  v.set("mode", fault_mode_name(spec.mode));
  v.set("post_ack_delay_ms", duration_to_ms(spec.post_ack_delay));
  v.set("fault_jitter_ms", duration_to_ms(spec.fault_jitter));
  v.set("pace_iops", spec.pace_iops);
  if (spec.seed != platform::ExperimentSpec{}.seed) {
    v.set("seed", spec.seed);
  }
  return v;
}

void apply_json(platform::ExperimentSpec& spec, const Value& v) {
  for_each_member(v, "experiment spec", [&](const std::string& key, const Value& m) {
    if (key == "name") {
      spec.name = read_string(m, key);
    } else if (key == "workload") {
      apply_json(spec.workload, m);
    } else if (key == "total_requests") {
      spec.total_requests = read_u64(m, key, 1);
    } else if (key == "faults") {
      spec.faults = read_u32(m, key, 1);
    } else if (key == "mode") {
      spec.mode = read_enum<platform::FaultMode>(
          m, key,
          {{"random-during-workload", platform::FaultMode::kRandomDuringWorkload},
           {"fixed-delay-after-ack", platform::FaultMode::kFixedDelayAfterAck}});
    } else if (key == "post_ack_delay_ms") {
      spec.post_ack_delay = read_duration_ms(m, key);
    } else if (key == "fault_jitter_ms") {
      spec.fault_jitter = read_duration_ms(m, key);
    } else if (key == "pace_iops") {
      spec.pace_iops = read_double(m, key, 0.0, 1e9);
    } else if (key == "seed") {
      spec.seed = read_u64(m, key);
    } else {
      return false;
    }
    return true;
  });
}

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

// --- runner -----------------------------------------------------------------

Value to_json(const runner::RunnerConfig& cfg) {
  Value v = Value::object();
  v.set("threads", std::uint64_t{cfg.threads});
  v.set("fail_fast", cfg.fail_fast);
  v.set("campaign_timeout_seconds", cfg.campaign_timeout_seconds);
  return v;
}

void apply_json(runner::RunnerConfig& cfg, const Value& v) {
  for_each_member(v, "runner config", [&](const std::string& key, const Value& m) {
    if (key == "threads") {
      cfg.threads = read_u32(m, key, 0, 1024);
    } else if (key == "fail_fast") {
      cfg.fail_fast = read_bool(m, key);
    } else if (key == "campaign_timeout_seconds") {
      cfg.campaign_timeout_seconds = read_double(m, key, 0.0, 1e9);
    } else {
      return false;
    }
    return true;
  });
}

}  // namespace pofi::spec
