// JSON codec round-trips and validation errors for the public config structs.
//
// Round-trips are checked through canonical(): to_json(cfg) and
// to_json(apply_json(default, to_json(cfg))) must serialise to identical
// bytes, so every field either survives the trip or the test names it.
#include <gtest/gtest.h>

#include <string>

#include "off_default.hpp"
#include "spec/codec.hpp"
#include "spec/value.hpp"
#include "ssd/presets.hpp"
#include "torture/torture_spec.hpp"

namespace pofi::spec {
namespace {

/// Generic round-trip: serialise, apply onto a default, serialise again.
template <typename Cfg>
void expect_round_trip(const Cfg& cfg) {
  const Value j = to_json(cfg);
  Cfg back{};
  apply_json(back, j);
  EXPECT_EQ(canonical(to_json(back)), canonical(j));
}

TEST(SpecCodec, WorkloadRoundTrip) {
  workload::WorkloadConfig cfg;
  expect_round_trip(cfg);  // defaults
  cfg.name = "fig7";
  cfg.wss_pages = 4'194'304;
  cfg.min_pages = 4;
  cfg.max_pages = 4;
  cfg.write_fraction = 0.7;
  cfg.pattern = workload::AccessPattern::kSequential;
  cfg.sequence = workload::SequenceMode::kRAW;
  cfg.target_iops = 1200.0;
  expect_round_trip(cfg);
}

TEST(SpecCodec, WorkloadPartialOverrideKeepsBase) {
  workload::WorkloadConfig cfg;
  cfg.max_pages = 99;
  apply_json(cfg, parse(R"({"write_fraction": 0.25})"));
  EXPECT_DOUBLE_EQ(cfg.write_fraction, 0.25);
  EXPECT_EQ(cfg.max_pages, 99U);  // untouched: every key is optional
}

TEST(SpecCodec, SsdConfigRoundTripForEveryPreset) {
  for (const auto model :
       {ssd::VendorModel::kA, ssd::VendorModel::kB, ssd::VendorModel::kC}) {
    SCOPED_TRACE(static_cast<int>(model));
    expect_round_trip(ssd::make_preset(model));
  }
}

TEST(SpecCodec, ExperimentRoundTripAndSeedOmission) {
  platform::ExperimentSpec spec;
  expect_round_trip(spec);
  // The default seed is omitted on output so dumped campaigns keep per-entry
  // seed derivation instead of freezing 42 into every row.
  EXPECT_EQ(to_json(spec).find("seed"), nullptr);
  spec.seed = 1234;
  const Value j = to_json(spec);
  ASSERT_NE(j.find("seed"), nullptr);
  EXPECT_EQ(j.find("seed")->as_uint(), 1234U);
  expect_round_trip(spec);
}

TEST(SpecCodec, PlatformAndRunnerRoundTrip) {
  platform::PlatformConfig pc;
  pc.trace_enabled = true;
  expect_round_trip(pc);

  runner::RunnerConfig rc;
  rc.threads = 7;
  expect_round_trip(rc);
}

TEST(SpecCodec, DriveFromJsonPresetFormMatchesMakePreset) {
  const Value j = parse(R"({"preset": "B"})");
  const ssd::SsdConfig got = drive_from_json(j);
  EXPECT_EQ(canonical(to_json(got)), canonical(to_json(ssd::make_preset(ssd::VendorModel::kB))));
}

TEST(SpecCodec, DriveFromJsonAppliesPresetKnobsAndOverrides) {
  const Value j = parse(R"({
    "preset": "A",
    "capacity_gb": 1,
    "plp": true,
    "mapping_policy": "page-level",
    "model": "SSD-A+PLP",
    "mount_delay_ms": 100.0
  })");
  const ssd::SsdConfig got = drive_from_json(j);

  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  opts.plp = true;
  opts.mapping_policy = ftl::MappingPolicy::kPageLevel;
  ssd::SsdConfig want = ssd::make_preset(ssd::VendorModel::kA, opts);
  want.model = "SSD-A+PLP";
  want.mount_delay = sim::Duration::ms(100);
  EXPECT_EQ(canonical(to_json(got)), canonical(to_json(want)));
}

TEST(SpecCodec, DriveFromJsonFullConfigForm) {
  // No "preset" key: the object is a complete SsdConfig override set.
  const Value j = to_json(ssd::make_preset(ssd::VendorModel::kC));
  const ssd::SsdConfig got = drive_from_json(j);
  EXPECT_EQ(canonical(to_json(got)), canonical(j));
}

// --- every field off its default -------------------------------------------

workload::WorkloadConfig off_default_workload() {
  workload::WorkloadConfig w;
  w.name = "off-default";
  w.wss_pages = 1ULL << 19;
  w.base_lpn = 4096;
  w.min_pages = 2;
  w.max_pages = 8;
  w.write_fraction = 0.5;
  w.pattern = workload::AccessPattern::kSequential;
  w.sequence = workload::SequenceMode::kWAR;
  w.target_iops = 750.0;
  w.replay = {{workload::OpType::kRead, 11, 3}, {workload::OpType::kRead, 12, 2}};
  return w;
}

ssd::SsdConfig off_default_drive() {
  ssd::SsdConfig d;
  d.model = "off-default";
  d.channels = 2;
  d.chip.geometry = {4096, 128, 512, 2};
  d.chip.tech = nand::CellTech::kTlc;
  d.chip.ecc = nand::EccKind::kLdpc;
  d.chip.endurance_pe_cycles = 1500;
  d.chip.initial_pe_cycles = 10;
  d.chip.enforce_program_order = false;
  d.ftl.mapping_policy = ftl::MappingPolicy::kPageLevel;
  d.ftl.journal_interval = sim::Duration::ms(25);
  d.ftl.journal_batch_threshold = 1024;
  d.ftl.gc_low_watermark = 9;
  d.ftl.extent_frame_pages = 1024;
  d.ftl.extent_min_fill = 300;
  d.ftl.map_update_on_issue = false;
  d.ftl.lpn_capacity = 1ULL << 20;
  d.ftl.por_scan = true;
  d.cache.capacity_pages = 1024;
  d.cache.hold_time = sim::Duration::ms(250);
  d.cache.flush_ways = 4;
  d.cache.high_watermark = 0.5;
  d.cache.flush_scramble_window = 8;
  d.cache_enabled = false;
  d.plp = true;
  d.plp_hold = sim::Duration::ms(200);
  d.load_amps = 0.75;
  d.cutoff_volts = 4.25;
  d.brownout_volts = 4.6;
  d.queue_depth = 16;
  d.link_mb_per_s = 300.0;
  d.command_overhead = sim::Duration::us(35);
  d.mount_delay = sim::Duration::ms(400);
  d.capacity_gb = 64;
  d.interface_name = "NVMe";
  d.release_year = 2019;
  return d;
}

platform::PlatformConfig off_default_platform() {
  platform::PlatformConfig p;
  p.discharge = psu::DischargeKind::kExponential;
  p.psu.nominal_volts = 12.0;
  p.psu.rise_time = sim::Duration::ms(50);
  p.arduino.command_latency = sim::Duration::us(900);
  p.arduino.jitter = sim::Duration::us(150);
  p.block_queue.max_pages_per_subrequest = 32;
  p.block_queue.request_timeout = sim::Duration::ms(10'000);
  p.post_fault_dwell = sim::Duration::ms(150);
  p.closed_loop_depth = 8;
  p.think_time = sim::Duration::us(25);
  p.trace_enabled = true;
  p.metrics = true;
  p.max_sim_events = 1'000'000;
  return p;
}

runner::RunnerConfig off_default_runner() {
  runner::RunnerConfig r;
  r.threads = 3;
  r.fail_fast = true;
  r.campaign_timeout_seconds = 60.0;
  return r;
}

template <typename Cfg>
void expect_off_default_round_trip(const Cfg& cfg) {
  expect_every_leaf_differs(to_json(cfg), to_json(Cfg{}));
  expect_round_trip(cfg);
}

TEST(SpecCodec, EveryFieldOffDefaultRoundTrips) {
  expect_off_default_round_trip(off_default_workload());
  expect_off_default_round_trip(off_default_drive());
  expect_off_default_round_trip(off_default_platform());
  expect_off_default_round_trip(off_default_runner());

  platform::ExperimentSpec e;
  e.name = "off-default";
  e.workload = off_default_workload();
  e.total_requests = 500;
  e.faults = 5;
  e.mode = platform::FaultMode::kFixedDelayAfterAck;
  e.post_ack_delay = sim::Duration::ms(3);
  e.fault_jitter = sim::Duration::ms(50);
  e.pace_iops = 20.0;
  e.seed = 7;
  expect_off_default_round_trip(e);

  // The replay entries: each differs from a default RequestSpec.
  const Value replay = *to_json(e.workload).find("replay");
  for (const Value& r : replay.items()) {
    workload::WorkloadConfig one;
    one.replay = {workload::RequestSpec{}};
    expect_every_leaf_differs(r, to_json(one).find("replay")->items()[0]);
  }
}

TEST(SpecCodec, EveryPresetKnobOffDefaultApplies) {
  ssd::PresetOptions opts;
  opts.cache_enabled = false;
  opts.plp = true;
  opts.por_scan = true;
  opts.preage_pe_cycles = 100;
  opts.mapping_policy = ftl::MappingPolicy::kPageLevel;
  opts.capacity_override_gb = 2;
  const ssd::SsdConfig got = drive_from_json(parse(R"({"preset": "C", "cache_enabled": false,
      "plp": true, "por_scan": true, "preage_pe_cycles": 100,
      "mapping_policy": "page-level", "capacity_gb": 2})"));
  const ssd::SsdConfig want = ssd::make_preset(ssd::VendorModel::kC, opts);
  EXPECT_EQ(canonical(to_json(got)), canonical(to_json(want)));
  EXPECT_NE(canonical(to_json(want)), canonical(to_json(ssd::make_preset(ssd::VendorModel::kC))));
}

torture::TortureConfig off_default_torture() {
  torture::TortureConfig t;
  t.name = "off-default";
  t.seed = 9;
  t.drive = off_default_drive();
  t.platform = off_default_platform();
  t.workload = off_default_workload();
  t.requests = 32;
  t.pace_iops = 500.0;
  t.window_first = 3;
  t.window_count = 40;
  t.stride = 2;
  t.shard_points = 4;
  t.injection = torture::Injection::kCommandOff;
  t.break_recovery = true;
  t.shrink = false;
  t.snapshot_interval = 128;
  t.runner = off_default_runner();
  return t;
}

TEST(SpecCodec, TortureConfigEveryFieldOffDefaultRoundTrips) {
  const torture::TortureConfig cfg = off_default_torture();
  const Value j = torture::to_json(cfg);
  expect_every_leaf_differs(j, torture::to_json(torture::TortureConfig{}));
  const torture::TortureConfig back = torture::load_torture(parse(canonical(j)));
  EXPECT_EQ(canonical(torture::to_json(back)), canonical(j));
  EXPECT_EQ(torture::torture_hash(back), torture::torture_hash(cfg));
}

// --- emitted key order ------------------------------------------------------

/// Hash of the human-oriented dump: unlike content_hash it sees key order,
/// which --repro-out, --dump-spec and --metrics files expose.
std::string dump_hash(const Value& v) { return hash_string(content_hash(Value(dump(v)))); }

TEST(SpecCodec, EmittedKeyOrderIsPinned) {
  const std::string smoke = std::string(POFI_SPEC_DIR) + "/torture_smoke.json";
  EXPECT_EQ(dump_hash(torture::to_json(torture::load_torture_file(smoke))), "fnv1a:c7ed5141fc2549c6");
  EXPECT_EQ(dump_hash(to_json(ssd::make_preset(ssd::VendorModel::kB))), "fnv1a:a3db80b324b655f1");
  EXPECT_EQ(dump_hash(torture::to_json(off_default_torture())), "fnv1a:4d51f58691e88ee6");
}

// --- validation errors ------------------------------------------------------

TEST(SpecCodec, UnknownKeyNamesKeyAndLine) {
  workload::WorkloadConfig cfg;
  try {
    apply_json(cfg, parse("{\n  \"wss_pages\": 10,\n  \"bogus_knob\": 1\n}"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "bogus_knob");
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos);
  }
}

TEST(SpecCodec, OutOfRangeNamesKey) {
  workload::WorkloadConfig cfg;
  try {
    apply_json(cfg, parse(R"({"write_fraction": 1.5})"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "write_fraction");
  }
}

TEST(SpecCodec, WrongTypeNamesKey) {
  workload::WorkloadConfig cfg;
  try {
    apply_json(cfg, parse(R"({"wss_pages": "lots"})"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "wss_pages");
  }
}

TEST(SpecCodec, BadEnumStringNamesKey) {
  workload::WorkloadConfig cfg;
  EXPECT_THROW(apply_json(cfg, parse(R"({"pattern": "zigzag"})")), Error);
  try {
    apply_json(cfg, parse(R"({"sequence": "WAWW"})"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "sequence");
  }
}

TEST(SpecCodec, BadPresetLetterIsAnError) {
  EXPECT_THROW((void)drive_from_json(parse(R"({"preset": "Z"})")), Error);
  EXPECT_THROW((void)drive_from_json(parse(R"([1, 2])")), Error);
}

TEST(SpecCodec, NonObjectInputNamesContext) {
  workload::WorkloadConfig cfg;
  try {
    apply_json(cfg, parse("[]"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected an object"), std::string::npos);
  }
}

// --- typed readers ----------------------------------------------------------

TEST(SpecCodec, DurationsRoundTripLosslessly) {
  for (const double ms : {0.0, 0.25, 100.0, 599.5, 86'400'000.0}) {
    const sim::Duration d = read_duration_ms(Value(ms), "t");
    EXPECT_DOUBLE_EQ(duration_to_ms(d), ms);
  }
  const sim::Duration us = read_duration_us(Value(12.5), "t");
  EXPECT_DOUBLE_EQ(duration_to_us(us), 12.5);
}

TEST(SpecCodec, ReadersEnforceRanges) {
  EXPECT_EQ(read_u64(Value(std::uint64_t{7}), "k"), 7U);
  EXPECT_THROW((void)read_u64(Value(5), "k", 10, 20), Error);
  EXPECT_THROW((void)read_u32(Value(std::uint64_t{1} << 40), "k"), Error);
  EXPECT_THROW((void)read_double(Value(2.0), "k", 0.0, 1.0), Error);
  EXPECT_THROW((void)read_bool(Value(1), "k"), Error);
  EXPECT_THROW((void)read_string(Value(true), "k"), Error);
}

}  // namespace
}  // namespace pofi::spec
