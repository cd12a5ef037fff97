// A/B determinism regression for the event kernel and the L2P hot path.
//
// The golden hashes below were captured against the PR-1 kernel
// (std::function callbacks + std::priority_queue + unordered_map L2P) and
// pin the simulation's observable output bit-for-bit: every ExperimentResult
// field (doubles serialised as exact hexfloat bits), every FailureRecord and
// the full blktrace event stream. Any kernel or mapping rework that changes
// event order, RNG consumption or mapping semantics — however slightly —
// flips a hash. Regenerate only for *intentional* semantic changes, via
//   POFI_PRINT_GOLDEN=1 ./determinism_golden_test
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "blk/queue.hpp"
#include "blk/trace_text.hpp"
#include "obs/metrics.hpp"
#include "platform/test_platform.hpp"
#include "psu/power_supply.hpp"
#include "spec/campaign.hpp"
#include "spec/checkpoint.hpp"
#include "ssd/presets.hpp"
#include "torture/harness.hpp"
#include "torture/torture_spec.hpp"
#include "workload/checksum.hpp"

namespace pofi::platform {
namespace {

std::uint64_t hash_str(const std::string& s) {
  return workload::fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Canonical, lossless serialisation of a campaign result. Doubles go out as
/// hexfloat so "equal" means bit-equal, not printf-rounded-equal.
std::string canonical(const ExperimentResult& r) {
  std::string out;
  appendf(out, "name=%s\n", r.name.c_str());
  appendf(out, "requests=%" PRIu64 " acks=%" PRIu64 " reads=%" PRIu64 " faults=%u\n",
          r.requests_submitted, r.write_acks, r.reads_completed, r.faults_injected);
  appendf(out, "data=%" PRIu64 " fwa=%" PRIu64 " io=%" PRIu64 " ok=%" PRIu64
               " mismatch=%" PRIu64 "\n",
          r.data_failures, r.fwa_failures, r.io_errors, r.verified_ok,
          r.read_mismatches);
  appendf(out, "iops=%a/%a lat=%a/%a active=%a sim=%a\n", r.requested_iops,
          r.responded_iops, r.mean_latency_us, r.max_latency_us, r.active_seconds,
          r.sim_seconds);
  appendf(out, "dirty_lost=%" PRIu64 " interrupted=%" PRIu64 " upsets=%" PRIu64
               " reverted=%" PRIu64 " uncorrectable=%" PRIu64 "\n",
          r.cache_dirty_lost, r.interrupted_programs, r.paired_page_upsets,
          r.map_updates_reverted, r.uncorrectable_reads);
  for (const auto& f : r.failures) {
    appendf(out, "fail id=%" PRIu64 " type=%s fault=%u dt=%a garbage=%u reverted=%u\n",
            f.packet_id, to_string(f.type), f.fault_index, f.ack_to_fault_ms,
            f.pages_garbage, f.pages_reverted);
  }
  return out;
}

/// Canonical serialisation of an obs snapshot, hexfloat doubles like
/// canonical() above. Empty (and so fingerprint-neutral) when metrics are
/// off.
std::string canonical_metrics(const obs::Snapshot& s) {
  std::string out;
  for (const auto& c : s.counters) appendf(out, "c %s=%" PRIu64 "\n", c.name.c_str(), c.value);
  for (const auto& g : s.gauges) {
    appendf(out, "g %s=%" PRIu64 "/%" PRIu64 "\n", g.name.c_str(), g.last, g.high_water);
  }
  for (const auto& h : s.histograms) {
    appendf(out, "h %s total=%" PRIu64, h.name.c_str(), h.total);
    for (const std::uint64_t n : h.counts) appendf(out, " %" PRIu64, n);
    out += '\n';
  }
  for (const auto& sr : s.series) {
    appendf(out, "s %s dropped=%" PRIu64, sr.name.c_str(), sr.dropped);
    for (const auto& sample : sr.samples) {
      appendf(out, " %" PRId64 ":%a", sample.t_ns, sample.value);
    }
    out += '\n';
  }
  for (const auto& sp : s.spans) {
    appendf(out, "span %s<%s %" PRId64 "-%" PRId64 "\n", sp.name.c_str(),
            sp.parent.c_str(), sp.begin_ns, sp.end_ns);
  }
  appendf(out, "spans_dropped=%" PRIu64 "\n", s.spans_dropped);
  return out;
}

struct CampaignHashes {
  std::uint64_t result;
  std::uint64_t trace;
};

/// The blktrace half of the A/B check: a deterministic read/write mix
/// through Ssd + BlockQueue with tracing on and a mid-stream power fault.
/// The campaign path clears its trace every power cycle, so the event
/// stream is pinned here where it survives to the end.
std::uint64_t trace_hash(std::uint64_t seed) {
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  auto drive = ssd::make_preset(ssd::VendorModel::kA, opts);
  drive.mount_delay = sim::Duration::ms(20);

  sim::Simulator sim(seed);
  psu::PowerSupply psu(sim, std::make_unique<psu::PowerLawDischarge>());
  ssd::Ssd ssd(sim, drive);
  blk::BlockQueue queue(sim, ssd);
  queue.trace().set_enabled(true);
  psu.attach(ssd);
  psu.power_on();
  while (!ssd.ready() && !sim.idle()) sim.run_all(1);

  sim::Rng rng(seed * 31 + 1);
  int outstanding = 0;
  for (int i = 0; i < 400; ++i) {
    const auto lpn = rng.below(16'384);
    const auto pages = 1 + static_cast<std::uint32_t>(rng.below(96));
    if (rng.chance(0.7)) {
      std::vector<std::uint64_t> tags(pages, 0x1000 + static_cast<std::uint64_t>(i));
      queue.submit_write(lpn, std::move(tags),
                         [&outstanding](blk::RequestOutcome) { --outstanding; });
    } else {
      queue.submit_read(lpn, pages,
                        [&outstanding](blk::RequestOutcome) { --outstanding; });
    }
    ++outstanding;
    sim.run_for(sim::Duration::us(200));
    if (i == 250) psu.power_off();  // fault mid-stream: IO errors land in the trace
  }
  sim.run_all(4'000'000);
  return hash_str(blk::to_text(queue.trace()));
}

ExperimentResult run_golden_campaign(ssd::VendorModel model, ftl::MappingPolicy policy,
                                     std::uint64_t seed, bool metrics,
                                     sim::BoundaryProbe* probe) {
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  opts.mapping_policy = policy;
  auto drive = ssd::make_preset(model, opts);
  drive.mount_delay = sim::Duration::ms(100);

  PlatformConfig pc;
  pc.trace_enabled = true;
  pc.metrics = metrics;

  ExperimentSpec spec;
  spec.name = "golden";
  spec.workload.wss_pages = (256ULL << 20) / 4096;  // 256 MiB
  spec.workload.min_pages = 1;
  spec.workload.max_pages = 64;
  spec.workload.write_fraction = 0.8;
  spec.faults = 4;
  spec.total_requests = 4 * 60ULL;
  spec.pace_iops = 30.0;
  spec.seed = seed;

  TestPlatform tp(drive, pc, seed);
  tp.simulator().set_boundary_probe(probe);
  return tp.run(spec);
}

CampaignHashes run_hashed(ssd::VendorModel model, ftl::MappingPolicy policy,
                          std::uint64_t seed, bool metrics = false,
                          sim::BoundaryProbe* probe = nullptr) {
  const auto result = run_golden_campaign(model, policy, seed, metrics, probe);
  return CampaignHashes{hash_str(canonical(result)), trace_hash(seed)};
}

struct GoldenCase {
  ssd::VendorModel model;
  ftl::MappingPolicy policy;
  std::uint64_t seed;
  CampaignHashes expect;
  std::uint64_t metrics;  ///< canonical_metrics() of the run with metrics on
};

// Result and trace hashes were captured against the pre-rework kernel (see
// file header); the metrics hashes against the push-counter registry, before
// layer counters became snapshot-time reads of their Stats structs.
const GoldenCase kGolden[] = {
    {ssd::VendorModel::kA, ftl::MappingPolicy::kHybridExtent, 42,
     {0x66785AE8EECBA82AULL, 0x770E7179CFE25617ULL}, 0xCFB664017AE3185CULL},
    {ssd::VendorModel::kA, ftl::MappingPolicy::kPageLevel, 7,
     {0xB5FA478E0F1FA5B6ULL, 0x0D34049E4413F8F2ULL}, 0x4705012E0FD28202ULL},
    {ssd::VendorModel::kB, ftl::MappingPolicy::kHybridExtent, 1234,
     {0x1DD7BF134C36FDF3ULL, 0xDAD29F043F34BDA7ULL}, 0x85E8041D4604B02CULL},
};

TEST(DeterminismGolden, CampaignRowsAndTracesMatchPreReworkKernel) {
  const bool print = std::getenv("POFI_PRINT_GOLDEN") != nullptr;
  for (const auto& g : kGolden) {
    const auto got = run_hashed(g.model, g.policy, g.seed);
    if (print) {
      std::printf("golden model=%d policy=%d seed=%" PRIu64
                  " result=0x%016" PRIX64 "ULL trace=0x%016" PRIX64 "ULL\n",
                  static_cast<int>(g.model), static_cast<int>(g.policy), g.seed,
                  got.result, got.trace);
      continue;
    }
    EXPECT_EQ(got.result, g.expect.result)
        << "ExperimentResult drifted (model=" << static_cast<int>(g.model)
        << " seed=" << g.seed << "); rerun with POFI_PRINT_GOLDEN=1";
    EXPECT_EQ(got.trace, g.expect.trace)
        << "blktrace stream drifted (model=" << static_cast<int>(g.model)
        << " seed=" << g.seed << "); rerun with POFI_PRINT_GOLDEN=1";
  }
}

// specs/golden.json spells out kGolden[0]'s campaign declaratively. Running
// it through the whole spec pipeline (parse → expand → runner) must land on
// the same result hash as the direct TestPlatform construction above — this
// is the acceptance check that the JSON layer adds no semantics of its own,
// and the drift gate CI runs over the committed spec files.
TEST(DeterminismGolden, GoldenSpecFileReproducesGoldenHash) {
  const char* dir = std::getenv("POFI_SPEC_DIR");
  const std::string path =
      std::string(dir == nullptr ? POFI_SPEC_DIR : dir) + "/golden.json";
  const auto campaign = spec::load_campaign_file(path);
  ASSERT_EQ(campaign.entries.size(), 1U);
  const auto rows = spec::run_campaign_rows(campaign);
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(hash_str(canonical(rows[0].result)), kGolden[0].expect.result)
      << "specs/golden.json drifted from the programmatic golden campaign";
}

// The resilience acceptance check: run the golden campaign with a checkpoint,
// then run it again from the checkpoint alone (--resume). The restored result
// travelled disk → JSONL → disk, so this only passes if every field — doubles
// included — round-trips bit-exactly and the resume splice changes nothing.
TEST(DeterminismGolden, CheckpointResumeReproducesGoldenHash) {
  const char* dir = std::getenv("POFI_SPEC_DIR");
  const std::string path =
      std::string(dir == nullptr ? POFI_SPEC_DIR : dir) + "/golden.json";
  const std::string checkpoint = "/tmp/pofi_golden_checkpoint.jsonl";
  std::remove(checkpoint.c_str());

  const auto campaign = spec::load_campaign_file(path);
  spec::RunOptions options;
  options.checkpoint_path = checkpoint;
  const auto fresh = spec::run_campaign(campaign, options);
  ASSERT_EQ(fresh.size(), 1U);
  ASSERT_EQ(fresh[0].status, runner::CampaignStatus::kOk);
  EXPECT_EQ(hash_str(canonical(fresh[0].result)), kGolden[0].expect.result);

  options.resume = true;
  const auto resumed = spec::run_campaign(campaign, options);
  ASSERT_EQ(resumed.size(), 1U);
  EXPECT_EQ(resumed[0].status, runner::CampaignStatus::kSkippedCached);
  EXPECT_EQ(hash_str(canonical(resumed[0].result)), kGolden[0].expect.result)
      << "checkpoint round-trip is not lossless: the restored result hashes "
         "differently from the one the campaign produced";
}

// The observability determinism gate: collecting metrics must not perturb
// the simulation in any way. The golden hashes were captured with obs off;
// a run with a live MetricRegistry attached has to land on the exact same
// result AND trace hashes. If this fails, some instrumentation site drew
// from the RNG, scheduled an event, or otherwise mutated sim state.
TEST(DeterminismGolden, MetricsCollectionDoesNotPerturbSimulation) {
  for (const auto& g : kGolden) {
    const auto got = run_hashed(g.model, g.policy, g.seed, /*metrics=*/true);
    EXPECT_EQ(got.result, g.expect.result)
        << "metrics collection perturbed the campaign result (model="
        << static_cast<int>(g.model) << " seed=" << g.seed << ")";
    EXPECT_EQ(got.trace, g.expect.trace)
        << "metrics collection perturbed the blktrace stream (model="
        << static_cast<int>(g.model) << " seed=" << g.seed << ")";
  }
}

// The metrics export golden: the whole registry snapshot of each golden
// campaign (every counter, gauge, histogram, series and span) pinned by
// hash. Where and how a layer counts an event may change; the numbers the
// --metrics export and perfbench read from the snapshot may not.
TEST(DeterminismGolden, MetricsSnapshotGolden) {
  const bool print = std::getenv("POFI_PRINT_GOLDEN") != nullptr;
  for (const auto& g : kGolden) {
    const auto r = run_golden_campaign(g.model, g.policy, g.seed, /*metrics=*/true, nullptr);
    ASSERT_FALSE(r.metrics.counters.empty());
    const std::uint64_t got = hash_str(canonical_metrics(r.metrics));
    if (print) {
      std::printf("golden model=%d policy=%d seed=%" PRIu64 " metrics=0x%016" PRIX64 "ULL\n",
                  static_cast<int>(g.model), static_cast<int>(g.policy), g.seed, got);
      continue;
    }
    EXPECT_EQ(got, g.metrics) << "metrics snapshot drifted (model=" << static_cast<int>(g.model)
                              << " seed=" << g.seed << "); rerun with POFI_PRINT_GOLDEN=1";
  }
}

// The torture determinism gate: a boundary probe that never trips must be
// pure observation. The golden hashes were captured with no probe attached;
// a run with a passive CountdownProbe consulted at every event boundary has
// to land on the exact same result AND trace hashes — this is what makes a
// torture run's k-th boundary name the same machine state as the golden
// schedule's k-th boundary.
TEST(DeterminismGolden, PassiveBoundaryProbeIsIdentity) {
  for (const auto& g : kGolden) {
    torture::CountdownProbe probe(~std::uint64_t{0});  // unreachable target
    const auto got = run_hashed(g.model, g.policy, g.seed, /*metrics=*/false, &probe);
    EXPECT_GT(probe.consulted(), 0u) << "probe was never consulted";
    EXPECT_FALSE(probe.tripped());
    EXPECT_EQ(got.result, g.expect.result)
        << "a passive boundary probe perturbed the campaign result (model="
        << static_cast<int>(g.model) << " seed=" << g.seed << ")";
    EXPECT_EQ(got.trace, g.expect.trace)
        << "a passive boundary probe perturbed the blktrace stream (model="
        << static_cast<int>(g.model) << " seed=" << g.seed << ")";
  }
}

/// Whole observable machine state after a torture run: the blktrace stream
/// plus the metric registry (when one is attached).
std::uint64_t device_fingerprint(TestPlatform& tp) {
  std::string out = blk::to_text(tp.block_queue().trace());
  if (const auto* m = tp.simulator().metrics()) out += canonical_metrics(m->snapshot());
  return hash_str(out);
}

// The snapshot determinism gate: restoring a pilot checkpoint at a quiescent
// boundary and replaying only the residual window must land on the exact
// same machine state as replaying the whole schedule — audit verdict,
// blktrace stream and metric snapshot alike, even onto a dirty platform
// built with a different seed.
TEST(DeterminismGolden, SnapshotRestoreIsIdentity) {
  torture::TortureConfig cfg;
  cfg.name = "snapshot-identity";
  cfg.seed = 42;
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  cfg.drive = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.drive.mount_delay = sim::Duration::ms(50);
  cfg.workload.wss_pages = 4096;
  cfg.workload.min_pages = 1;
  cfg.workload.max_pages = 16;
  cfg.workload.write_fraction = 0.8;
  cfg.requests = 24;
  cfg.pace_iops = 2000.0;
  cfg.platform.trace_enabled = true;
  cfg.platform.metrics = true;

  // Pilot and plain golden run must agree on B and on the drained machine
  // state: captures are pure reads, never a perturbation.
  torture::CrashHarness harness(cfg);
  torture::SchedulePilot pilot;
  TestPlatform piloted(cfg.drive, cfg.platform, cfg.seed);
  const std::uint64_t schedule = harness.run_pilot(piloted, pilot, 128);
  ASSERT_GE(pilot.snapshots.size(), 2u);

  torture::CrashHarness plain_harness(cfg);
  TestPlatform plain(cfg.drive, cfg.platform, cfg.seed);
  EXPECT_EQ(plain_harness.measure_schedule(plain), schedule);
  EXPECT_EQ(device_fingerprint(plain), device_fingerprint(piloted))
      << "pilot captures perturbed the golden schedule";

  // Crash at a mid-schedule boundary twice: full replay from a fresh mount
  // vs restore of the nearest checkpoint onto a deliberately mismatched
  // platform. Everything observable must be bit-identical.
  const std::uint64_t boundary = schedule / 2;
  const torture::HarnessSnapshot* snap = pilot.nearest_at_or_before(boundary);
  ASSERT_NE(snap, nullptr);
  ASSERT_GT(snap->boundary, 0u) << "interval 128 should checkpoint past the baseline";

  torture::CrashHarness full_harness(cfg);
  TestPlatform full(cfg.drive, cfg.platform, cfg.seed);
  const torture::CrashOutcome ref = full_harness.run_crash_point(full, boundary);

  TestPlatform dirty(cfg.drive, cfg.platform, /*seed=*/999);
  const torture::CrashOutcome got = harness.run_crash_point_from(dirty, pilot, *snap, boundary);

  EXPECT_EQ(got.injected, ref.injected);
  EXPECT_EQ(got.boundary, ref.boundary);
  ASSERT_EQ(got.report.violations.size(), ref.report.violations.size());
  for (std::size_t i = 0; i < ref.report.violations.size(); ++i) {
    EXPECT_EQ(got.report.violations[i].kind, ref.report.violations[i].kind);
    EXPECT_EQ(got.report.violations[i].detail, ref.report.violations[i].detail);
  }
  EXPECT_EQ(device_fingerprint(dirty), device_fingerprint(full))
      << "restored crash run drifted from the full replay";
}

// Same seed, two fresh platforms: rows and traces must be bit-identical.
// This half of the A/B check needs no goldens and never goes stale.
TEST(DeterminismGolden, RepeatedRunsAreBitIdentical) {
  const auto a = run_hashed(ssd::VendorModel::kA, ftl::MappingPolicy::kHybridExtent, 5);
  const auto b = run_hashed(ssd::VendorModel::kA, ftl::MappingPolicy::kHybridExtent, 5);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.trace, b.trace);
}

}  // namespace
}  // namespace pofi::platform
