// End-to-end tests for the torture explorer: the acceptance loop of the
// crash-point subsystem. A deliberately broken recovery path (the FTL's
// kSkipLastJournalRecord torture fault) must be caught by the auditor,
// shrunk to a minimal repro, and the emitted repro spec must reproduce the
// identical violation at any runner thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "runner/experiment_session.hpp"
#include "runner/progress.hpp"
#include "spec/checkpoint.hpp"
#include "torture/explorer.hpp"
#include "torture/harness.hpp"
#include "torture/torture_spec.hpp"

namespace pofi::torture {
namespace {

/// Temp-file path helper (same convention as the checkpoint tests).
[[nodiscard]] std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

/// The smallest configuration that exercises the full loop: a handful of
/// requests on the 1 GiB preset-A drive, a short boundary window right after
/// the first writes land.
[[nodiscard]] TortureConfig small_config() {
  TortureConfig cfg;
  cfg.name = "explorer-test";
  cfg.seed = 7;
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
  cfg.window_first = 8;
  cfg.window_count = 16;
  cfg.stride = 64;
  cfg.shard_points = 4;
  cfg.shrink = false;
  cfg.runner.threads = 2;
  return cfg;
}

// Intact recovery: every explored boundary audits clean.
TEST(TortureExplorer, IntactRecoveryAuditsClean) {
  const TortureConfig cfg = small_config();
  const ExploreReport report = explore(cfg);
  EXPECT_GT(report.schedule_events, 0u);
  EXPECT_EQ(report.points_planned, 16u);
  EXPECT_EQ(report.points_explored, 16u);
  EXPECT_EQ(report.points_injected, 16u);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_FALSE(report.shrunk);
}

// The seeded self-test: break recovery, catch it, shrink it. The repro must
// be small (≤ 10 requests, exactly one injection point) and carry a verbatim
// replay of the recorded prefix.
TEST(TortureExplorer, BrokenRecoveryIsCaughtAndShrunk) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  cfg.shrink = true;

  const ExploreReport report = explore(cfg);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_GT(report.total_violations, 0u);
  // Findings arrive sorted by boundary regardless of shard completion order.
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    EXPECT_LT(report.findings[i - 1].boundary, report.findings[i].boundary);
  }

  ASSERT_TRUE(report.shrunk);
  EXPECT_LE(report.repro_requests, 10u);

  const TortureConfig repro = load_torture(report.repro);
  EXPECT_EQ(repro.name, cfg.name + "-repro");
  EXPECT_EQ(repro.requests, report.repro_requests);
  EXPECT_EQ(repro.window_first, report.repro_boundary);
  EXPECT_EQ(repro.window_count, 1u);
  EXPECT_EQ(repro.stride, 1u);
  EXPECT_FALSE(repro.shrink);
  EXPECT_TRUE(repro.break_recovery);
  EXPECT_EQ(repro.workload.replay.size(), repro.requests);

  // Pinned shrink result: any change to the pilot, the restore path or the
  // shrinker that moves the repro shows up here. torture_hash covers the
  // exploration lattice; the full-document hash also covers the emitted
  // runner section (threads, fail_fast, campaign_timeout_seconds) and the
  // snapshot cadence the repro inherits (the default, 64).
  EXPECT_EQ(report.repro_requests, 1u);
  EXPECT_EQ(report.repro_boundary, 72u);
  EXPECT_EQ(spec::hash_string(torture_hash(repro)), "fnv1a:74afd2516a50254e");
  EXPECT_EQ(spec::hash_string(spec::content_hash(report.repro)), "fnv1a:910612a516c217e7");
}

// The emitted repro is self-contained and thread-count independent: explored
// at 1, 2 and 8 runner threads it reproduces the same violation kind at the
// same boundary.
TEST(TortureExplorer, ReproReproducesAtAnyThreadCount) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  cfg.shrink = true;
  const ExploreReport first = explore(cfg);
  ASSERT_TRUE(first.shrunk);

  TortureConfig repro = load_torture(first.repro);
  const InvariantKind expected_kind =
      first.findings.front().report.violations.front().kind;

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    repro.runner.threads = threads;
    const ExploreReport rerun = explore(repro);
    ASSERT_EQ(rerun.findings.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(rerun.findings.front().boundary, first.repro_boundary)
        << "threads=" << threads;
    ASSERT_FALSE(rerun.findings.front().report.violations.empty());
    EXPECT_EQ(rerun.findings.front().report.violations.front().kind, expected_kind)
        << "threads=" << threads;
  }
}

// The runner section is execution shape, not content: changing it must not
// move the torture hash, while changing the schedule must.
TEST(TortureExplorer, HashExcludesRunnerSection) {
  TortureConfig a = small_config();
  TortureConfig b = small_config();
  b.runner.threads = 8;
  EXPECT_EQ(torture_hash(a), torture_hash(b));
  b.requests = 25;
  EXPECT_NE(torture_hash(a), torture_hash(b));
}

// Checkpoint/resume: a completed exploration restores every clean shard from
// the JSONL file; violating shards are never checkpointed and re-run, so the
// findings list repopulates identically.
TEST(TortureExplorer, ResumeRestoresCleanShardsAndRerunsViolating) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  const std::string path = temp_path("torture_resume.jsonl");
  std::remove(path.c_str());

  spec::RunOptions options;
  options.checkpoint_path = path;
  const ExploreReport first = explore(cfg, options);
  ASSERT_FALSE(first.findings.empty());
  const std::size_t clean_shards =
      spec::load_checkpoint(path).records.size();
  ASSERT_LT(clean_shards, 4u);  // at least one shard violated -> not recorded

  options.resume = true;
  spec::ResumeStats stats;
  options.resume_stats = &stats;
  const ExploreReport second = explore(cfg, options);
  EXPECT_EQ(stats.records_reused, clean_shards);
  EXPECT_EQ(second.points_explored, first.points_explored);
  EXPECT_EQ(second.total_violations, first.total_violations);
  ASSERT_EQ(second.findings.size(), first.findings.size());
  for (std::size_t i = 0; i < first.findings.size(); ++i) {
    EXPECT_EQ(second.findings[i].boundary, first.findings[i].boundary);
  }
  std::remove(path.c_str());
}

// Violating shards surface as audit-failed through the JSONL progress
// stream, distinguishable from crashes and timeouts in automation.
TEST(TortureExplorer, AuditFailedFlowsThroughJsonlProgress) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  std::ostringstream out;
  runner::JsonlProgress sink(out);
  spec::RunOptions options;
  options.sink = &sink;
  const ExploreReport report = explore(cfg, options);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_NE(out.str().find("\"status\":\"audit-failed\""), std::string::npos);
}

/// Byte-level fingerprint of everything a sweep reports: verdict counters,
/// every violation, and the shrunk repro spec (when present).
[[nodiscard]] std::string fingerprint(const ExploreReport& r) {
  std::ostringstream s;
  s << r.schedule_events << '|' << r.points_planned << '|' << r.points_explored << '|'
    << r.points_injected << '|' << r.total_violations << '\n';
  for (const TortureFinding& f : r.findings) {
    s << f.boundary;
    for (const Violation& v : f.report.violations) {
      s << ' ' << to_string(v.kind) << ' ' << v.detail;
    }
    s << '\n';
  }
  s << r.shrunk << '|' << r.repro_requests << '|' << r.repro_boundary << '\n';
  if (r.shrunk) {
    // The repro inherits the parent's runner section and snapshot cadence —
    // execution shape, not content (torture_hash strips both). Normalise
    // them so the byte-level comparison covers every content field.
    TortureConfig repro = load_torture(r.repro);
    repro.runner = runner::RunnerConfig{};
    repro.snapshot_interval = 256;
    s << spec::dump(to_json(repro)) << '\n';
  }
  return s.str();
}

/// Independent reference for explore(): no pilot, no snapshots, no runner.
/// Measures the schedule on a freshly acquired stack, then crashes each
/// lattice point on its own freshly acquired stack, in boundary order. When
/// cfg.shrink is set, the smallest failing prefix is found by linear search
/// and the repro spec is built the way the explorer documents it.
[[nodiscard]] ExploreReport replay_sweep(const TortureConfig& cfg) {
  ExploreReport r;
  // Sweeps the `requests`-prefix schedule into `out`. A shrink probe
  // (`first_only`) stops at the first finding and keeps that run's
  // recorded requests.
  const auto sweep = [&cfg](std::uint64_t requests, bool first_only, ExploreReport& out,
                            std::vector<workload::RequestSpec>* recording) {
    TortureConfig sub = cfg;
    sub.requests = requests;
    CrashHarness harness(sub);
    {
      runner::SessionSlot slot;
      out.schedule_events = harness.measure_schedule(
          runner::ExperimentSession::acquire(slot, sub.drive, sub.platform, sub.seed));
    }
    for (std::uint64_t k = sub.window_first; k < out.schedule_events; k += sub.stride) {
      if (sub.window_count != 0 && out.points_planned == sub.window_count) break;
      ++out.points_planned;
      runner::SessionSlot slot;
      CrashOutcome crash = harness.run_crash_point(
          runner::ExperimentSession::acquire(slot, sub.drive, sub.platform, sub.seed), k);
      if (crash.injected) ++out.points_injected;
      if (crash.report.ok()) continue;
      out.total_violations += crash.report.violations.size();
      out.findings.push_back({k, std::move(crash.report)});
      if (recording != nullptr) *recording = harness.recorded_requests();
      if (first_only) return;
    }
    out.points_explored = out.points_planned;
  };

  sweep(cfg.requests, false, r, nullptr);
  if (r.findings.empty() || !cfg.shrink) return r;
  for (std::uint64_t n = 1; n <= cfg.requests; ++n) {
    ExploreReport probe;
    std::vector<workload::RequestSpec> recording;
    sweep(n, true, probe, &recording);
    if (probe.findings.empty()) continue;
    TortureConfig repro = cfg;
    repro.name = cfg.name + "-repro";
    repro.requests = n;
    repro.window_first = probe.findings.front().boundary;
    repro.window_count = 1;
    repro.stride = 1;
    repro.shrink = false;
    repro.workload.replay = std::move(recording);
    r.shrunk = true;
    r.repro_requests = n;
    r.repro_boundary = repro.window_first;
    r.repro = to_json(repro);
    break;
  }
  return r;
}

// Restored-snapshot sweeps are indistinguishable from full replays of every
// point — same verdicts, same violation set, same shrunk repro spec — at 1,
// 2 and 8 runner threads, with recovery intact and broken.
TEST(TortureExplorer, SnapshotSweepMatchesFullReplayByteForByte) {
  for (const bool broken : {false, true}) {
    TortureConfig cfg = small_config();
    cfg.break_recovery = broken;
    cfg.shrink = broken;
    const std::string reference = fingerprint(replay_sweep(cfg));
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      cfg.runner.threads = threads;
      EXPECT_EQ(fingerprint(explore(cfg)), reference)
          << "broken=" << broken << " threads=" << threads;
    }
  }
}

// Snapshot cadence is wall-clock shape, not content: any interval (including
// one sparse enough that only the baseline checkpoint exists) produces the
// reference verdicts, and the knob stays out of the content hash.
TEST(TortureExplorer, SnapshotIntervalNeverChangesVerdicts) {
  TortureConfig cfg = small_config();
  cfg.break_recovery = true;
  cfg.shrink = true;
  cfg.runner.threads = 1;
  const std::string reference = fingerprint(replay_sweep(cfg));
  const std::uint64_t base_hash = torture_hash(cfg);
  for (const std::uint64_t interval : {1ULL, 64ULL, 1'000'000'000ULL}) {
    cfg.snapshot_interval = interval;
    EXPECT_EQ(torture_hash(cfg), base_hash) << "interval=" << interval;
    EXPECT_EQ(fingerprint(explore(cfg)), reference) << "interval=" << interval;
  }
}

// A crash point ends at the remount: the rail-down and remount waits stop at
// the first event where they hold, so an injected point fires only a short
// tail past its boundary instead of running on to the next schedule chunk
// edge through idle journal ticks.
TEST(TortureHarness, CrashPointTailIsBounded) {
  const TortureConfig cfg = small_config();
  CrashHarness harness(cfg);
  runner::SessionSlot slot;
  SchedulePilot pilot;
  const std::uint64_t schedule = harness.run_pilot(
      runner::ExperimentSession::acquire(slot, cfg.drive, cfg.platform, cfg.seed), pilot, 64);

  std::size_t injected = 0;
  for (std::uint64_t k = 0; k < schedule; k += 97) {
    const HarnessSnapshot* snap = pilot.nearest_at_or_before(k);
    ASSERT_NE(snap, nullptr) << "k=" << k;
    platform::TestPlatform& tp =
        runner::ExperimentSession::acquire_for_restore(slot, cfg.drive, cfg.platform);
    const CrashOutcome out = harness.run_crash_point_from(tp, pilot, *snap, k);
    if (!out.injected) continue;
    ++injected;
    EXPECT_TRUE(out.report.ok()) << "k=" << k;
    EXPECT_LE(tp.simulator().events_fired() - snap->base - k, 256u) << "k=" << k;
  }
  EXPECT_GT(injected, 0u);
}

// audit-failed is part of the status taxonomy: round-trips through the
// string codec and stays out of is_success (so it is never checkpointed).
TEST(TortureExplorer, AuditFailedStatusTaxonomy) {
  EXPECT_STREQ(runner::to_string(runner::CampaignStatus::kAuditFailed), "audit-failed");
  runner::CampaignStatus parsed{};
  ASSERT_TRUE(runner::status_from_string("audit-failed", parsed));
  EXPECT_EQ(parsed, runner::CampaignStatus::kAuditFailed);
  EXPECT_FALSE(runner::is_success(runner::CampaignStatus::kAuditFailed));
}

}  // namespace
}  // namespace pofi::torture
