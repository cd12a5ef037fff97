// Differential fuzz for the session reset protocol: reset-in-place must be
// bit-indistinguishable from fresh construction.
//
// Each trial draws a campaign from the committed spec files (golden,
// fig8_iops, large_drive — three distinct drive geometries), randomizes the
// seed and a few per-run knobs, then runs it twice: once on a brand-new
// TestPlatform, once on a worker-style pooled SessionSlot that persists
// across ALL trials. Because consecutive trials mix geometries, the pooled
// side exercises both paths of ExperimentSession::acquire — reset-in-place
// when the previous trial used the same drive config, and the
// geometry-mismatch rebuild fallback when it didn't (large_drive after
// golden, and back). Rows, blktrace streams and metric snapshots must match
// byte-for-byte on every trial; any divergence means some component's
// reset() leaks history.
//
// A second test runs whole committed campaigns through spec::run_campaign
// (the only campaign path, pooled) and requires the same rows as building a
// fresh TestPlatform per entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "blk/trace_text.hpp"
#include "platform/test_platform.hpp"
#include "runner/experiment_session.hpp"
#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "spec/obs_json.hpp"

namespace pofi::platform {
namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Canonical, lossless serialisation of a campaign result (the
/// determinism_golden_test encoding: doubles as hexfloat, so "equal" means
/// bit-equal).
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

std::string spec_dir() {
  const char* dir = std::getenv("POFI_SPEC_DIR");
  return dir == nullptr ? POFI_SPEC_DIR : dir;
}

/// One fresh-vs-pooled observation: everything the reset correctness bar
/// pins, serialised byte-comparably.
struct Observation {
  std::string result;   ///< canonical ExperimentResult
  std::string trace;    ///< blktrace text of the final power cycle
  std::string metrics;  ///< obs::Snapshot JSON ("" when metrics off)
};

Observation observe(TestPlatform& tp, const spec::CampaignEntry& entry,
                    bool metrics_on) {
  Observation obs;
  const auto result = tp.run(entry.experiment);
  obs.result = canonical(result);
  obs.trace = blk::to_text(tp.block_queue().trace());
  if (metrics_on) obs.metrics = spec::dump(spec::to_json(result.metrics));
  return obs;
}

/// Cap a committed entry's campaign so the differential tests stay
/// seconds-scale (identically on both sides — the comparison is
/// differential, not golden).
void trim(spec::CampaignEntry& entry) {
  entry.experiment.total_requests = std::min<std::uint64_t>(entry.experiment.total_requests, 72);
  entry.experiment.faults = std::min<std::uint32_t>(entry.experiment.faults, 2);
}

TEST(SessionFuzz, PooledResetMatchesFreshConstructionAcrossSpecs) {
  // Three committed specs, three geometries: golden is a 1 GB capacity-
  // scaled drive, fig8 the full preset-A drive, large_drive the 128 GB
  // variant. Entry 0 of each, trimmed.
  std::vector<spec::CampaignEntry> cases;
  for (const char* file : {"golden.json", "fig8_iops.json", "large_drive.json"}) {
    const auto campaign = spec::load_campaign_file(spec_dir() + "/" + file);
    ASSERT_FALSE(campaign.entries.empty()) << file;
    auto entry = campaign.entries.front();
    trim(entry);
    entry.platform.trace_enabled = true;  // pin the event stream too
    cases.push_back(std::move(entry));
  }

  sim::Rng fuzz(0xF02D5E55u);  // fixed: failures must replay
  runner::SessionSlot slot;    // persists across trials, like a worker's
  std::uint64_t mismatch_rebuilds = 0;

  for (int trial = 0; trial < 12; ++trial) {
    auto entry = cases[fuzz.below(cases.size())];
    entry.experiment.seed = 1 + fuzz.below(1U << 20);
    entry.platform.metrics = fuzz.chance(0.35);  // toggling forces a rebuild
    const double paces[] = {4.0, 30.0, 120.0};
    entry.experiment.pace_iops = paces[fuzz.below(3)];

    // Fresh side: the ground truth a pooled session must be
    // indistinguishable from.
    TestPlatform fresh(entry.drive, entry.platform, entry.experiment.seed);
    const auto want = observe(fresh, entry, entry.platform.metrics);

    const auto rebuilds_before = runner::ExperimentSession::rebuild_count();
    TestPlatform& pooled = runner::ExperimentSession::acquire(
        slot, entry.drive, entry.platform, entry.experiment.seed);
    const auto got = observe(pooled, entry, entry.platform.metrics);
    mismatch_rebuilds += runner::ExperimentSession::rebuild_count() - rebuilds_before;

    EXPECT_EQ(got.result, want.result)
        << "trial " << trial << " (" << entry.label << " seed "
        << entry.experiment.seed << "): pooled result diverged from fresh";
    EXPECT_EQ(got.trace, want.trace)
        << "trial " << trial << " (" << entry.label << "): blktrace diverged";
    EXPECT_EQ(got.metrics, want.metrics)
        << "trial " << trial << " (" << entry.label << "): metric snapshot diverged";
    if (HasFatalFailure() || got.result != want.result) break;  // replay info above
  }

  // The trial mix must actually have exercised the fallback path: with three
  // geometries and a metrics toggle in rotation, a pool that never rebuilt
  // means compatible_with() went soft (and the trial sequence proves
  // nothing about the fallback).
  EXPECT_GT(mismatch_rebuilds, 1u)
      << "fuzz schedule never took the geometry-mismatch rebuild path";
}

/// Rows of `campaign` from a build-per-entry loop: a brand-new TestPlatform
/// for every entry, the ground truth the pooled runner must reproduce.
std::vector<std::string> fresh_rows(const spec::CampaignSpec& campaign) {
  std::vector<std::string> rows;
  for (const auto& e : campaign.entries) {
    TestPlatform tp(e.drive, e.platform, e.experiment.seed);
    rows.push_back(canonical(tp.run(e.experiment)));
  }
  return rows;
}

/// Rows of `campaign` through spec::run_campaign (pooled sessions).
std::vector<std::string> pooled_rows(spec::CampaignSpec campaign, unsigned threads) {
  campaign.runner.threads = threads;
  std::vector<std::string> rows;
  for (const auto& row : spec::run_campaign_rows(campaign)) rows.push_back(canonical(row.result));
  return rows;
}

TEST(SessionFuzz, PooledCampaignMatchesBuildPerEntryOnCommittedSpecs) {
  // Every entry of golden.json at 1 and 2 threads, and every entry of
  // fig8_iops.json (seven identical-geometry IOPS points, so the pool resets
  // in place between them) at 2 threads, trimmed like the fuzz above.
  const auto golden = spec::load_campaign_file(spec_dir() + "/golden.json");
  const auto golden_fresh = fresh_rows(golden);
  EXPECT_EQ(pooled_rows(golden, 1), golden_fresh);
  EXPECT_EQ(pooled_rows(golden, 2), golden_fresh);

  auto fig8 = spec::load_campaign_file(spec_dir() + "/fig8_iops.json");
  ASSERT_GT(fig8.entries.size(), 2u);
  for (auto& entry : fig8.entries) trim(entry);
  EXPECT_EQ(pooled_rows(fig8, 2), fresh_rows(fig8));
}

// The reset itself must be heap-quiet in steady state — covered by the
// counting-allocator binary (tests/session_alloc_test.cpp); this suite only
// pins behavioural equivalence.

}  // namespace
}  // namespace pofi::platform
