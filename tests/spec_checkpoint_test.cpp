// Checkpoint/resume tests: the lossless ExperimentResult codec, the JSONL
// checkpoint file format (atomic appends, truncated-tail tolerance), and the
// resume invariant — a kill-and-resume campaign produces outcomes
// bit-identical to an uninterrupted run of the same spec.
#include "spec/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "spec/campaign.hpp"
#include "spec/codec.hpp"

namespace pofi::spec {
namespace {

/// Bit-exact result comparator: the canonical JSON form round-trips doubles
/// in shortest-round-trip form, so string equality == bitwise field equality.
std::string fingerprint(const platform::ExperimentResult& r) {
  return canonical(to_json(r));
}

platform::ExperimentResult tricky_result() {
  platform::ExperimentResult r;
  r.name = "tricky \"quoted\" \n name";
  r.requests_submitted = ~0ULL;  // full 64-bit range must survive
  r.write_acks = 123456789;
  r.reads_completed = 42;
  r.faults_injected = 17;
  r.data_failures = 3;
  r.fwa_failures = 1;
  r.io_errors = 2;
  r.verified_ok = 120;
  r.read_mismatches = 0;
  r.requested_iops = 0.1;                    // not representable in binary
  r.responded_iops = 1.0 / 3.0;
  r.mean_latency_us = 1234.5678901234567;    // needs all 17 digits
  r.max_latency_us = 1e-300;                 // subnormal-adjacent magnitude
  r.active_seconds = 98765.4321;
  r.sim_seconds = 0.30000000000000004;       // classic non-exact sum
  r.cache_dirty_lost = 5;
  r.audit_violations = 11;
  r.interrupted_programs = 6;
  r.paired_page_upsets = 7;
  r.map_updates_reverted = 8;
  r.uncorrectable_reads = 9;
  platform::FailureRecord f1;
  f1.packet_id = 0xDEADBEEFCAFEBABEULL;
  f1.type = platform::FailureType::kFwa;
  f1.fault_index = 3;
  f1.ack_to_fault_ms = -1.0;  // never ACKed
  f1.pages_garbage = 12;
  f1.pages_reverted = 4;
  f1.op = workload::OpType::kRead;
  platform::FailureRecord f2;
  f2.packet_id = 2;
  f2.type = platform::FailureType::kIoError;
  f2.ack_to_fault_ms = 0.1 + 0.2;
  f2.op = workload::OpType::kWrite;
  r.failures = {f1, f2};
  return r;
}

TEST(CheckpointCodec, ExperimentResultRoundTripIsBitExact) {
  const auto r = tricky_result();
  const auto back = result_from_json(parse(canonical(to_json(r))));
  EXPECT_EQ(fingerprint(r), fingerprint(back));
  // Spot-check the bit-exactness claim directly on the nastiest doubles.
  EXPECT_EQ(back.sim_seconds, r.sim_seconds);
  EXPECT_EQ(back.mean_latency_us, r.mean_latency_us);
  EXPECT_EQ(back.max_latency_us, r.max_latency_us);
  EXPECT_EQ(back.requests_submitted, ~0ULL);
  EXPECT_EQ(back.audit_violations, 11u);
  ASSERT_EQ(back.failures.size(), 2u);
  EXPECT_EQ(back.failures[0].type, platform::FailureType::kFwa);
  EXPECT_EQ(back.failures[0].ack_to_fault_ms, -1.0);
  EXPECT_EQ(back.failures[1].ack_to_fault_ms, 0.1 + 0.2);
  EXPECT_EQ(back.failures[0].op, workload::OpType::kRead);
}

TEST(CheckpointCodec, RecordRoundTripKeepsKeyAndTaxonomy) {
  CheckpointRecord rec;
  rec.spec_hash = 0x0123456789ABCDEFULL;
  rec.entry_index = 11;
  rec.seed = 0xFEDCBA9876543210ULL;
  rec.label = "unit-12";
  rec.status = runner::CampaignStatus::kTimedOut;
  rec.wall_seconds = 1.25;
  rec.result = tricky_result();

  const auto back = checkpoint_record_from_json(parse(canonical(to_json(rec))));
  EXPECT_EQ(back.spec_hash, rec.spec_hash);
  EXPECT_EQ(back.entry_index, rec.entry_index);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.label, rec.label);
  EXPECT_EQ(back.status, runner::CampaignStatus::kTimedOut);
  EXPECT_EQ(back.wall_seconds, 1.25);
  EXPECT_EQ(fingerprint(back.result), fingerprint(rec.result));
}

// The torture explorer's verdict status is part of the on-disk taxonomy —
// it must survive the JSONL round-trip even though the resume splice will
// then reject it (not a success).
TEST(CheckpointCodec, AuditFailedStatusRoundTrips) {
  CheckpointRecord rec;
  rec.spec_hash = 1;
  rec.label = "torture-shard0";
  rec.status = runner::CampaignStatus::kAuditFailed;
  rec.result.audit_violations = 2;
  const auto back = checkpoint_record_from_json(parse(canonical(to_json(rec))));
  EXPECT_EQ(back.status, runner::CampaignStatus::kAuditFailed);
  EXPECT_EQ(back.result.audit_violations, 2u);
}

TEST(CheckpointFileIo, WriterAppendsOneLinePerRecordAndLoaderReadsThemBack) {
  const std::string path = "/tmp/pofi_ckpt_roundtrip.jsonl";
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    for (std::uint64_t i = 0; i < 3; ++i) {
      CheckpointRecord rec;
      rec.spec_hash = 7;
      rec.entry_index = i;
      rec.seed = 100 + i;
      rec.label = "e-" + std::to_string(i);
      rec.result = tricky_result();
      writer.append(rec);
    }
  }
  const auto file = load_checkpoint(path);
  EXPECT_EQ(file.malformed_lines, 0u);
  EXPECT_FALSE(file.truncated_tail);
  ASSERT_EQ(file.records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(file.records[i].entry_index, i);
    EXPECT_EQ(file.records[i].seed, 100 + i);
    EXPECT_EQ(fingerprint(file.records[i].result), fingerprint(tricky_result()));
  }
}

TEST(CheckpointFileIo, MissingFileIsAnEmptyCheckpoint) {
  const auto file = load_checkpoint("/tmp/pofi_ckpt_does_not_exist.jsonl");
  EXPECT_TRUE(file.records.empty());
  EXPECT_EQ(file.malformed_lines, 0u);
  EXPECT_FALSE(file.truncated_tail);
}

TEST(CheckpointFileIo, TruncatedTailIsToleratedWithAWarning) {
  const std::string path = "/tmp/pofi_ckpt_truncated.jsonl";
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    CheckpointRecord rec;
    rec.spec_hash = 1;
    rec.entry_index = 0;
    rec.result = tricky_result();
    writer.append(rec);
    rec.entry_index = 1;
    writer.append(rec);
  }
  // SIGKILL between fwrite and the page hitting disk: chop the last line
  // mid-record (no trailing newline).
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto first_nl = text.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text.substr(0, first_nl + 1) << text.substr(first_nl + 1, 40);
  }
  const auto file = load_checkpoint(path);
  ASSERT_EQ(file.records.size(), 1u);
  EXPECT_EQ(file.records[0].entry_index, 0u);
  EXPECT_EQ(file.malformed_lines, 1u);
  EXPECT_TRUE(file.truncated_tail);
}

TEST(CheckpointFileIo, MidFileGarbageIsSkippedWithoutTruncationFlag) {
  const std::string path = "/tmp/pofi_ckpt_garbage.jsonl";
  std::remove(path.c_str());
  CheckpointRecord rec;
  rec.spec_hash = 1;
  rec.result = tricky_result();
  {
    CheckpointWriter writer(path);
    rec.entry_index = 0;
    writer.append(rec);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "this is not JSON\n";
    out << "{\"spec\":\"fnv1a:zz\"}\n";  // parses, fails validation
  }
  {
    CheckpointWriter writer(path);
    rec.entry_index = 1;
    writer.append(rec);
  }
  const auto file = load_checkpoint(path);
  ASSERT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.records[0].entry_index, 0u);
  EXPECT_EQ(file.records[1].entry_index, 1u);
  EXPECT_EQ(file.malformed_lines, 2u);
  EXPECT_FALSE(file.truncated_tail);  // the *last* line is a good record
}

// Whole lines that fail to parse are not a torn write, even at the end of the
// file: a checkpoint whose every record carries the retired "attempts" key
// drops every line but flags no truncated tail, because each line still ends
// in the newline that append() writes with it.
TEST(CheckpointFileIo, CompleteMalformedLastLineIsNotATornTail) {
  const std::string path = "/tmp/pofi_ckpt_complete_malformed.jsonl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::uint64_t i = 0; i < 2; ++i) {
      CheckpointRecord rec;
      rec.spec_hash = 1;
      rec.entry_index = i;
      rec.result = tricky_result();
      Value v = to_json(rec);
      v.set("attempts", std::uint64_t{1});
      out << canonical(v) << "\n";
    }
  }
  testing::internal::CaptureStderr();
  const auto file = load_checkpoint(path);
  (void)testing::internal::GetCapturedStderr();
  EXPECT_TRUE(file.records.empty());
  EXPECT_EQ(file.malformed_lines, 2u);
  EXPECT_FALSE(file.truncated_tail);
  std::remove(path.c_str());
}

// --- resume against the real platform stack ---------------------------------

constexpr const char* kCampaignJson = R"({
  "name": "ckpt-resume",
  "seed": 99,
  "units": 3,
  "drive": {"preset": "A", "capacity_gb": 1, "mount_delay_ms": 50.0},
  "experiment": {
    "name": "ckpt",
    "workload": {"wss_pages": 8192, "min_pages": 1, "max_pages": 8},
    "total_requests": 60,
    "faults": 2,
    "pace_iops": 60.0
  }
})";

std::vector<std::string> outcome_fingerprints(
    const std::vector<runner::CampaignRunner::Outcome>& outcomes) {
  std::vector<std::string> out;
  out.reserve(outcomes.size());
  for (const auto& o : outcomes) out.push_back(fingerprint(o.result));
  return out;
}

TEST(CheckpointResume, ResumedSuiteIsBitIdenticalToUninterruptedRun) {
  const std::string checkpoint = "/tmp/pofi_ckpt_resume_full.jsonl";
  const std::string partial = "/tmp/pofi_ckpt_resume_partial.jsonl";
  std::remove(checkpoint.c_str());
  std::remove(partial.c_str());

  const auto campaign = load_campaign(parse(kCampaignJson));
  ASSERT_EQ(campaign.entries.size(), 3u);

  // Uninterrupted baseline, checkpointing as it goes.
  RunOptions base_options;
  base_options.checkpoint_path = checkpoint;
  const auto baseline = run_campaign(campaign, base_options);
  ASSERT_EQ(baseline.size(), 3u);
  for (const auto& o : baseline) EXPECT_EQ(o.status, runner::CampaignStatus::kOk);

  // "Kill" after the first entry: keep only the checkpoint's first line.
  {
    std::ifstream in(checkpoint, std::ios::binary);
    std::string first_line;
    ASSERT_TRUE(std::getline(in, first_line));
    std::ofstream out(partial, std::ios::binary | std::ios::trunc);
    out << first_line << "\n";
  }

  RunOptions resume_options;
  resume_options.checkpoint_path = partial;
  resume_options.resume = true;
  const auto resumed = run_campaign(campaign, resume_options);
  ASSERT_EQ(resumed.size(), 3u);

  // Which entry the first record covers depends on completion order; find it.
  const auto partial_file = load_checkpoint(partial);
  const std::size_t cached_index = static_cast<std::size_t>(
      partial_file.records.front().entry_index);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed[i].status, i == cached_index
                                     ? runner::CampaignStatus::kSkippedCached
                                     : runner::CampaignStatus::kOk);
    EXPECT_EQ(resumed[i].label, baseline[i].label);
  }
  EXPECT_EQ(outcome_fingerprints(resumed), outcome_fingerprints(baseline));

  // The resumed run appended the two fresh entries: a second resume restores
  // everything from the checkpoint, still bit-identical.
  const auto again = run_campaign(campaign, resume_options);
  ASSERT_EQ(again.size(), 3u);
  for (const auto& o : again) {
    EXPECT_EQ(o.status, runner::CampaignStatus::kSkippedCached);
  }
  EXPECT_EQ(outcome_fingerprints(again), outcome_fingerprints(baseline));
}

TEST(CheckpointResume, StaleRecordsFromAnEditedSpecAreIgnored) {
  const std::string checkpoint = "/tmp/pofi_ckpt_resume_stale.jsonl";
  std::remove(checkpoint.c_str());

  const auto campaign = load_campaign(parse(kCampaignJson));
  RunOptions options;
  options.checkpoint_path = checkpoint;
  const auto baseline = run_campaign(campaign, options);
  ASSERT_EQ(baseline.size(), 3u);

  // Edit the campaign (different workload → different content hash): every
  // stored record is stale and must not be spliced in.
  Value doc = parse(kCampaignJson);
  doc.set_path("experiment.workload.max_pages", std::uint64_t{4});
  const auto edited = load_campaign(doc);
  ASSERT_NE(edited.hash, campaign.hash);

  options.resume = true;
  const auto rerun = run_campaign(edited, options);
  ASSERT_EQ(rerun.size(), 3u);
  for (const auto& o : rerun) {
    EXPECT_EQ(o.status, runner::CampaignStatus::kOk);  // nothing was cached
  }
}

// What the loader silently tolerates (malformed lines, a torn tail, stale
// records) must surface to the caller through ResumeStats — pofi_run prints
// the warning line from exactly these counts.
TEST(CheckpointResume, ResumeStatsSurfaceWhatTheLoaderDropped) {
  const std::string checkpoint = "/tmp/pofi_ckpt_resume_stats.jsonl";
  std::remove(checkpoint.c_str());

  const auto campaign = load_campaign(parse(kCampaignJson));
  RunOptions options;
  options.checkpoint_path = checkpoint;
  const auto baseline = run_campaign(campaign, options);
  ASSERT_EQ(baseline.size(), 3u);

  // Tear the tail: a half-written line the loader drops without complaint.
  {
    std::ofstream out(checkpoint, std::ios::binary | std::ios::app);
    out << "{\"spec_hash\": 12, \"truncated";
  }

  options.resume = true;
  ResumeStats stats;
  options.resume_stats = &stats;
  const auto resumed = run_campaign(campaign, options);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(stats.records_loaded, 3u);
  EXPECT_EQ(stats.records_reused, 3u);
  EXPECT_EQ(stats.malformed_lines, 1u);
  EXPECT_TRUE(stats.truncated_tail);
  EXPECT_EQ(stats.stale_records, 0u);
}

// A checkpoint written before entries ran exactly once carries an
// "attempts" key on every record, and "retried-ok" on entries that needed a
// retry. Neither parses today: each such line counts as malformed (with its
// warning), its entry re-runs, and the merged rows still equal an
// uninterrupted run.
TEST(CheckpointResume, RecordsWithAttemptsOrRetriedOkReRun) {
  const std::string checkpoint = "/tmp/pofi_ckpt_resume_old_format.jsonl";
  const std::string old_format = "/tmp/pofi_ckpt_resume_old_format_edited.jsonl";
  std::remove(checkpoint.c_str());

  const auto campaign = load_campaign(parse(kCampaignJson));
  RunOptions options;
  options.checkpoint_path = checkpoint;
  const auto baseline = run_campaign(campaign, options);
  ASSERT_EQ(baseline.size(), 3u);

  std::vector<std::string> lines;
  {
    std::ifstream in(checkpoint, std::ios::binary);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  Value with_attempts = parse(lines[0]);
  with_attempts.set("attempts", std::uint64_t{1});
  Value retried = parse(lines[1]);
  retried.set("status", "retried-ok");
  {
    std::ofstream out(old_format, std::ios::binary | std::ios::trunc);
    out << canonical(with_attempts) << "\n" << canonical(retried) << "\n" << lines[2] << "\n";
  }

  RunOptions resume_options;
  resume_options.checkpoint_path = old_format;
  resume_options.resume = true;
  ResumeStats stats;
  resume_options.resume_stats = &stats;
  testing::internal::CaptureStderr();
  const auto resumed = run_campaign(campaign, resume_options);
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats.malformed_lines, 2u);
  EXPECT_FALSE(stats.truncated_tail);
  EXPECT_EQ(stats.records_loaded, 1u);
  EXPECT_EQ(stats.records_reused, 1u);
  EXPECT_NE(warnings.find(":1 unparseable record"), std::string::npos) << warnings;
  EXPECT_NE(warnings.find("attempts"), std::string::npos) << warnings;
  EXPECT_NE(warnings.find(":2 unparseable record"), std::string::npos) << warnings;
  EXPECT_NE(warnings.find("retried-ok"), std::string::npos) << warnings;

  ASSERT_EQ(resumed.size(), 3u);
  const std::size_t cached = static_cast<std::size_t>(
      checkpoint_record_from_json(parse(lines[2])).entry_index);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed[i].status, i == cached ? runner::CampaignStatus::kSkippedCached
                                             : runner::CampaignStatus::kOk);
  }
  const auto rows = campaign_rows(resumed);
  const auto baseline_rows = campaign_rows(baseline);
  ASSERT_EQ(rows.size(), baseline_rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].label, baseline_rows[i].label);
    EXPECT_EQ(fingerprint(rows[i].result), fingerprint(baseline_rows[i].result));
  }
}

TEST(CheckpointResume, ResilienceKnobsRoundTripThroughTheSpecCodec) {
  runner::RunnerConfig rc;
  rc.fail_fast = true;
  rc.campaign_timeout_seconds = 12.5;
  runner::RunnerConfig back;
  apply_json(back, parse(canonical(to_json(rc))));
  EXPECT_TRUE(back.fail_fast);
  EXPECT_EQ(back.campaign_timeout_seconds, 12.5);

  platform::PlatformConfig pc;
  pc.max_sim_events = 123456789;
  platform::PlatformConfig pc_back;
  apply_json(pc_back, parse(canonical(to_json(pc))));
  EXPECT_EQ(pc_back.max_sim_events, 123456789u);

  // The spec-visible knobs parse from a campaign document's runner section.
  const auto campaign = load_campaign(parse(
      R"({"name": "knobs", "runner": {"fail_fast": true, "campaign_timeout_seconds": 1.5},
          "experiment": {"faults": 1}, "drive": {"preset": "A", "capacity_gb": 1}})"));
  EXPECT_TRUE(campaign.runner.fail_fast);
  EXPECT_EQ(campaign.runner.campaign_timeout_seconds, 1.5);

  // Entries run once: a retry key is an unknown key, named with its line.
  try {
    (void)load_campaign(parse(
        "{\"name\": \"knobs\",\n \"runner\": {\"retry_limit\": 2},\n"
        " \"experiment\": {\"faults\": 1}, \"drive\": {\"preset\": \"A\", \"capacity_gb\": 1}}"));
    FAIL() << "expected spec::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.where(), "retry_limit");
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos);
  }
}

TEST(CheckpointResume, RunnerSectionDoesNotChangeTheContentHash) {
  const auto a = load_campaign(parse(kCampaignJson));
  Value doc = parse(kCampaignJson);
  doc.set_path("runner.fail_fast", true);
  doc.set_path("runner.threads", std::uint64_t{8});
  const auto b = load_campaign(doc);
  // Same campaign content → same hash → checkpoints stay valid when only
  // execution policy changes (more threads, fail-fast).
  EXPECT_EQ(a.hash, b.hash);
}

}  // namespace
}  // namespace pofi::spec
