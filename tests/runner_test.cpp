// Runner subsystem tests: determinism across thread counts, progress-event
// ordering, fail-fast cancellation, timeout budgets, and the progress
// reporters' output formats.
//
// The synthetic-job tests exercise CampaignRunner directly (it is generic
// over what a campaign runs); the determinism test drives the real
// spec::run_campaign_rows -> TestPlatform stack.
#include "runner/campaign_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "runner/progress.hpp"
#include "sim/rng.hpp"
#include "spec/campaign.hpp"
#include "ssd/presets.hpp"

namespace pofi::runner {
namespace {

platform::ExperimentResult synthetic_result(std::uint64_t tag) {
  platform::ExperimentResult r;
  r.requests_submitted = tag;
  r.data_failures = tag * 3;
  r.fwa_failures = tag % 5;
  r.faults_injected = static_cast<std::uint32_t>(tag % 7);
  return r;
}

/// Records every event; the runner serializes on_event calls, so plain
/// vector appends are safe even with a multi-thread pool.
class RecordingSink final : public ProgressSink {
 public:
  void on_event(const ProgressEvent& event) override { events_.push_back(event); }
  [[nodiscard]] const std::vector<ProgressEvent>& events() const { return events_; }

 private:
  std::vector<ProgressEvent> events_;
};

TEST(CampaignRunner, ResultsLandInSubmissionOrder) {
  RunnerConfig config;
  config.threads = 4;
  CampaignRunner runner(config);
  // Earlier jobs sleep longer: with 4 workers, completion order is roughly
  // the reverse of submission order, so ordered collection is actually
  // exercised rather than trivially satisfied.
  for (std::uint64_t i = 0; i < 8; ++i) {
    runner.add("job-" + std::to_string(i), [i] {
      std::this_thread::sleep_for(std::chrono::milliseconds((8 - i) * 5));
      return synthetic_result(i);
    });
  }
  const auto outcomes = runner.run();
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(outcomes[i].label, "job-" + std::to_string(i));
    EXPECT_EQ(outcomes[i].status, CampaignStatus::kOk);
    EXPECT_EQ(outcomes[i].result.requests_submitted, i);
    EXPECT_GT(outcomes[i].wall_seconds, 0.0);
  }
}

TEST(CampaignRunner, RunConsumesTheQueue) {
  CampaignRunner runner;
  runner.add("once", [] { return synthetic_result(1); });
  EXPECT_EQ(runner.size(), 1u);
  EXPECT_EQ(runner.run().size(), 1u);
  EXPECT_EQ(runner.size(), 0u);
  EXPECT_TRUE(runner.run().empty());
}

TEST(CampaignRunner, ProgressEventsAreOrdered) {
  constexpr std::size_t kJobs = 12;
  RecordingSink sink;
  RunnerConfig config;
  config.threads = 3;
  CampaignRunner runner(config, &sink);
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    runner.add("ev-" + std::to_string(i), [i] { return synthetic_result(i); });
  }
  (void)runner.run();

  const auto& events = sink.events();
  // One queued + one started + one finished per job.
  ASSERT_EQ(events.size(), 3 * kJobs);

  // The queued burst comes first, in submission order.
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(events[i].phase, CampaignPhase::kQueued);
    EXPECT_EQ(events[i].index, i);
    EXPECT_EQ(events[i].total, kJobs);
  }

  // Per campaign: queued < started < finished. Finished counter is monotone
  // and every event carries the right total.
  std::map<std::size_t, std::vector<CampaignPhase>> phases;
  std::size_t last_finished = 0;
  for (const auto& ev : events) {
    phases[ev.index].push_back(ev.phase);
    EXPECT_EQ(ev.total, kJobs);
    EXPECT_GE(ev.finished, last_finished);
    last_finished = ev.finished;
  }
  EXPECT_EQ(last_finished, kJobs);
  for (const auto& [index, seq] : phases) {
    ASSERT_EQ(seq.size(), 3u) << "campaign " << index;
    EXPECT_EQ(seq[0], CampaignPhase::kQueued);
    EXPECT_EQ(seq[1], CampaignPhase::kStarted);
    EXPECT_EQ(seq[2], CampaignPhase::kFinished);
  }

  // Suite failure totals accumulate: the last finished event has them all.
  std::uint64_t expected_loss = 0;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    expected_loss += synthetic_result(i).total_data_loss();
  }
  EXPECT_EQ(events.back().suite_data_loss, expected_loss);
}

TEST(CampaignRunner, FailFastSkipsPendingCampaigns) {
  RecordingSink sink;
  RunnerConfig config;
  config.threads = 1;  // deterministic scheduling for exact assertions
  config.fail_fast = true;
  CampaignRunner runner(config, &sink);
  runner.add("ok", [] { return synthetic_result(1); });
  runner.add("boom", []() -> platform::ExperimentResult {
    throw std::runtime_error("injected fault");
  });
  runner.add("never-a", [] { return synthetic_result(2); });
  runner.add("never-b", [] { return synthetic_result(3); });

  const auto outcomes = runner.run();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kOk);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kFailed);
  EXPECT_EQ(outcomes[1].error, "injected fault");
  EXPECT_EQ(outcomes[2].status, CampaignStatus::kSkipped);
  EXPECT_EQ(outcomes[3].status, CampaignStatus::kSkipped);

  // Skipped campaigns still resolve through the sink, and the run accounts
  // for every campaign.
  std::size_t skipped_events = 0;
  for (const auto& ev : sink.events()) {
    if (ev.phase == CampaignPhase::kFinished && ev.status == CampaignStatus::kSkipped) {
      ++skipped_events;
    }
  }
  EXPECT_EQ(skipped_events, 2u);
  EXPECT_EQ(sink.events().back().finished, 4u);
}

TEST(CampaignRunner, FailFastWithPoolAccountsForEveryCampaign) {
  RunnerConfig config;
  config.threads = 4;
  config.fail_fast = true;
  CampaignRunner runner(config);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    if (i == 2) {
      runner.add("boom", []() -> platform::ExperimentResult {
        throw std::runtime_error("x");
      });
    } else {
      runner.add("job", [&ran] {
        ++ran;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return synthetic_result(1);
      });
    }
  }
  const auto outcomes = runner.run();
  std::size_t ok = 0, failed = 0, skipped = 0;
  for (const auto& o : outcomes) {
    if (o.status == CampaignStatus::kOk) ++ok;
    if (o.status == CampaignStatus::kFailed) ++failed;
    if (o.status == CampaignStatus::kSkipped) ++skipped;
  }
  EXPECT_EQ(ok + failed + skipped, 16u);
  EXPECT_EQ(failed, 1u);
  EXPECT_GT(skipped, 0u);  // 4 workers cannot have drained 13 jobs first
  EXPECT_EQ(static_cast<std::size_t>(ran.load()), ok);
}

TEST(CampaignRunner, TimeoutBudgetFlagsSlowCampaigns) {
  RunnerConfig config;
  config.threads = 1;
  config.campaign_timeout_seconds = 0.005;
  CampaignRunner runner(config);
  runner.add("fast", [] { return synthetic_result(4); });
  runner.add("slow", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return synthetic_result(5);
  });
  const auto outcomes = runner.run();
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kOk);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kTimedOut);
  // A timed-out campaign still completed; its result stays usable.
  EXPECT_EQ(outcomes[1].result.requests_submitted, 5u);
}

TEST(CampaignRunner, TimeoutCountsAsFailureForFailFast) {
  RunnerConfig config;
  config.threads = 1;
  config.fail_fast = true;
  config.campaign_timeout_seconds = 0.005;
  CampaignRunner runner(config);
  runner.add("slow", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return synthetic_result(1);
  });
  runner.add("queued", [] { return synthetic_result(2); });
  const auto outcomes = runner.run();
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kTimedOut);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kSkipped);
}

TEST(JsonlProgressSink, EmitsOneParsableObjectPerLine) {
  std::ostringstream out;
  JsonlProgress sink(out);
  RunnerConfig config;
  config.threads = 1;
  CampaignRunner runner(config, &sink);
  runner.add("alpha \"quoted\"", [] { return synthetic_result(2); });
  (void)runner.run();

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"event\":"), std::string::npos);
    EXPECT_NE(line.find("alpha \\\"quoted\\\""), std::string::npos);
  }
  EXPECT_EQ(count, 3u);  // queued, started, finished
  EXPECT_NE(out.str().find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(out.str().find("\"data_failures\":6"), std::string::npos);
}

TEST(JsonlProgressSink, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("bell\x07")), "bell\\u0007");
}

// --- Determinism across thread counts (real platform stack) ----------------

ssd::SsdConfig det_drive() {
  ssd::PresetOptions opts;
  opts.capacity_override_gb = 1;
  auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
  cfg.mount_delay = sim::Duration::ms(50);
  return cfg;
}

platform::ExperimentSpec det_spec() {
  platform::ExperimentSpec spec;
  spec.name = "det";
  spec.workload.wss_pages = (128ULL << 20) / 4096;
  spec.workload.min_pages = 1;
  spec.workload.max_pages = 8;
  spec.total_requests = 120;
  spec.faults = 3;
  spec.pace_iops = 60.0;
  return spec;
}

/// Eight campaigns on one drive, seeds sharded from master seed 2024.
std::vector<spec::CampaignRow> run_det_suite(unsigned threads) {
  spec::CampaignSpec campaign;
  campaign.runner.threads = threads;
  for (std::size_t i = 0; i < 8; ++i) {
    spec::CampaignEntry entry;
    entry.label = "det-" + std::to_string(i);
    entry.drive = det_drive();
    entry.experiment = det_spec();
    entry.experiment.seed = sim::derive_seed(2024, i);
    campaign.entries.push_back(std::move(entry));
  }
  return spec::run_campaign_rows(campaign);
}

void expect_identical(const platform::ExperimentResult& a,
                      const platform::ExperimentResult& b) {
  EXPECT_EQ(a.requests_submitted, b.requests_submitted);
  EXPECT_EQ(a.write_acks, b.write_acks);
  EXPECT_EQ(a.reads_completed, b.reads_completed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.data_failures, b.data_failures);
  EXPECT_EQ(a.fwa_failures, b.fwa_failures);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.verified_ok, b.verified_ok);
  EXPECT_EQ(a.read_mismatches, b.read_mismatches);
  EXPECT_EQ(a.cache_dirty_lost, b.cache_dirty_lost);
  EXPECT_EQ(a.interrupted_programs, b.interrupted_programs);
  EXPECT_EQ(a.paired_page_upsets, b.paired_page_upsets);
  EXPECT_EQ(a.map_updates_reverted, b.map_updates_reverted);
  EXPECT_EQ(a.uncorrectable_reads, b.uncorrectable_reads);
  // Doubles must be bit-identical, not just close: the campaigns are the
  // same deterministic computation regardless of the worker that ran them.
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us);
  EXPECT_EQ(a.max_latency_us, b.max_latency_us);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.active_seconds, b.active_seconds);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].packet_id, b.failures[i].packet_id);
    EXPECT_EQ(a.failures[i].type, b.failures[i].type);
    EXPECT_EQ(a.failures[i].fault_index, b.failures[i].fault_index);
    EXPECT_EQ(a.failures[i].ack_to_fault_ms, b.failures[i].ack_to_fault_ms);
  }
}

TEST(RunnerDeterminism, ThreadCountDoesNotChangeResults) {
  const auto seq = run_det_suite(1);
  const auto two = run_det_suite(2);
  const auto eight = run_det_suite(8);
  ASSERT_EQ(seq.size(), 8u);
  ASSERT_EQ(two.size(), 8u);
  ASSERT_EQ(eight.size(), 8u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].label, two[i].label);
    EXPECT_EQ(seq[i].label, eight[i].label);
    expect_identical(seq[i].result, two[i].result);
    expect_identical(seq[i].result, eight[i].result);
  }
}

}  // namespace
}  // namespace pofi::runner
