// Resilience tests for the campaign runner: quarantine, step-budget
// watchdog aborts, cooperative cancellation, checkpoint-restored
// entries, the result hook, and the JSONL taxonomy records.
//
// Synthetic jobs throughout — the runner is generic over what a campaign
// runs, so injected failures are plain lambdas that throw on command. The
// checkpoint/resume integration against the real platform stack lives in
// spec_checkpoint_test.cpp and determinism_golden_test.cpp.
#include "runner/campaign_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <vector>

#include "runner/progress.hpp"
#include "runner/session.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace pofi::runner {
namespace {

platform::ExperimentResult synthetic_result(std::uint64_t tag) {
  platform::ExperimentResult r;
  r.requests_submitted = tag;
  r.data_failures = tag * 3;
  r.mean_latency_us = 0.1 * static_cast<double>(tag);
  return r;
}

class RecordingSink final : public ProgressSink {
 public:
  void on_event(const ProgressEvent& event) override { events_.push_back(event); }
  [[nodiscard]] const std::vector<ProgressEvent>& events() const { return events_; }

 private:
  std::vector<ProgressEvent> events_;
};

TEST(RunnerResilience, QuarantineIsolatesThePoisonEntry) {
  RecordingSink sink;
  RunnerConfig config;
  config.threads = 2;
  CampaignRunner runner(config, &sink);
  for (std::uint64_t i = 0; i < 6; ++i) {
    if (i == 2) {
      runner.add("poison", []() -> platform::ExperimentResult {
        throw std::runtime_error("always broken");
      });
    } else {
      runner.add("ok-" + std::to_string(i), [i] { return synthetic_result(i); });
    }
  }
  const auto outcomes = runner.run();
  ASSERT_EQ(outcomes.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    if (i == 2) {
      EXPECT_EQ(outcomes[i].status, CampaignStatus::kQuarantined);
      EXPECT_EQ(outcomes[i].error, "always broken");
    } else {
      EXPECT_EQ(outcomes[i].status, CampaignStatus::kOk);
      EXPECT_EQ(outcomes[i].result.requests_submitted, i);
    }
  }
  // The suite ran to completion: every campaign resolved through the sink.
  EXPECT_EQ(sink.events().back().finished, 6u);
}

TEST(RunnerResilience, StepLimitAbortIsQuarantined) {
  // A simulator that trips its step budget throws AbortError(kStepLimit);
  // the runner treats that like any failed entry (a mis-set budget is a
  // config problem, not a reason to kill the suite).
  RunnerConfig config;
  config.threads = 1;
  CampaignRunner runner(config);
  int calls = 0;
  runner.add("stuck", [&calls]() -> platform::ExperimentResult {
    ++calls;
    throw sim::AbortError(sim::AbortReason::kStepLimit,
                          "simulation step budget exceeded (100 events)");
  });
  runner.add("fine", [] { return synthetic_result(9); });

  const auto outcomes = runner.run();
  EXPECT_EQ(calls, 1);  // an entry runs once: a rerun would trip the same budget
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kQuarantined);
  EXPECT_NE(outcomes[0].error.find("step budget"), std::string::npos);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kOk);
}

TEST(RunnerResilience, CancelTokenStopsDequeuingAndSkipsTheRest) {
  std::atomic<bool> cancel{false};
  RunnerConfig config;
  config.threads = 1;
  config.cancel = &cancel;
  CampaignRunner runner(config);
  runner.add("first", [&cancel] {
    cancel.store(true);  // operator hits Ctrl-C while this entry runs
    return synthetic_result(1);
  });
  runner.add("never-a", [] { return synthetic_result(2); });
  runner.add("never-b", [] { return synthetic_result(3); });

  const auto outcomes = runner.run();
  // The in-flight entry completed (it returned before the token was polled);
  // everything still queued resolves kSkipped.
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kOk);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kSkipped);
  EXPECT_EQ(outcomes[2].status, CampaignStatus::kSkipped);
}

TEST(RunnerResilience, SimulatorCancelAbortResolvesEntryAsCancelled) {
  // An entry unwinding with AbortError(kCancelled) — its simulator observed
  // the shared token mid-run — is not quarantined: the operator asked for a
  // stop, so the entry resolves kCancelled and the suite drains.
  RunnerConfig config;
  config.threads = 1;
  CampaignRunner runner(config);
  runner.add("interrupted", []() -> platform::ExperimentResult {
    throw sim::AbortError(sim::AbortReason::kCancelled, "simulation cancelled");
  });
  runner.add("queued", [] { return synthetic_result(4); });

  const auto outcomes = runner.run();
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kCancelled);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kSkipped);
}

TEST(RunnerResilience, CachedEntriesResolveUpFrontAndKeepSuiteTotals) {
  RecordingSink sink;
  RunnerConfig config;
  config.threads = 2;
  CampaignRunner runner(config, &sink);
  EXPECT_EQ(runner.add_completed("cached-0", synthetic_result(10)), 0u);
  EXPECT_EQ(runner.add("live-1", [] { return synthetic_result(11); }), 1u);
  EXPECT_EQ(runner.add_completed("cached-2", synthetic_result(12)), 2u);
  EXPECT_EQ(runner.add("live-3", [] { return synthetic_result(13); }), 3u);

  const auto outcomes = runner.run();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].status, CampaignStatus::kSkippedCached);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kOk);
  EXPECT_EQ(outcomes[2].status, CampaignStatus::kSkippedCached);
  EXPECT_EQ(outcomes[3].status, CampaignStatus::kOk);
  EXPECT_EQ(outcomes[0].result.requests_submitted, 10u);
  EXPECT_EQ(outcomes[2].result.requests_submitted, 12u);

  // Restored entries resolve before any live campaign starts, and the suite
  // aggregates count them exactly as if they had run.
  std::size_t first_started = sink.events().size();
  std::size_t last_cached_finish = 0;
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    const auto& ev = sink.events()[i];
    if (ev.phase == CampaignPhase::kStarted && i < first_started) first_started = i;
    if (ev.phase == CampaignPhase::kFinished && ev.status == CampaignStatus::kSkippedCached) {
      last_cached_finish = i;
    }
  }
  EXPECT_LT(last_cached_finish, first_started);
  std::uint64_t expected_loss = 0;
  for (std::uint64_t tag : {10, 11, 12, 13}) {
    expected_loss += synthetic_result(tag).total_data_loss();
  }
  EXPECT_EQ(sink.events().back().suite_data_loss, expected_loss);
  EXPECT_EQ(sink.events().back().finished, 4u);
}

/// Minimal pooled session for the runner-level reuse tests: counts how many
/// entries recycled it (the stand-in for a reset cycle).
struct MarkerSession final : SessionBase {
  std::uint64_t cycles = 0;
};

// The checkpoint-resume × session-reuse interaction: restored entries
// resolve up front, so they must neither consume a session reset cycle nor
// shift which seed a live entry computes with — a resumed campaign's
// remaining entries are bit-identical to the same entries in an
// uncheckpointed run.
TEST(RunnerResilience, CheckpointRestoredEntriesDoNotPerturbPooledSessions) {
  constexpr std::uint64_t kMaster = 97;

  // A live entry seeded the spec-layer way: by its flat add() index, fixed
  // at add time. The result folds in the seed AND the session cycle number,
  // so it diverges loudly if a cached entry ever touched the worker's slot
  // or renumbered an entry.
  std::atomic<std::uint64_t> invocations{0};
  const auto live = [&invocations](std::size_t index) {
    return [&invocations, index](SessionSlot& slot) {
      auto* session = dynamic_cast<MarkerSession*>(slot.get());
      if (session == nullptr) {
        auto fresh = std::make_unique<MarkerSession>();
        session = fresh.get();
        slot = std::move(fresh);
      }
      session->cycles += 1;
      invocations.fetch_add(1);
      return synthetic_result(sim::derive_seed(kMaster, static_cast<std::uint64_t>(index)) %
                              1000);
    };
  };

  RunnerConfig config;
  config.threads = 1;  // one worker = one slot: cycle numbers are exact

  // Reference: all four entries live.
  CampaignRunner full(config);
  for (std::size_t i = 0; i < 4; ++i) {
    full.add("entry-" + std::to_string(i), live(i));
  }
  const auto full_outcomes = full.run();
  ASSERT_EQ(full_outcomes.size(), 4u);
  EXPECT_EQ(invocations.load(), 4u);

  // Resumed: the first two entries come back from the checkpoint, spliced in
  // with add_completed() exactly like spec::run_campaign does.
  invocations.store(0);
  CampaignRunner resumed(config);
  resumed.add_completed("entry-0", full_outcomes[0].result);
  resumed.add_completed("entry-1", full_outcomes[1].result);
  resumed.add("entry-2", live(2));
  resumed.add("entry-3", live(3));
  const auto resumed_outcomes = resumed.run();
  ASSERT_EQ(resumed_outcomes.size(), 4u);

  // Cached entries never became session cycles...
  EXPECT_EQ(invocations.load(), 2u);
  // ...and every remaining entry reproduced the uncheckpointed run exactly:
  // same seed-derived payload, independent of how many entries were cached
  // ahead of it (the session-reuse contract: results never depend on slot
  // contents, so cycle 1 and cycle 3 are indistinguishable).
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(resumed_outcomes[i].result.requests_submitted,
              full_outcomes[i].result.requests_submitted)
        << "entry " << i;
    EXPECT_EQ(resumed_outcomes[i].result.data_failures,
              full_outcomes[i].result.data_failures)
        << "entry " << i;
  }
  EXPECT_EQ(resumed_outcomes[0].status, CampaignStatus::kSkippedCached);
  EXPECT_EQ(resumed_outcomes[2].status, CampaignStatus::kOk);
}

// A worker's pooled session survives across live entries (same object, one
// cycle each) and is dropped after a throw: the worker's next entry must
// rebuild from nothing rather than inherit a possibly-poisoned stack.
TEST(RunnerResilience, FailedAttemptDropsThePooledSession) {
  RunnerConfig config;
  config.threads = 1;

  std::vector<std::uint64_t> cycles;
  const auto observe = [&cycles](SessionSlot& slot) {
    auto* session = dynamic_cast<MarkerSession*>(slot.get());
    if (session == nullptr) {
      auto fresh = std::make_unique<MarkerSession>();
      session = fresh.get();
      slot = std::move(fresh);
    }
    session->cycles += 1;
    cycles.push_back(session->cycles);
  };

  CampaignRunner runner(config);
  runner.add("ok-0", [&](SessionSlot& slot) {
    observe(slot);
    return synthetic_result(1);
  });
  runner.add("poison-1", [&](SessionSlot& slot) -> platform::ExperimentResult {
    observe(slot);
    throw std::runtime_error("poisoned mid-campaign");
  });
  runner.add("ok-2", [&](SessionSlot& slot) {
    observe(slot);
    return synthetic_result(3);
  });
  const auto outcomes = runner.run();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].status, CampaignStatus::kQuarantined);
  EXPECT_EQ(outcomes[2].status, CampaignStatus::kOk);

  // ok-0 and poison-1 share the pooled session (cycles 1, 2); the throw
  // drops it, so ok-2 starts a new one — its cycle count restarts at 1.
  // (Cycle counts, not pointer identity: the allocator routinely hands the
  // replacement the freed session's address.)
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{1, 2, 1}));
}

TEST(RunnerResilience, ResultHookSeesRanEntriesAndSurvivesThrowing) {
  RunnerConfig config;
  config.threads = 1;
  CampaignRunner runner(config);
  runner.add_completed("cached", synthetic_result(1));
  runner.add("live-a", [] { return synthetic_result(2); });
  runner.add("live-b", [] { return synthetic_result(3); });

  std::vector<std::size_t> hooked;
  runner.set_result_hook([&hooked](std::size_t index, const CampaignRunner::Outcome& out) {
    hooked.push_back(index);
    EXPECT_TRUE(is_success(out.status));
    throw std::runtime_error("hook exploded");  // must not take down the suite
  });
  const auto outcomes = runner.run();
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& out : outcomes) EXPECT_TRUE(is_success(out.status));
  // Checkpoint-restored entries are not re-recorded; live ones are, even
  // though the hook throws every time.
  EXPECT_EQ(hooked, (std::vector<std::size_t>{1, 2}));
}

TEST(JsonlProgressSink, EmitsQuarantineRecords) {
  std::ostringstream out;
  JsonlProgress sink(out);
  RunnerConfig config;
  config.threads = 1;
  CampaignRunner runner(config, &sink);
  runner.add("doomed", []() -> platform::ExperimentResult {
    throw std::runtime_error("injected");
  });
  (void)runner.run();

  const std::string text = out.str();
  EXPECT_NE(text.find("{\"event\":\"finished\",\"index\":0,\"label\":\"doomed\","
                      "\"status\":\"quarantined\",\"error\":\"injected\",\"finished\":1"),
            std::string::npos);
  // Every line is one complete object (single-write flushing is exercised
  // for real in the checkpoint tests; here the framing must hold).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(CampaignStatusTaxonomy, StringsRoundTrip) {
  for (CampaignStatus s :
       {CampaignStatus::kPending, CampaignStatus::kOk, CampaignStatus::kFailed,
        CampaignStatus::kTimedOut, CampaignStatus::kQuarantined, CampaignStatus::kCancelled,
        CampaignStatus::kSkipped, CampaignStatus::kSkippedCached, CampaignStatus::kAuditFailed}) {
    CampaignStatus parsed{};
    ASSERT_TRUE(status_from_string(to_string(s), parsed)) << to_string(s);
    EXPECT_EQ(parsed, s);
  }
  CampaignStatus parsed{};
  EXPECT_FALSE(status_from_string("no-such-status", parsed));
}

TEST(CampaignStatusTaxonomy, SuccessPredicateMatchesResultValidity) {
  EXPECT_TRUE(is_success(CampaignStatus::kOk));
  EXPECT_TRUE(is_success(CampaignStatus::kTimedOut));  // completed, over budget
  EXPECT_TRUE(is_success(CampaignStatus::kSkippedCached));
  EXPECT_FALSE(is_success(CampaignStatus::kPending));
  EXPECT_FALSE(is_success(CampaignStatus::kFailed));
  EXPECT_FALSE(is_success(CampaignStatus::kQuarantined));
  EXPECT_FALSE(is_success(CampaignStatus::kCancelled));
  EXPECT_FALSE(is_success(CampaignStatus::kSkipped));
  // Audit failure means the run *completed* but the result is a bug report,
  // not a measurement — keeping it out of is_success keeps it out of the
  // resume checkpoint so the shard re-runs.
  EXPECT_FALSE(is_success(CampaignStatus::kAuditFailed));
}

}  // namespace
}  // namespace pofi::runner
