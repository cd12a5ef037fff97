#include "blk/queue.hpp"
#include "blk/trace.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "ssd/presets.hpp"

namespace pofi::blk {
namespace {

using sim::Duration;
using sim::Simulator;

struct Harness {
  explicit Harness(bool instant_cutoff = false)
      : sim(17),
        psu(sim, instant_cutoff
                     ? std::unique_ptr<psu::DischargeModel>(std::make_unique<psu::InstantCutoff>())
                     : std::make_unique<psu::PowerLawDischarge>()),
        ssd(sim, drive()),
        queue(sim, ssd) {
    psu.attach(ssd);
    psu.power_on();
    run_until([&] { return ssd.ready(); });
  }

  static ssd::SsdConfig drive() {
    ssd::PresetOptions opts;
    opts.capacity_override_gb = 1;
    auto cfg = ssd::make_preset(ssd::VendorModel::kA, opts);
    cfg.mount_delay = Duration::ms(20);
    return cfg;
  }

  template <typename Pred>
  void run_until(Pred done, std::uint64_t max_events = 2'000'000) {
    std::uint64_t fired = 0;
    while (!done() && !sim.idle() && fired < max_events) {
      sim.run_all(1);
      ++fired;
    }
  }

  Simulator sim;
  psu::PowerSupply psu;
  ssd::Ssd ssd;
  BlockQueue queue;
};

TEST(BlockQueue, SmallRequestIsNotSplit) {
  Harness h;
  std::optional<RequestOutcome> out;
  h.queue.submit_write(0, {1, 2, 3, 4}, [&](RequestOutcome o) { out = std::move(o); });
  h.run_until([&] { return out.has_value(); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, IoStatus::kOk);
  EXPECT_EQ(h.queue.stats().splits, 0u);

  const auto ios = Btt::per_io_dump(h.queue.trace());
  ASSERT_EQ(ios.size(), 1u);
  EXPECT_EQ(ios[0].subs, 1u);
  EXPECT_TRUE(ios[0].completed());
}

TEST(BlockQueue, LargeRequestSplitsAtMaxPages) {
  Harness h;
  std::optional<RequestOutcome> out;
  std::vector<std::uint64_t> tags(200, 7);  // 64-page sub-requests -> 4 subs
  h.queue.submit_write(0, std::move(tags), [&](RequestOutcome o) { out = std::move(o); });
  h.run_until([&] { return out.has_value(); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, IoStatus::kOk);

  const auto ios = Btt::per_io_dump(h.queue.trace());
  ASSERT_EQ(ios.size(), 1u);
  EXPECT_EQ(ios[0].subs, 4u);  // 64+64+64+8
  EXPECT_TRUE(ios[0].completed());
  EXPECT_EQ(h.queue.stats().splits, 3u);
}

TEST(BlockQueue, ReadReassemblesAcrossSubRequests) {
  Harness h;
  std::vector<std::uint64_t> tags(130);
  for (std::size_t i = 0; i < tags.size(); ++i) tags[i] = 1000 + i;
  std::optional<RequestOutcome> wout;
  h.queue.submit_write(50, tags, [&](RequestOutcome o) { wout = std::move(o); });
  h.run_until([&] { return wout.has_value(); });
  ASSERT_EQ(wout->status, IoStatus::kOk);

  std::optional<RequestOutcome> rout;
  h.queue.submit_read(50, 130, [&](RequestOutcome o) { rout = std::move(o); });
  h.run_until([&] { return rout.has_value(); });
  ASSERT_EQ(rout->status, IoStatus::kOk);
  ASSERT_EQ(rout->read_contents.size(), 130u);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(rout->read_contents[i], tags[i]) << "page " << i;
  }
}

TEST(BlockQueue, DeviceDeathYieldsIoError) {
  Harness h(/*instant_cutoff=*/true);  // rail dies before the transfer ends
  std::optional<RequestOutcome> out;
  std::vector<std::uint64_t> tags(256, 9);
  h.queue.submit_write(0, std::move(tags), [&](RequestOutcome o) { out = std::move(o); });
  h.psu.power_off();  // dies mid-flight
  h.run_until([&] { return out.has_value(); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, IoStatus::kError);
  EXPECT_EQ(h.queue.stats().io_errors, 1u);

  const auto ios = Btt::per_io_dump(h.queue.trace());
  ASSERT_EQ(ios.size(), 1u);
  EXPECT_TRUE(ios[0].io_error());
  EXPECT_FALSE(ios[0].completed());
}

TEST(BlockQueue, SubmitToDeadDeviceErrorsImmediately) {
  Harness h;
  h.psu.power_off();
  h.run_until([&] { return h.psu.state() == psu::PowerSupply::State::kOff; });
  std::optional<RequestOutcome> out;
  h.queue.submit_read(0, 1, [&](RequestOutcome o) { out = std::move(o); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, IoStatus::kError);
}

TEST(BlockQueue, TimeoutAbandonsSilentRequest) {
  // A watchdog far below a 256-page write's service time: the request times
  // out while the drive is still working on its four sub-requests, and
  // their completions arrive after the queue has given up on it.
  Harness h;
  BlockQueue queue(h.sim, h.ssd, BlockQueue::Config{64, Duration::us(200)});
  std::vector<std::uint64_t> tags(256);
  for (std::size_t i = 0; i < tags.size(); ++i) tags[i] = 1000 + i;
  std::vector<RequestOutcome> outcomes;
  const std::uint64_t id =
      queue.submit_write(0, tags, [&](RequestOutcome o) { outcomes.push_back(std::move(o)); });
  h.run_until([&] { return !outcomes.empty(); });
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, IoStatus::kTimeout);
  EXPECT_EQ(outcomes[0].finished_at - outcomes[0].queued_at, Duration::us(200));
  EXPECT_LT(h.ssd.stats().commands_completed, 4u) << "the drive finished before the watchdog";

  // Let the drive finish: every late sub-completion is ignored.
  h.run_until([&] { return h.ssd.stats().commands_completed == 4; });
  ASSERT_EQ(h.ssd.stats().commands_completed, 4u);
  EXPECT_EQ(outcomes.size(), 1u) << "the outcome is delivered exactly once";
  EXPECT_EQ(queue.stats().timeouts, 1u);
  EXPECT_EQ(queue.stats().completed_ok, 0u);
  EXPECT_EQ(queue.stats().io_errors, 0u);
  EXPECT_EQ(queue.outstanding(), 0u);

  // One T record, and nothing traced for the request after it.
  const auto& events = queue.trace().events();
  std::size_t timeouts = 0;
  bool after_timeout = false;
  for (const TraceEvent& ev : events) {
    if (ev.request_id != id) continue;
    EXPECT_FALSE(after_timeout) << "record '" << static_cast<char>(ev.action)
                                << "' after the timeout";
    if (ev.action == Action::kTimeout) {
      ++timeouts;
      after_timeout = true;
    }
  }
  EXPECT_EQ(timeouts, 1u);

  // The late completions did land: the data reads back through the
  // drive's default queue.
  std::optional<RequestOutcome> read;
  h.queue.submit_read(0, 256, [&](RequestOutcome o) { read = std::move(o); });
  h.run_until([&] { return read.has_value(); });
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->status, IoStatus::kOk);
  EXPECT_EQ(read->read_contents, tags);
}

TEST(BlockQueue, StatsCountOutcomes) {
  Harness h;
  std::optional<RequestOutcome> a, b;
  h.queue.submit_write(0, {1}, [&](RequestOutcome o) { a = std::move(o); });
  h.queue.submit_read(0, 1, [&](RequestOutcome o) { b = std::move(o); });
  h.run_until([&] { return a.has_value() && b.has_value(); });
  EXPECT_EQ(h.queue.stats().submitted, 2u);
  EXPECT_EQ(h.queue.stats().completed_ok, 2u);
  EXPECT_EQ(h.queue.outstanding(), 0u);
}

// ---------------------------------------------------------------- Btt unit

TEST(Btt, PerIoDumpStitchesEvents) {
  BlkTrace trace;
  using sim::TimePoint;
  const auto t = [](int ms) { return TimePoint::from_ns(ms * 1'000'000LL); };
  trace.record({t(0), Action::kQueued, 1, 0, 100, 128, true});
  trace.record({t(0), Action::kSplit, 1, 0, 100, 64, true});
  trace.record({t(0), Action::kSplit, 1, 1, 164, 64, true});
  trace.record({t(1), Action::kDispatch, 1, 0, 100, 64, true});
  trace.record({t(1), Action::kDispatch, 1, 1, 164, 64, true});
  trace.record({t(5), Action::kComplete, 1, 0, 100, 64, true});
  trace.record({t(9), Action::kComplete, 1, 1, 164, 64, true});

  const auto ios = Btt::per_io_dump(trace);
  ASSERT_EQ(ios.size(), 1u);
  const PerIo& io = ios[0];
  EXPECT_EQ(io.subs, 2u);
  EXPECT_TRUE(io.completed());
  EXPECT_FALSE(io.io_error());
  ASSERT_TRUE(io.q2c().has_value());
  EXPECT_NEAR(io.q2c()->to_ms(), 9.0, 1e-9);
  EXPECT_NEAR(io.first_dispatch->to_ms(), 1.0, 1e-9);
}

TEST(Btt, IncompleteRequestDetected) {
  BlkTrace trace;
  using sim::TimePoint;
  const auto t = [](int ms) { return TimePoint::from_ns(ms * 1'000'000LL); };
  trace.record({t(0), Action::kQueued, 2, 0, 0, 128, true});
  trace.record({t(1), Action::kDispatch, 2, 0, 0, 64, true});
  trace.record({t(1), Action::kDispatch, 2, 1, 64, 64, true});
  trace.record({t(5), Action::kComplete, 2, 0, 0, 64, true});
  trace.record({t(6), Action::kError, 2, 1, 64, 64, true});

  const auto ios = Btt::per_io_dump(trace);
  ASSERT_EQ(ios.size(), 1u);
  EXPECT_FALSE(ios[0].completed());
  EXPECT_TRUE(ios[0].io_error());
  EXPECT_FALSE(ios[0].q2c().has_value());
}

TEST(Btt, SummaryAggregates) {
  BlkTrace trace;
  using sim::TimePoint;
  const auto t = [](int ms) { return TimePoint::from_ns(ms * 1'000'000LL); };
  trace.record({t(0), Action::kQueued, 1, 0, 0, 1, true});
  trace.record({t(0), Action::kDispatch, 1, 0, 0, 1, true});
  trace.record({t(2), Action::kComplete, 1, 0, 0, 1, true});
  trace.record({t(0), Action::kQueued, 2, 0, 8, 1, true});
  trace.record({t(0), Action::kDispatch, 2, 0, 8, 1, true});
  trace.record({t(6), Action::kComplete, 2, 0, 8, 1, true});
  trace.record({t(1), Action::kQueued, 3, 0, 16, 1, false});
  trace.record({t(1), Action::kDispatch, 3, 0, 16, 1, false});
  trace.record({t(2), Action::kError, 3, 0, 16, 1, false});

  const auto summary = Btt::summarize(Btt::per_io_dump(trace));
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.io_errors, 1u);
  EXPECT_NEAR(summary.mean_q2c_us, 4000.0, 1.0);
  EXPECT_NEAR(summary.max_q2c_us, 6000.0, 1.0);
}

TEST(Btt, DisabledTraceRecordsNothing) {
  BlkTrace trace;
  trace.set_enabled(false);
  trace.record({sim::TimePoint::zero(), Action::kQueued, 1, 0, 0, 1, true});
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace pofi::blk
