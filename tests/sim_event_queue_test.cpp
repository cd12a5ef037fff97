#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pofi::sim {
namespace {

using namespace pofi::sim::literals;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(TimePoint::from_ns(30), [&] { order.push_back(3); });
  q.schedule_at(TimePoint::from_ns(10), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(TimePoint::from_ns(100), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(TimePoint::from_ns(10), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue q;
  const EventId id = q.schedule_at(TimePoint::from_ns(10), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule_at(TimePoint::from_ns(5), [] {});
  q.schedule_at(TimePoint::from_ns(50), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), TimePoint::from_ns(50));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule_at(TimePoint::from_ns(1), [] {});
  q.schedule_at(TimePoint::from_ns(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelRefillSiftsUp) {
  // Scheduled in this order the binary heap is [1, 10, 2, 11, 12, 3, 4].
  // Cancelling 11 moves the last entry (4) into its hole under 10, so the
  // refill must sift up, not down. 20 and 21 land after the cancel so that 4
  // is no longer the last entry; otherwise a heap that failed to lift it
  // would repair itself on the next pops and drain in order anyway.
  EventQueue q;
  std::vector<int> order;
  EventId eleven;
  for (const int t : {1, 10, 2, 11, 12, 3, 4}) {
    const EventId id =
        q.schedule_at(TimePoint::from_ns(t), [&order, t] { order.push_back(t); });
    if (t == 11) eleven = id;
  }
  ASSERT_TRUE(q.cancel(eleven));
  for (const int t : {20, 21}) {
    q.schedule_at(TimePoint::from_ns(t), [&order, t] { order.push_back(t); });
  }
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 10, 12, 20, 21}));
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.after(10_ms, [&] { ++fired; });
  sim.after(20_ms, [&] { ++fired; });
  sim.run_until(TimePoint::zero() + 15_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::zero() + 15_ms);
  sim.run_until(TimePoint::zero() + 25_ms);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now().to_ms());
    if (times.size() < 3) sim.after(5_ms, chain);
  };
  sim.after(5_ms, chain);
  sim.run_all();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
  EXPECT_DOUBLE_EQ(times[2], 15.0);
}

TEST(Simulator, SchedulingInPastClampsToNow) {
  Simulator sim;
  sim.run_until(TimePoint::zero() + 10_ms);
  bool fired = false;
  sim.at(TimePoint::zero() + 5_ms, [&] {
    fired = true;
    EXPECT_EQ(sim.now(), TimePoint::zero() + 10_ms);
  });
  sim.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunAllHonoursEventCap) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.after(1_ms, forever); };
  sim.after(1_ms, forever);
  const auto fired = sim.run_all(100);
  EXPECT_EQ(fired, 100u);
}

TEST(Simulator, CancelThroughSimulator) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.after(1_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ForkRngStable) {
  Simulator sim(99);
  Rng a = sim.fork_rng("x");
  Rng b = sim.fork_rng("x");
  EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace pofi::sim
