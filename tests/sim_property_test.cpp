// Randomised property tests for the simulation kernel against reference
// models.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/simulator.hpp"

namespace pofi::sim {
namespace {

// ---------------------------------------------------------------------------
// EventQueue vs a reference std::multimap model: random schedule/cancel/pop
// sequences must fire exactly the reference's surviving events in exactly
// the reference's order.
// ---------------------------------------------------------------------------
class EventQueueTorture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueTorture, MatchesReferenceModel) {
  Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    EventQueue queue;
    // Reference: (time, insertion-seq) -> payload; cancelled entries removed.
    std::multimap<std::pair<std::int64_t, int>, int> reference;
    std::vector<EventId> ids;
    std::vector<int> fired;

    int payload = 0;
    const int ops = 200;
    for (int op = 0; op < ops; ++op) {
      if (rng.chance(0.7) || ids.empty()) {
        const std::int64_t t = rng.range(0, 50);
        const int value = payload++;
        ids.push_back(queue.schedule_at(TimePoint::from_ns(t),
                                        [&fired, value] { fired.push_back(value); }));
        reference.emplace(std::make_pair(t, value), value);
      } else {
        const auto idx = static_cast<std::size_t>(rng.below(ids.size()));
        const bool cancelled = queue.cancel(ids[idx]);
        // Find the reference entry by payload value == its insertion index.
        bool ref_had = false;
        for (auto it = reference.begin(); it != reference.end(); ++it) {
          if (it->second == static_cast<int>(idx)) {
            reference.erase(it);
            ref_had = true;
            break;
          }
        }
        EXPECT_EQ(cancelled, ref_had) << "cancel mismatch round " << round;
      }
    }

    EXPECT_EQ(queue.size(), reference.size());
    std::vector<int> expected;
    for (const auto& [key, value] : reference) expected.push_back(value);
    while (!queue.empty()) queue.pop().cb();
    EXPECT_EQ(fired, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueTorture, ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------------
// Large-scale fuzz against a naive reference: ≥10k interleaved schedule /
// cancel / pop operations per seed, with pops checked *during* the run (not
// just at drain time) and next_time(), pending() and time_of() checked after
// every op, so heap-invariant breakage surfaces at the op that caused it.
// The reference is an unsorted vector scanned linearly for the
// (time, insertion-order) minimum — slow but obviously correct.
// ---------------------------------------------------------------------------
class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, TenThousandOpsMatchNaiveReference) {
  struct RefEvent {
    std::int64_t t = 0;
    std::uint64_t order = 0;  ///< insertion counter: tie-break contract
    int value = 0;
    bool alive = false;
  };

  Rng rng(GetParam());
  Rng probe_rng(GetParam() + 1);  // own stream: the op sequence stays seed-fixed
  EventQueue queue;
  std::vector<RefEvent> reference;  // index == payload value
  std::vector<EventId> ids;
  std::uint64_t order = 0;
  std::int64_t clock_ns = 0;  // pops advance it; schedules land at/after it

  const auto ref_min = [&reference]() {
    std::size_t best = reference.size();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (!reference[i].alive) continue;
      if (best == reference.size() || reference[i].t < reference[best].t ||
          (reference[i].t == reference[best].t &&
           reference[i].order < reference[best].order)) {
        best = i;
      }
    }
    return best;
  };

  std::vector<int> fired;
  const int kOps = 12000;
  std::size_t live = 0;
  for (int op = 0; op < kOps; ++op) {
    const double dice = static_cast<double>(rng.below(100)) / 100.0;
    if (dice < 0.55 || live == 0) {
      const std::int64_t t = clock_ns + rng.range(0, 10000);
      const int value = static_cast<int>(reference.size());
      ids.push_back(queue.schedule_at(TimePoint::from_ns(t),
                                      [&fired, value] { fired.push_back(value); }));
      reference.push_back(RefEvent{t, order++, value, true});
      ++live;
    } else if (dice < 0.75) {
      const auto idx = static_cast<std::size_t>(rng.below(ids.size()));
      const bool cancelled = queue.cancel(ids[idx]);
      ASSERT_EQ(cancelled, reference[idx].alive) << "op " << op;
      if (reference[idx].alive) {
        reference[idx].alive = false;
        --live;
      }
      // Double-cancel through the same handle must stay a no-op.
      ASSERT_FALSE(queue.cancel(ids[idx]));
    } else {
      const std::size_t expect = ref_min();
      ASSERT_LT(expect, reference.size()) << "op " << op;
      fired.clear();
      auto ev = queue.pop();
      ev.cb();
      ASSERT_EQ(fired, std::vector<int>{reference[expect].value}) << "op " << op;
      ASSERT_EQ(ev.time.count_ns(), reference[expect].t) << "op " << op;
      clock_ns = reference[expect].t;
      reference[expect].alive = false;
      --live;
      // A fired event's handle must be dead too.
      ASSERT_FALSE(queue.cancel(ids[static_cast<std::size_t>(reference[expect].value)]));
    }
    ASSERT_EQ(queue.size(), live) << "op " << op;
    ASSERT_EQ(queue.empty(), live == 0) << "op " << op;
    const std::size_t min = ref_min();
    ASSERT_EQ(queue.next_time(), min == reference.size()
                                     ? TimePoint::max()
                                     : TimePoint::from_ns(reference[min].t))
        << "op " << op;
    // One random handle, fired, cancelled or pending, against its reference.
    const auto probe = static_cast<std::size_t>(probe_rng.below(ids.size()));
    ASSERT_EQ(queue.pending(ids[probe]), reference[probe].alive) << "op " << op;
    ASSERT_EQ(queue.time_of(ids[probe]), reference[probe].alive
                                             ? TimePoint::from_ns(reference[probe].t)
                                             : TimePoint::max())
        << "op " << op;
  }

  // Drain: the survivors must come out in exact (time, insertion) order.
  while (!queue.empty()) {
    const std::size_t expect = ref_min();
    ASSERT_LT(expect, reference.size());
    fired.clear();
    queue.pop().cb();
    ASSERT_EQ(fired, std::vector<int>{reference[expect].value});
    reference[expect].alive = false;
  }
  ASSERT_EQ(ref_min(), reference.size()) << "reference retained events the queue lost";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// clear() invariants: a cleared queue retains nothing — no pending events,
// no callback state (captures are destroyed immediately) — and stays fully
// usable afterwards.
// ---------------------------------------------------------------------------
TEST(EventQueueClear, FreesAllStateAndStaysUsable) {
  auto alive = std::make_shared<int>(42);  // captured by every callback
  std::weak_ptr<int> watch = alive;

  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(
        queue.schedule_at(TimePoint::from_ns(i), [alive] { (void)*alive; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) queue.cancel(ids[i]);
  alive.reset();
  EXPECT_FALSE(watch.expired()) << "queue must be keeping the captures alive";

  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), TimePoint::max());
  EXPECT_TRUE(watch.expired()) << "clear() leaked retained callback state";
  for (const EventId id : ids) {
    EXPECT_FALSE(queue.cancel(id)) << "pre-clear handle still cancellable";
  }

  // The queue keeps working, and post-clear events still order correctly.
  std::vector<int> fired;
  queue.schedule_at(TimePoint::from_ns(20), [&fired] { fired.push_back(2); });
  queue.schedule_at(TimePoint::from_ns(10), [&fired] { fired.push_back(1); });
  while (!queue.empty()) queue.pop().cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Simulator time monotonicity: however events interleave and re-schedule,
// observed `now()` never decreases and equals each event's scheduled time.
// ---------------------------------------------------------------------------
class SimulatorMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorMonotonicity, NowNeverDecreases) {
  Simulator sim(GetParam());
  Rng rng(GetParam() * 13);
  std::int64_t last_ns = -1;
  bool violated = false;
  std::function<void(int)> spawn = [&](int depth) {
    const std::int64_t now_ns = sim.now().count_ns();
    if (now_ns < last_ns) violated = true;
    last_ns = now_ns;
    if (depth <= 0) return;
    const int children = 1 + static_cast<int>(rng.below(3));
    for (int c = 0; c < children; ++c) {
      sim.after(Duration::us(rng.range(0, 500)), [&spawn, depth] { spawn(depth - 1); });
    }
  };
  for (int roots = 0; roots < 10; ++roots) {
    sim.after(Duration::us(rng.range(0, 1000)), [&spawn] { spawn(4); });
  }
  sim.run_all();
  EXPECT_FALSE(violated);
  EXPECT_GT(sim.events_fired(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorMonotonicity, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// run_until boundary semantics: events exactly at the deadline fire; later
// ones do not; the clock lands exactly on the deadline.
// ---------------------------------------------------------------------------
TEST(SimulatorBoundary, DeadlineInclusive) {
  Simulator sim;
  int fired = 0;
  sim.after(Duration::ms(10), [&] { ++fired; });
  sim.after(Duration::ms(10) + Duration::ns(1), [&] { ++fired; });
  sim.run_until(TimePoint::zero() + Duration::ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::zero() + Duration::ms(10));
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace pofi::sim
