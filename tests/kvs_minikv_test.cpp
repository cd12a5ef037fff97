#include "kvs/minikv.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "kvs/fault_drill.hpp"
#include "psu/power_supply.hpp"
#include "ssd/presets.hpp"

namespace pofi::kvs {
namespace {

using sim::Duration;
using sim::Simulator;

struct Harness {
  explicit Harness(CommitDiscipline discipline = CommitDiscipline::kBarriered)
      : sim(37),
        psu(sim, std::make_unique<psu::PowerLawDischarge>()),
        ssd(sim, drive()),
        queue(sim, ssd),
        kv(sim, queue, config(discipline)) {
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
  static MiniKv::Config config(CommitDiscipline d) {
    MiniKv::Config c;
    c.wal_pages = 8192;
    c.discipline = d;
    return c;
  }

  template <typename Pred>
  void run_until(Pred done, std::uint64_t max_events = 4'000'000) {
    std::uint64_t fired = 0;
    while (!done() && !sim.idle() && fired < max_events) {
      sim.run_all(1);
      ++fired;
    }
  }

  bool commit_sync() {
    std::optional<bool> ok;
    kv.commit([&](bool r) { ok = r; });
    run_until([&] { return ok.has_value(); });
    return ok.value_or(false);
  }

  RecoveryStats recover_sync() {
    std::optional<RecoveryStats> st;
    kv.recover([&](RecoveryStats r) { st = r; });
    run_until([&] { return st.has_value(); });
    return st.value_or(RecoveryStats{});
  }

  void power_cycle() {
    psu.power_off();
    run_until([&] { return psu.state() == psu::PowerSupply::State::kOff; });
    sim.run_for(Duration::ms(100));
    psu.power_on();
    run_until([&] { return ssd.ready(); });
  }

  Simulator sim;
  psu::PowerSupply psu;
  ssd::Ssd ssd;
  blk::BlockQueue queue;
  MiniKv kv;
};

TEST(MiniKvCodec, PutRoundTrip) {
  const auto rec = MiniKv::encode_put(0x123456, 0xDEADBEEF);
  EXPECT_TRUE(MiniKv::is_put(rec));
  EXPECT_FALSE(MiniKv::is_commit(rec));
  EXPECT_EQ(MiniKv::put_key(rec), 0x123456u);
  EXPECT_EQ(MiniKv::put_value(rec), 0xDEADBEEFu);
}

TEST(MiniKvCodec, CommitDistinct) {
  const auto rec = MiniKv::encode_commit(42);
  EXPECT_TRUE(MiniKv::is_commit(rec));
  EXPECT_FALSE(MiniKv::is_put(rec));
  // Erased flash never parses as a record.
  EXPECT_FALSE(MiniKv::is_put(nand::kErasedContent));
  EXPECT_FALSE(MiniKv::is_commit(nand::kErasedContent));
}

TEST(MiniKv, PutCommitGet) {
  Harness h;
  h.kv.put(1, 100);
  h.kv.put(2, 200);
  EXPECT_TRUE(h.commit_sync());
  EXPECT_EQ(h.kv.get(1), std::optional<std::uint32_t>(100));
  EXPECT_EQ(h.kv.get(2), std::optional<std::uint32_t>(200));
  EXPECT_FALSE(h.kv.get(3).has_value());
  EXPECT_EQ(h.kv.stats().txns_committed, 1u);
}

TEST(MiniKv, EmptyCommitSucceedsTrivially) {
  Harness h;
  EXPECT_TRUE(h.commit_sync());
  EXPECT_EQ(h.kv.stats().txns_committed, 0u);
}

TEST(MiniKv, OverwriteTakesLatestCommit) {
  Harness h;
  h.kv.put(7, 1);
  EXPECT_TRUE(h.commit_sync());
  h.kv.put(7, 2);
  EXPECT_TRUE(h.commit_sync());
  EXPECT_EQ(h.kv.get(7), std::optional<std::uint32_t>(2));
}

TEST(MiniKv, BarrieredCommitSurvivesImmediateCrash) {
  Harness h(CommitDiscipline::kBarriered);
  h.kv.put(10, 0xAAAA);
  h.kv.put(11, 0xBBBB);
  ASSERT_TRUE(h.commit_sync());
  h.power_cycle();
  const auto st = h.recover_sync();
  EXPECT_EQ(st.committed_found, 1u);
  EXPECT_EQ(st.torn, 0u);
  EXPECT_EQ(h.kv.get(10), std::optional<std::uint32_t>(0xAAAA));
  EXPECT_EQ(h.kv.get(11), std::optional<std::uint32_t>(0xBBBB));
}

TEST(MiniKv, UnsafeCommitLostByImmediateCrash) {
  Harness h(CommitDiscipline::kUnsafe);
  h.kv.put(10, 0xAAAA);
  ASSERT_TRUE(h.commit_sync());  // ACK received...
  h.power_cycle();               // ...but the data was in DRAM
  const auto st = h.recover_sync();
  EXPECT_EQ(st.committed_found, 0u);
  EXPECT_FALSE(h.kv.get(10).has_value());
}

TEST(MiniKv, RecoveryReplaysMultipleTransactions) {
  Harness h(CommitDiscipline::kBarriered);
  for (std::uint32_t t = 0; t < 5; ++t) {
    h.kv.put(t, t * 10);
    h.kv.put(100 + t, t);
    ASSERT_TRUE(h.commit_sync());
  }
  h.power_cycle();
  const auto st = h.recover_sync();
  EXPECT_EQ(st.committed_found, 5u);
  for (std::uint32_t t = 0; t < 5; ++t) {
    EXPECT_EQ(h.kv.get(t), std::optional<std::uint32_t>(t * 10));
  }
  EXPECT_EQ(h.kv.table_size(), 10u);
}

TEST(MiniKv, AppendContinuesAfterRecovery) {
  Harness h(CommitDiscipline::kBarriered);
  h.kv.put(1, 11);
  ASSERT_TRUE(h.commit_sync());
  h.power_cycle();
  (void)h.recover_sync();
  h.kv.put(2, 22);
  ASSERT_TRUE(h.commit_sync());
  h.power_cycle();
  const auto st = h.recover_sync();
  EXPECT_EQ(st.committed_found, 2u);
  EXPECT_EQ(h.kv.get(1), std::optional<std::uint32_t>(11));
  EXPECT_EQ(h.kv.get(2), std::optional<std::uint32_t>(22));
}

TEST(MiniKv, TornTransactionNotReplayed) {
  // Write data records without a commit (crash between the two), then make
  // sure recovery counts it as torn and does not apply the puts.
  Harness h(CommitDiscipline::kBarriered);
  h.kv.put(1, 11);
  ASSERT_TRUE(h.commit_sync());  // PUT at LPN 0, COMMIT at LPN 1
  // Handcraft a torn txn: data page + flush, then crash before commit page.
  bool wrote = false;
  h.queue.submit_write(2, {MiniKv::encode_put(9, 99)},
                       [&](blk::RequestOutcome) { wrote = true; });
  h.run_until([&] { return wrote; });
  bool flushed = false;
  h.queue.submit_flush([&](blk::RequestOutcome) { flushed = true; });
  h.run_until([&] { return flushed; });
  h.power_cycle();
  // The orphan put directly follows the committed transaction, so recovery
  // reads it with no gap before it and ends the log with a pending run: one
  // torn transaction, no hole.
  const auto st = h.recover_sync();
  EXPECT_EQ(st.torn, 1u);
  EXPECT_EQ(st.committed_found, 1u);
  EXPECT_EQ(st.holes, 0u);
  EXPECT_FALSE(h.kv.get(9).has_value());
  EXPECT_EQ(h.kv.get(1), std::optional<std::uint32_t>(11));
}

TEST(MiniKv, RecoveryCountsHoleBeforeSurvivingRecord) {
  // A committed transaction, two never-written pages, then another complete
  // transaction: recovery replays both and reports the gap as one hole.
  Harness h(CommitDiscipline::kBarriered);
  h.kv.put(1, 11);
  ASSERT_TRUE(h.commit_sync());  // PUT at LPN 0, COMMIT at LPN 1
  bool wrote = false;
  h.queue.submit_write(4, {MiniKv::encode_put(2, 22), MiniKv::encode_commit(7)},
                       [&](blk::RequestOutcome) { wrote = true; });
  h.run_until([&] { return wrote; });
  bool flushed = false;
  h.queue.submit_flush([&](blk::RequestOutcome) { flushed = true; });
  h.run_until([&] { return flushed; });
  h.power_cycle();
  const auto st = h.recover_sync();
  EXPECT_EQ(st.holes, 1u);
  EXPECT_EQ(st.committed_found, 2u);
  EXPECT_EQ(st.torn, 0u);
  EXPECT_EQ(h.kv.get(2), std::optional<std::uint32_t>(22));
}

// The application-level claims over whole fault drills (examples/acid_torture
// prints them for seeds 9000-9002). Both hold on seeds 1-20 and 9000-9002;
// three are kept to bound the suite's time.
constexpr std::uint64_t kDrillSeeds[] = {1, 2, 3};

TEST(MiniKvFaultDrill, TrustingTheAckOnACommodityDriveLosesCommittedKeys) {
  for (const std::uint64_t seed : kDrillSeeds) {
    const DrillResult r = run_fault_drill(CommitDiscipline::kUnsafe, /*plp=*/false, seed);
    EXPECT_GT(r.committed, 0u) << "seed " << seed;
    EXPECT_GT(r.durability_violations, 0u) << "seed " << seed;
  }
}

TEST(MiniKvFaultDrill, FlushBarriersOrPlpLoseNothing) {
  struct Case {
    CommitDiscipline discipline;
    bool plp;
  };
  for (const Case c : {Case{CommitDiscipline::kBarriered, false},
                       Case{CommitDiscipline::kUnsafe, true},
                       Case{CommitDiscipline::kBarriered, true}}) {
    for (const std::uint64_t seed : kDrillSeeds) {
      const DrillResult r = run_fault_drill(c.discipline, c.plp, seed);
      const auto where = ::testing::Message()
                         << to_string(c.discipline) << (c.plp ? ", PLP" : ", commodity")
                         << ", seed " << seed;
      EXPECT_GT(r.committed, 0u) << where;
      EXPECT_EQ(r.durability_violations, 0u) << where;
      EXPECT_EQ(r.torn, 0u) << where;
      EXPECT_EQ(r.holes, 0u) << where;
    }
  }
}

}  // namespace
}  // namespace pofi::kvs
