#include "workload/checksum.hpp"
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace pofi::workload {
namespace {

// ------------------------------------------------------------- checksums

TEST(Crc32c, KnownVector) {
  // Canonical CRC32C check value for "123456789".
  const char* s = "123456789";
  std::vector<std::uint8_t> data(s, s + std::strlen(s));
  EXPECT_EQ(crc32c(data), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) {
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, SensitiveToEveryByte) {
  std::vector<std::uint8_t> data(64, 0);
  const std::uint32_t base = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto mutated = data;
    mutated[i] ^= 1;
    EXPECT_NE(crc32c(mutated), base) << "byte " << i;
  }
}

TEST(Crc32c, SeedChaining) {
  std::vector<std::uint8_t> a{1, 2, 3, 4};
  const std::uint32_t direct = crc32c(a);
  const std::uint32_t chained =
      crc32c(std::span<const std::uint8_t>(a).subspan(2), crc32c(std::span<const std::uint8_t>(a).first(2)));
  EXPECT_EQ(chained, direct);
}

TEST(Fnv1a64, KnownVectors) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ULL);
  const char* s = "a";
  std::vector<std::uint8_t> data(s, s + 1);
  EXPECT_EQ(fnv1a64(data), 0xaf63dc4c8601ec8cULL);
}

// ------------------------------------------------------------- generator

WorkloadConfig base_config() {
  WorkloadConfig wl;
  wl.wss_pages = 4096;
  wl.min_pages = 1;
  wl.max_pages = 16;
  return wl;
}

TEST(WorkloadGenerator, SizesWithinRange) {
  WorkloadGenerator gen(base_config(), sim::Rng(1));
  for (int i = 0; i < 2000; ++i) {
    const auto spec = gen.next();
    EXPECT_GE(spec.pages, 1u);
    EXPECT_LE(spec.pages, 16u);
  }
  EXPECT_EQ(gen.generated(), 2000u);
}

TEST(WorkloadGenerator, FixedSizeWhenMinEqualsMax) {
  auto cfg = base_config();
  cfg.min_pages = cfg.max_pages = 8;
  WorkloadGenerator gen(cfg, sim::Rng(2));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gen.next().pages, 8u);
}

TEST(WorkloadGenerator, AddressesStayInsideWss) {
  auto cfg = base_config();
  cfg.base_lpn = 1000;
  WorkloadGenerator gen(cfg, sim::Rng(3));
  for (int i = 0; i < 5000; ++i) {
    const auto spec = gen.next();
    EXPECT_GE(spec.lpn, 1000u);
    EXPECT_LE(spec.lpn + spec.pages, 1000u + cfg.wss_pages);
  }
}

TEST(WorkloadGenerator, WriteFractionRespected) {
  auto cfg = base_config();
  cfg.write_fraction = 0.3;
  WorkloadGenerator gen(cfg, sim::Rng(4));
  int writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (gen.next().op == OpType::kWrite) ++writes;
  }
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.02);
}

TEST(WorkloadGenerator, FullyReadAndFullyWrite) {
  auto cfg = base_config();
  cfg.write_fraction = 0.0;
  WorkloadGenerator r(cfg, sim::Rng(5));
  for (int i = 0; i < 200; ++i) EXPECT_EQ(r.next().op, OpType::kRead);
  cfg.write_fraction = 1.0;
  WorkloadGenerator w(cfg, sim::Rng(6));
  for (int i = 0; i < 200; ++i) EXPECT_EQ(w.next().op, OpType::kWrite);
}

TEST(WorkloadGenerator, SequentialAdvancesAndWraps) {
  auto cfg = base_config();
  cfg.pattern = AccessPattern::kSequential;
  cfg.wss_pages = 64;
  cfg.min_pages = cfg.max_pages = 10;
  WorkloadGenerator gen(cfg, sim::Rng(7));
  ftl::Lpn expect = 0;
  for (int i = 0; i < 6; ++i) {
    const auto spec = gen.next();
    EXPECT_EQ(spec.lpn, expect);
    expect += 10;
  }
  // 7th request would overflow the 64-page WSS: wraps to the base.
  EXPECT_EQ(gen.next().lpn, 0u);
}

TEST(WorkloadGenerator, SequencePairsShareAddress) {
  for (const auto mode : {SequenceMode::kRAR, SequenceMode::kRAW, SequenceMode::kWAR,
                          SequenceMode::kWAW}) {
    auto cfg = base_config();
    cfg.sequence = mode;
    WorkloadGenerator gen(cfg, sim::Rng(8));
    for (int pair = 0; pair < 100; ++pair) {
      const auto first = gen.next();
      const auto second = gen.next();
      EXPECT_EQ(first.lpn, second.lpn) << to_string(mode);
      EXPECT_EQ(first.pages, second.pages) << to_string(mode);
    }
  }
}

TEST(WorkloadGenerator, SequenceOpsMatchMode) {
  struct Case {
    SequenceMode mode;
    OpType first;
    OpType second;
  };
  // "X after Y": Y comes first. RAW = read-after-write = write, then read.
  const Case cases[] = {
      {SequenceMode::kRAR, OpType::kRead, OpType::kRead},
      {SequenceMode::kRAW, OpType::kWrite, OpType::kRead},
      {SequenceMode::kWAR, OpType::kRead, OpType::kWrite},
      {SequenceMode::kWAW, OpType::kWrite, OpType::kWrite},
  };
  for (const auto& c : cases) {
    auto cfg = base_config();
    cfg.sequence = c.mode;
    WorkloadGenerator gen(cfg, sim::Rng(9));
    EXPECT_EQ(gen.next().op, c.first) << to_string(c.mode);
    EXPECT_EQ(gen.next().op, c.second) << to_string(c.mode);
  }
}

TEST(WorkloadGenerator, OpenLoopGapFromTargetIops) {
  auto cfg = base_config();
  EXPECT_FALSE(WorkloadGenerator(cfg, sim::Rng(10)).mean_interarrival_sec().has_value());
  cfg.target_iops = 250.0;
  const auto gap = WorkloadGenerator(cfg, sim::Rng(10)).mean_interarrival_sec();
  ASSERT_TRUE(gap.has_value());
  EXPECT_DOUBLE_EQ(*gap, 0.004);
}

TEST(WorkloadGenerator, DeterministicForSeed) {
  WorkloadGenerator a(base_config(), sim::Rng(42));
  WorkloadGenerator b(base_config(), sim::Rng(42));
  for (int i = 0; i < 500; ++i) {
    const auto sa = a.next();
    const auto sb = b.next();
    EXPECT_EQ(sa.lpn, sb.lpn);
    EXPECT_EQ(sa.pages, sb.pages);
    EXPECT_EQ(sa.op, sb.op);
  }
}

}  // namespace
}  // namespace pofi::workload
