// FTL property tests: read-your-writes against a reference map under random
// operation sequences, with and without interleaved power cycles.
#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>

#include "ftl/ftl.hpp"
#include "nand/chip_array.hpp"

namespace pofi::ftl {
namespace {

using sim::Duration;
using sim::Simulator;

struct Harness {
  explicit Harness(std::uint64_t seed, Ftl::Config cfg = fast_config())
      : sim(seed), chip(sim, nand::ChipArray::Config{2, chip_config()}), ftl(sim, chip, cfg) {
    chip.on_power_good();
    ftl.on_power_good();
  }

  static nand::NandChip::Config chip_config() {
    nand::NandChip::Config cfg;
    cfg.geometry.page_size_bytes = 4096;
    cfg.geometry.pages_per_block = 32;
    cfg.geometry.blocks_per_plane = 8;  // small device: the hot set forces GC
    cfg.geometry.planes = 2;
    return cfg;
  }
  static Ftl::Config fast_config() {
    Ftl::Config cfg;
    cfg.journal_interval = Duration::ms(10);
    cfg.gc_low_watermark = 8;
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

  bool write_sync(Lpn lpn, std::uint64_t content) {
    std::optional<bool> ok;
    ftl.write(lpn, content, [&](bool r) { ok = r; });
    run_until([&] { return ok.has_value(); });
    return ok.value_or(false);
  }

  std::optional<std::uint64_t> read_sync(Lpn lpn) {
    std::optional<nand::OpResult> out;
    ftl.read(lpn, [&](const nand::OpResult& r) { out = r; });
    run_until([&] { return out.has_value(); });
    if (!out.has_value() || !out->ok()) return std::nullopt;
    return out->content;
  }

  Simulator sim;
  nand::ChipArray chip;
  Ftl ftl;
};

// ---------------------------------------------------------------------------
// Without power faults, the FTL is a plain map: random writes, overwrites,
// trims and GC churn must never lose or corrupt anything.
// ---------------------------------------------------------------------------
class FtlReadYourWrites : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlReadYourWrites, MatchesReferenceMap) {
  Harness h(GetParam());
  sim::Rng rng(GetParam() * 31);
  std::unordered_map<Lpn, std::uint64_t> reference;
  std::uint64_t next_content = 1;

  const int ops = 1200;
  for (int op = 0; op < ops; ++op) {
    const Lpn lpn = rng.below(128);  // hot set forces overwrites and GC
    const auto roll = rng.below(100);
    if (roll < 70) {
      const std::uint64_t content = next_content++;
      ASSERT_TRUE(h.write_sync(lpn, content));
      reference[lpn] = content;
    } else if (roll < 80) {
      h.ftl.trim(lpn);
      reference.erase(lpn);
    } else {
      const auto got = h.read_sync(lpn);
      const auto it = reference.find(lpn);
      if (it == reference.end()) {
        EXPECT_EQ(got, std::optional<std::uint64_t>(nand::kErasedContent)) << "lpn " << lpn;
      } else {
        EXPECT_EQ(got, std::optional<std::uint64_t>(it->second)) << "lpn " << lpn;
      }
    }
  }
  // Full audit at the end, after GC has churned blocks.
  h.sim.run_for(Duration::sec(1));
  for (const auto& [lpn, content] : reference) {
    EXPECT_EQ(h.read_sync(lpn), std::optional<std::uint64_t>(content)) << "final lpn " << lpn;
  }
  EXPECT_GT(h.ftl.stats().gc_erases, 0u) << "workload should have forced GC";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlReadYourWrites, ::testing::Values(41, 42, 43));

// ---------------------------------------------------------------------------
// With power cycles: after each crash+recovery, every address must read as
// either its last journaled value or a legitimately older committed value —
// never a value that was *never* written there, and never a newer value
// resurrected from a rolled-back future.
// ---------------------------------------------------------------------------
class FtlCrashConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlCrashConsistency, ReadsReturnSomeCommittedVersion) {
  Harness h(GetParam());
  sim::Rng rng(GetParam() * 97);
  // Per-lpn history of all values ever written (any of them is acceptable
  // after a crash; which one depends on journal timing).
  std::unordered_map<Lpn, std::vector<std::uint64_t>> history;
  std::uint64_t next_content = 1;

  for (int cycle = 0; cycle < 6; ++cycle) {
    const int writes = 60 + static_cast<int>(rng.below(60));
    for (int w = 0; w < writes; ++w) {
      const Lpn lpn = rng.below(64);
      const std::uint64_t content = next_content++;
      if (h.write_sync(lpn, content)) history[lpn].push_back(content);
    }
    // Random extra run time so the journal catches an arbitrary prefix.
    h.sim.run_for(Duration::ms(rng.range(0, 40)));
    h.chip.on_power_lost();
    h.ftl.on_power_lost();
    h.sim.run_for(Duration::ms(5));
    h.chip.on_power_good();
    h.ftl.on_power_good();

    for (const auto& [lpn, versions] : history) {
      const auto got = h.read_sync(lpn);
      ASSERT_TRUE(got.has_value()) << "uncorrectable read of stable data, lpn " << lpn;
      if (*got == nand::kErasedContent) continue;  // everything reverted: fine
      bool known = false;
      for (const auto v : versions) {
        if (v == *got) {
          known = true;
          break;
        }
      }
      EXPECT_TRUE(known) << "lpn " << lpn << " returned a never-written value " << *got;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlCrashConsistency, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace pofi::ftl
