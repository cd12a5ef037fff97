// Trace replay: a non-empty WorkloadConfig::replay (the spec's
// "workload.replay" array) is cycled verbatim in place of the generator.
#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace pofi::workload {
namespace {

TEST(TraceReplay, GeneratorReplaysVerbatimAndLoops) {
  WorkloadConfig cfg;
  cfg.replay = {{OpType::kWrite, 7, 2}, {OpType::kRead, 9, 1}};
  WorkloadGenerator gen(cfg, sim::Rng(1));
  for (int loop = 0; loop < 3; ++loop) {
    const auto a = gen.next();
    EXPECT_EQ(a.op, OpType::kWrite);
    EXPECT_EQ(a.lpn, 7u);
    EXPECT_EQ(a.pages, 2u);
    const auto b = gen.next();
    EXPECT_EQ(b.op, OpType::kRead);
    EXPECT_EQ(b.lpn, 9u);
  }
  EXPECT_EQ(gen.generated(), 6u);
}

TEST(TraceReplay, ReplayIgnoresSyntheticKnobs) {
  WorkloadConfig cfg;
  cfg.write_fraction = 0.0;  // would force reads if synthetic
  cfg.replay = {{OpType::kWrite, 5, 1}};
  WorkloadGenerator gen(cfg, sim::Rng(2));
  EXPECT_EQ(gen.next().op, OpType::kWrite);
}

}  // namespace
}  // namespace pofi::workload
