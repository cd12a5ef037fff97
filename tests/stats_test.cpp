#include "stats/summary.hpp"
#include "stats/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/rng.hpp"

namespace pofi::stats {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStat, CiShrinksWithSamples) {
  RunningStat small, large;
  sim::Rng rng(5);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-5.0);  // clamps to bin 0
  h.add(50.0);  // clamps to bin 9
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[9], 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"a-much-longer-name", "23456"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
  // Every line has the same structure: 3 lines of content + trailing \n.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  const std::string out = t.render();
  EXPECT_NE(out.find("only-one"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::fmt(std::int64_t{-7}), "-7");
}

}  // namespace
}  // namespace pofi::stats
