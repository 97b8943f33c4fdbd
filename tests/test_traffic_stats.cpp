#include "traffic/stats.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "traffic/generators.h"

namespace figret::traffic {
namespace {

TrafficTrace constant_trace(std::size_t n, std::size_t len, double value) {
  TrafficTrace t;
  t.num_nodes = n;
  for (std::size_t i = 0; i < len; ++i) t.snapshots.emplace_back(n, value);
  return t;
}

TEST(PairVariances, ConstantTraceHasZeroVariance) {
  const auto var = pair_variances(constant_trace(4, 20, 3.0));
  for (double v : var) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(PairVariances, DetectsTheVaryingPair) {
  TrafficTrace t = constant_trace(3, 10, 1.0);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.snapshots[i].set(0, 1, i % 2 == 0 ? 0.0 : 2.0);
  const auto var = pair_variances(t);
  const std::size_t idx = pair_index(3, 0, 1);
  EXPECT_DOUBLE_EQ(var[idx], 1.0);  // values alternate 0/2 -> variance 1
  for (std::size_t p = 0; p < var.size(); ++p) {
    if (p != idx) {
      EXPECT_DOUBLE_EQ(var[p], 0.0);
    }
  }
}

TEST(PairVariances, NormalizedMaxIsOne) {
  const TrafficTrace t = dc_tor_trace(6, 100, 3);
  const auto var = normalized_pair_variances(t);
  EXPECT_DOUBLE_EQ(*std::max_element(var.begin(), var.end()), 1.0);
  for (double v : var) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(PairVariances, AllZeroTraceNormalizesToZero) {
  const auto var = normalized_pair_variances(constant_trace(3, 5, 0.0));
  for (double v : var) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(WindowCosine, ConstantTraceIsPerfectlySimilar) {
  const auto cos = window_max_cosine(constant_trace(4, 30, 2.0), 12);
  ASSERT_EQ(cos.size(), 30u - 12u);
  for (double c : cos) EXPECT_NEAR(c, 1.0, 1e-12);
}

TEST(WindowCosine, DetectsSuddenShift) {
  // Trace flips to an orthogonal pattern at t=20: that snapshot's best match
  // in its window must be poor.
  TrafficTrace t = constant_trace(3, 30, 0.0);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i < 20)
      t.snapshots[i].set(0, 1, 1.0);
    else
      t.snapshots[i].set(1, 2, 1.0);
  }
  const auto cos = window_max_cosine(t, 12);
  EXPECT_NEAR(cos[19 - 12], 1.0, 1e-12);  // before the shift
  EXPECT_NEAR(cos[20 - 12], 0.0, 1e-12);  // at the shift
  EXPECT_NEAR(cos[25 - 12], 1.0, 1e-12);  // window re-adapts
}

TEST(WindowCosine, ShortTraceYieldsEmpty) {
  EXPECT_TRUE(window_max_cosine(constant_trace(3, 5, 1.0), 12).empty());
  EXPECT_TRUE(window_max_cosine(constant_trace(3, 5, 1.0), 0).empty());
}

TEST(WindowCosine, LargerWindowNeverLowersSimilarity) {
  // Fig 18's premise: enlarging H can only add candidate matches, so the
  // max-similarity statistic is monotone in H at each aligned snapshot.
  const TrafficTrace t = dc_tor_trace(6, 120, 7);
  const auto h12 = window_max_cosine(t, 12);
  const auto h24 = window_max_cosine(t, 24);
  // Align: h12 starts at t=12, h24 at t=24.
  for (std::size_t i = 0; i < h24.size(); ++i)
    EXPECT_GE(h24[i] + 1e-12, h12[i + 12]);
}

}  // namespace
}  // namespace figret::traffic
