// The Appendix C heuristic-F configurations of DesensitizationTe: per-pair
// sensitivity bounds set by training-variance rank.
#include "te/lp_schemes.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/topology.h"
#include "net/yen.h"
#include "te/mlu.h"
#include "traffic/generators.h"
#include "traffic/stats.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

traffic::TrafficTrace bursty_trace(std::size_t n, std::size_t len) {
  return traffic::dc_tor_trace(n, len, 21);
}

TEST(HeuristicF, LinearBoundsDecreaseWithVarianceRank) {
  const PathSet ps = mesh_pathset(5);
  DesensitizationOptions opt;
  opt.shape = FShape::kLinear;
  opt.max_bound = 0.8;
  opt.min_bound = 0.3;
  DesensitizationTe scheme(ps, opt, "HeurF");
  const auto trace = bursty_trace(5, 200);
  scheme.fit(trace);

  const auto var = traffic::pair_variances(trace);
  const auto& f = scheme.pair_bounds();
  ASSERT_EQ(f.size(), ps.num_pairs());
  // Bounds must be anti-monotone in variance: higher variance, tighter bound.
  for (std::size_t a = 0; a < f.size(); ++a)
    for (std::size_t b = 0; b < f.size(); ++b)
      if (var[a] < var[b]) {
        EXPECT_GE(f[a] + 1e-12, f[b]);
      }
  // Extremes match Max and Min.
  EXPECT_NEAR(*std::max_element(f.begin(), f.end()), 0.8, 1e-12);
  EXPECT_NEAR(*std::min_element(f.begin(), f.end()), 0.3, 1e-12);
}

TEST(HeuristicF, PiecewiseBreakpointSplitsBounds) {
  const PathSet ps = mesh_pathset(5);
  DesensitizationOptions opt;
  opt.shape = FShape::kPiecewise;
  opt.max_bound = 0.8;
  opt.min_bound = 0.4;
  opt.breakpoint = 0.75;
  DesensitizationTe scheme(ps, opt, "HeurF");
  scheme.fit(bursty_trace(5, 200));
  const auto& f = scheme.pair_bounds();
  std::size_t lenient = 0, strict = 0;
  for (double b : f) {
    if (b == 0.8)
      ++lenient;
    else if (b == 0.4)
      ++strict;
    else
      FAIL() << "piecewise bound must be Max or Min, got " << b;
  }
  // 75% of pairs (by variance rank) are lenient.
  EXPECT_NEAR(static_cast<double>(lenient) / static_cast<double>(f.size()),
              0.75, 0.05);
  EXPECT_GT(strict, 0u);
}

TEST(HeuristicF, AdviseRespectsPerPairBounds) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationOptions opt;
  opt.shape = FShape::kLinear;
  opt.max_bound = 0.7;
  opt.min_bound = 0.4;
  DesensitizationTe scheme(ps, opt, "HeurF");
  const auto trace = bursty_trace(4, 150);
  scheme.fit(trace);
  std::vector<traffic::DemandMatrix> history(trace.snapshots.end() - 3,
                                             trace.snapshots.end());
  const TeConfig cfg = scheme.advise(history);
  EXPECT_TRUE(valid_config(ps, cfg));
  const auto& f = scheme.pair_bounds();
  const auto sens = path_sensitivities(ps, cfg);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    const std::size_t pr = ps.pair_of_path(pid);
    EXPECT_LE(sens[pid], f[pr] + 1e-6);
  }
}

TEST(HeuristicF, RelaxedBoundsImproveNormalCase) {
  // Appendix C Strategy 2: relaxing the stable pairs' bounds (Max up) must
  // not worsen — and typically improves — the anticipated-matrix MLU.
  const PathSet ps = mesh_pathset(5);
  const auto trace = bursty_trace(5, 250);
  std::vector<traffic::DemandMatrix> history(trace.snapshots.end() - 5,
                                             trace.snapshots.end());

  DesensitizationOptions strict;
  strict.shape = FShape::kLinear;
  strict.max_bound = 0.5;
  strict.min_bound = 0.4;
  DesensitizationTe strict_scheme(ps, strict, "HeurF");
  strict_scheme.fit(trace);

  DesensitizationOptions relaxed;
  relaxed.shape = FShape::kLinear;
  relaxed.max_bound = 0.95;
  relaxed.min_bound = 0.4;
  DesensitizationTe relaxed_scheme(ps, relaxed, "HeurF");
  relaxed_scheme.fit(trace);

  // Compare on a typical (training-tail mean) demand.
  traffic::DemandMatrix mean_dm(5);
  for (const auto& dm : history)
    for (std::size_t p = 0; p < mean_dm.size(); ++p)
      mean_dm[p] += dm[p] / static_cast<double>(history.size());
  const double strict_mlu =
      mlu(ps, mean_dm, strict_scheme.advise(history));
  const double relaxed_mlu =
      mlu(ps, mean_dm, relaxed_scheme.advise(history));
  EXPECT_LE(relaxed_mlu, strict_mlu + 1e-6);
}

TEST(HeuristicF, FitRequiredBeforeAdvise) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationOptions opt;
  opt.min_bound = 1.0 / 3.0;  // rank-dependent F is frozen by fit()
  DesensitizationTe scheme(ps, opt, "HeurF");
  std::vector<traffic::DemandMatrix> history(1, traffic::DemandMatrix(4, 1.0));
  EXPECT_THROW(scheme.advise(history), std::logic_error);
}

TEST(HeuristicF, RejectsInvertedBounds) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationOptions opt;
  opt.min_bound = 0.9;
  opt.max_bound = 0.3;
  EXPECT_THROW(DesensitizationTe(ps, opt), std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
