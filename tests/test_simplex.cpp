#include "support/dense_simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace figret::lp {
namespace {

TEST(Simplex, SimpleTwoVariableMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig).
  // Optimum: x = 2, y = 6, objective 36. Encoded as minimization of -obj.
  LpProblem p;
  const auto x = p.add_variable(-3.0);
  const auto y = p.add_variable(-5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -36.0, 1e-8);
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
  EXPECT_NEAR(r.x[y], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 10, x <= 4  =>  x = 4, y = 6, obj 16.
  LpProblem p;
  const auto x = p.add_variable(1.0, 4.0);
  const auto y = p.add_variable(2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 16.0, 1e-8);
  EXPECT_NEAR(r.x[x], 4.0, 1e-8);
  EXPECT_NEAR(r.x[y], 6.0, 1e-8);
}

TEST(Simplex, GreaterEqualConstraint) {
  // min 2x + 3y s.t. x + y >= 4, x - y >= -2 (both reachable).
  // Optimum at (4, 0): obj 8? Check (1,3): obj 11; (3,1): 9; (4,0): 8 with
  // x - y = 4 >= -2 feasible. So x=4,y=0, obj 8.
  LpProblem p;
  const auto x = p.add_variable(2.0);
  const auto y = p.add_variable(3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEq, 4.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kGreaterEq, -2.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 8.0, 1e-8);
  EXPECT_NEAR(r.x[x], 4.0, 1e-8);
}

TEST(Simplex, VariableUpperBoundBinds) {
  // min -x s.t. x <= 3 (as a bound, no rows).
  LpProblem p;
  const auto x = p.add_variable(-1.0, 3.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 100.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.x[x], 3.0, 1e-8);
  EXPECT_NEAR(r.objective, -3.0, 1e-8);
}

TEST(Simplex, BoundedVariablesCombineWithRows) {
  // max x + y, x <= 0.6, y <= 0.7 (bounds), x + y <= 1 (row).
  LpProblem p;
  const auto x = p.add_variable(-1.0, 0.6);
  const auto y = p.add_variable(-1.0, 0.7);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 1.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -1.0, 1e-8);
  EXPECT_LE(r.x[x], 0.6 + 1e-9);
  EXPECT_LE(r.x[y], 0.7 + 1e-9);
  EXPECT_NEAR(r.x[x] + r.x[y], 1.0, 1e-8);
}

TEST(Simplex, InfeasibleDetected) {
  // x >= 5 and x <= 2 simultaneously.
  LpProblem p;
  const auto x = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEq, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 2.0);
  const LpResult r = solve(p);
  EXPECT_EQ(r.status, Status::kInfeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  LpProblem p;
  const auto x = p.add_variable(0.0);
  const auto y = p.add_variable(0.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 2.0);
  const LpResult r = solve(p);
  EXPECT_EQ(r.status, Status::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x with x free above.
  LpProblem p;
  const auto x = p.add_variable(-1.0);
  const auto y = p.add_variable(1.0);
  p.add_constraint({{y, 1.0}}, Relation::kLessEq, 1.0);
  (void)x;
  const LpResult r = solve(p);
  EXPECT_EQ(r.status, Status::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LpProblem p;
  const auto x = p.add_variable(1.0);
  p.add_constraint({{x, -1.0}}, Relation::kLessEq, -3.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.x[x], 3.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the optimum (degeneracy).
  LpProblem p;
  const auto x = p.add_variable(-1.0);
  const auto y = p.add_variable(-1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 1.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kLessEq, 2.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 1.0);
  p.add_constraint({{y, 1.0}}, Relation::kLessEq, 1.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -1.0, 1e-8);
}

TEST(Simplex, RedundantEqualityRowHandled) {
  // Second equality is a copy of the first: phase 1 leaves an artificial
  // basic at zero in a redundant row.
  LpProblem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEq, 6.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 3.0, 1e-8);  // x = 3, y = 0
}

TEST(Simplex, DuplicateTermsAccumulate) {
  // x + x <= 4 must behave as 2x <= 4.
  LpProblem p;
  const auto x = p.add_variable(-1.0);
  p.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kLessEq, 4.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.x[x], 2.0, 1e-8);
}

TEST(Simplex, ZeroRhsEqualityFeasible) {
  LpProblem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(-1.0, 5.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEq, 0.0);
  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  // x = y, min x - y = 0 with y at anything; objective must be 0.
  EXPECT_NEAR(r.objective, 0.0, 1e-8);
}

TEST(Simplex, IterationLimitReported) {
  // A healthy LP with an absurdly small pivot budget must report the limit
  // rather than loop or return a bogus optimum.
  LpProblem p;
  const auto x = p.add_variable(-1.0);
  const auto y = p.add_variable(-2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::kLessEq, 5.0);
  SolveOptions opt;
  opt.max_iterations = 1;
  const LpResult r = solve(p, opt);
  EXPECT_EQ(r.status, Status::kIterationLimit);
  EXPECT_TRUE(r.x.empty());
}

TEST(Simplex, BlandFallbackStillSolves) {
  // Force Bland's rule from the first pivot; correctness must not change.
  LpProblem p;
  const auto x = p.add_variable(-3.0);
  const auto y = p.add_variable(-5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);
  SolveOptions opt;
  opt.bland_after = 0;
  const LpResult r = solve(p, opt);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, -36.0, 1e-8);
}

TEST(Simplex, MediumScaleTeShapedLp) {
  // A TE-shaped instance (equality blocks + coupled capacity rows) with a
  // few hundred variables solves to a consistent optimum: objective equals
  // the recomputed MLU of the returned split ratios.
  constexpr std::size_t kPairs = 60;
  constexpr std::size_t kPathsPerPair = 3;
  constexpr std::size_t kEdges = 40;
  util::Rng rng(77);

  LpProblem p;
  std::vector<std::size_t> vars;
  for (std::size_t i = 0; i < kPairs * kPathsPerPair; ++i)
    vars.push_back(p.add_variable(0.0, 1.0));
  const std::size_t u = p.add_variable(1.0);

  for (std::size_t pr = 0; pr < kPairs; ++pr) {
    std::vector<Term> row;
    for (std::size_t k = 0; k < kPathsPerPair; ++k)
      row.push_back({vars[pr * kPathsPerPair + k], 1.0});
    p.add_constraint(std::move(row), Relation::kEq, 1.0);
  }
  // Random sparse edge rows: each path crosses ~2 edges with its demand.
  std::vector<std::vector<std::pair<std::size_t, double>>> edge_terms(kEdges);
  std::vector<double> demand(kPairs);
  for (auto& d : demand) d = rng.uniform(0.1, 1.0);
  for (std::size_t pr = 0; pr < kPairs; ++pr)
    for (std::size_t k = 0; k < kPathsPerPair; ++k) {
      for (int hop = 0; hop < 2; ++hop) {
        const std::size_t e = rng.uniform_index(kEdges);
        edge_terms[e].push_back({pr * kPathsPerPair + k, demand[pr]});
      }
    }
  const double cap = 2.0;
  for (std::size_t e = 0; e < kEdges; ++e) {
    if (edge_terms[e].empty()) continue;
    std::vector<Term> row;
    for (const auto& [v, c] : edge_terms[e]) row.push_back({vars[v], c});
    row.push_back({u, -cap});
    p.add_constraint(std::move(row), Relation::kLessEq, 0.0);
  }

  const LpResult r = solve(p);
  ASSERT_TRUE(r.optimal());
  // Recompute the max edge utilization of the returned point.
  double mlu = 0.0;
  for (std::size_t e = 0; e < kEdges; ++e) {
    double load = 0.0;
    for (const auto& [v, c] : edge_terms[e]) load += c * r.x[vars[v]];
    mlu = std::max(mlu, load / cap);
  }
  EXPECT_NEAR(r.objective, mlu, 1e-6);
  for (std::size_t pr = 0; pr < kPairs; ++pr) {
    double sum = 0.0;
    for (std::size_t k = 0; k < kPathsPerPair; ++k)
      sum += r.x[vars[pr * kPathsPerPair + k]];
    EXPECT_NEAR(sum, 1.0, 1e-7);
  }
}

TEST(Simplex, RejectsBadInputs) {
  LpProblem p;
  EXPECT_THROW(p.add_variable(0.0, -1.0), std::invalid_argument);
  (void)p.add_variable(0.0);
  EXPECT_THROW(p.add_constraint({{5, 1.0}}, Relation::kEq, 0.0),
               std::out_of_range);
  EXPECT_THROW(p.set_upper_bound(0, -2.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property sweep: random 3-variable LPs cross-checked against brute-force
// vertex enumeration.
// ---------------------------------------------------------------------------

struct RandomLpCase {
  std::uint64_t seed;
};

class SimplexRandomLp : public ::testing::TestWithParam<RandomLpCase> {};

// Enumerates all basic feasible points of {x in [0, ub]^3 : Ax <= b} by
// intersecting triples of active constraints (rows or box faces) and keeps
// the best feasible objective. Slow but obviously correct for n = 3.
double brute_force_min(const std::vector<double>& c,
                       const std::vector<std::vector<double>>& a,
                       const std::vector<double>& b,
                       const std::vector<double>& ub, bool* feasible) {
  // Build the full constraint list as rows g.x <= h (box faces included).
  std::vector<std::vector<double>> g = a;
  std::vector<double> h = b;
  for (int i = 0; i < 3; ++i) {
    std::vector<double> lo(3, 0.0), hi(3, 0.0);
    lo[i] = -1.0;  // -x_i <= 0
    hi[i] = 1.0;   //  x_i <= ub_i
    g.push_back(lo);
    h.push_back(0.0);
    g.push_back(hi);
    h.push_back(ub[i]);
  }
  const std::size_t m = g.size();
  double best = 1e300;
  *feasible = false;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j)
      for (std::size_t k = j + 1; k < m; ++k) {
        // Solve the 3x3 system by Cramer's rule.
        const auto& r0 = g[i];
        const auto& r1 = g[j];
        const auto& r2 = g[k];
        auto det3 = [](const std::vector<double>& p, const std::vector<double>& q,
                       const std::vector<double>& r) {
          return p[0] * (q[1] * r[2] - q[2] * r[1]) -
                 p[1] * (q[0] * r[2] - q[2] * r[0]) +
                 p[2] * (q[0] * r[1] - q[1] * r[0]);
        };
        const double det = det3(r0, r1, r2);
        if (std::abs(det) < 1e-9) continue;
        std::vector<double> x(3, 0.0);
        for (int col = 0; col < 3; ++col) {
          std::vector<double> c0 = r0, c1 = r1, c2 = r2;
          c0[col] = h[i];
          c1[col] = h[j];
          c2[col] = h[k];
          x[col] = det3(c0, c1, c2) / det;
        }
        bool ok = true;
        for (std::size_t q = 0; q < m && ok; ++q) {
          double lhs = 0.0;
          for (int col = 0; col < 3; ++col) lhs += g[q][col] * x[col];
          ok = lhs <= h[q] + 1e-7;
        }
        if (!ok) continue;
        *feasible = true;
        double obj = 0.0;
        for (int col = 0; col < 3; ++col) obj += c[col] * x[col];
        best = std::min(best, obj);
      }
  return best;
}

TEST_P(SimplexRandomLp, MatchesBruteForce) {
  util::Rng rng(GetParam().seed);
  const std::vector<double> c{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                              rng.uniform(-2.0, 2.0)};
  const std::vector<double> ub{rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0),
                               rng.uniform(0.5, 3.0)};
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  const int rows = 2 + static_cast<int>(rng.uniform_index(4));
  for (int i = 0; i < rows; ++i) {
    a.push_back({rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
                 rng.uniform(-1.0, 2.0)});
    b.push_back(rng.uniform(0.5, 4.0));  // origin always feasible
  }

  LpProblem p;
  for (int v = 0; v < 3; ++v) p.add_variable(c[v], ub[v]);
  for (int i = 0; i < rows; ++i)
    p.add_constraint({{0, a[i][0]}, {1, a[i][1]}, {2, a[i][2]}},
                     Relation::kLessEq, b[i]);

  bool feasible = false;
  const double best = brute_force_min(c, a, b, ub, &feasible);
  const LpResult r = solve(p);
  ASSERT_TRUE(feasible);  // origin is feasible by construction
  ASSERT_TRUE(r.optimal()) << "seed " << GetParam().seed;
  EXPECT_NEAR(r.objective, best, 1e-6) << "seed " << GetParam().seed;
  // The reported point must itself be feasible.
  for (int v = 0; v < 3; ++v) {
    EXPECT_GE(r.x[v], -1e-9);
    EXPECT_LE(r.x[v], ub[v] + 1e-9);
  }
  for (int i = 0; i < rows; ++i) {
    double lhs = 0.0;
    for (int v = 0; v < 3; ++v) lhs += a[i][v] * r.x[v];
    EXPECT_LE(lhs, b[i] + 1e-7);
  }
}

std::vector<RandomLpCase> random_cases() {
  std::vector<RandomLpCase> cases;
  for (std::uint64_t s = 1; s <= 40; ++s) cases.push_back({s});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, SimplexRandomLp,
                         ::testing::ValuesIn(random_cases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace figret::lp
