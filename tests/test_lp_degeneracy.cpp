// Regression tests for classic cycling/degenerate LPs: Beale's example and a
// Kuhn-style degenerate instance must terminate at the optimum in the
// revised engine and in the dense oracle — with Bland's rule forced from the
// first pivot and with the default pricing-then-Bland policy — plus
// warm-start coverage for the revised engine (bound tightening, RHS-only
// dual resolves, fallback reasons, the cold rerun of a collapsed warm
// attempt).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/certificates.h"
#include "lp/revised_simplex.h"
#include "support/dense_simplex.h"

namespace figret::lp {
namespace {

// Beale (1955): min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4. Dantzig pricing with
// naive tie-breaking cycles forever on this instance; the optimum is -1/20
// at x = (1/25, 0, 1, 0).
LpProblem beale() {
  LpProblem p;
  const auto x1 = p.add_variable(-0.75);
  const auto x2 = p.add_variable(150.0);
  const auto x3 = p.add_variable(-0.02);
  const auto x4 = p.add_variable(6.0);
  p.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x3, 1.0}}, Relation::kLessEq, 1.0);
  return p;
}

// Kuhn-style degenerate LP. The third row bounds the negated objective
// directly (obj = -(2x1 + 3x2 - x3 - 12x4) >= -2), so the optimum is -2,
// attained at x = (2, 0, 2, 0) where the origin vertex is fully degenerate.
LpProblem kuhn() {
  LpProblem p;
  const auto x1 = p.add_variable(-2.0);
  const auto x2 = p.add_variable(-3.0);
  const auto x3 = p.add_variable(1.0);
  const auto x4 = p.add_variable(12.0);
  p.add_constraint({{x1, -2.0}, {x2, -9.0}, {x3, 1.0}, {x4, 9.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x1, 1.0 / 3.0}, {x2, 1.0}, {x3, -1.0 / 3.0}, {x4, -2.0}},
                   Relation::kLessEq, 0.0);
  p.add_constraint({{x1, 2.0}, {x2, 3.0}, {x3, -1.0}, {x4, -12.0}},
                   Relation::kLessEq, 2.0);
  return p;
}

void expect_optimal_both(const LpProblem& p, double expected,
                         std::size_t bland_after, const char* label) {
  SolveOptions simplex;
  simplex.bland_after = bland_after;
  // Tight enough that a cycle would trip the limit instead of "terminating"
  // by exhausting the default budget.
  simplex.max_iterations = 5000;
  SolverOptions opt;
  opt.simplex = simplex;
  auto check = [&](const char* engine, const LpResult& r) {
    ASSERT_EQ(r.status, Status::kOptimal)
        << label << " " << engine << " bland_after " << bland_after;
    EXPECT_NEAR(r.objective, expected, 1e-8) << label << " " << engine;
    EXPECT_TRUE(check_certificate(p, r).ok(1e-6)) << label << " " << engine;
  };
  check("dense", solve(p, simplex));
  check("revised", solve_with(p, opt));
}

TEST(LpDegeneracy, BealeTerminatesUnderBland) {
  expect_optimal_both(beale(), -0.05, /*bland_after=*/0, "Beale/Bland");
}

TEST(LpDegeneracy, BealeTerminatesUnderDefaultPolicy) {
  // Default pricing first (Dantzig in the dense oracle, devex in the
  // revised engine); if it cycles the automatic Bland switch must rescue it
  // well within the 5000-pivot budget.
  expect_optimal_both(beale(), -0.05, /*bland_after=*/100, "Beale/Default");
}

TEST(LpDegeneracy, KuhnTerminatesUnderBland) {
  expect_optimal_both(kuhn(), -2.0, /*bland_after=*/0, "Kuhn/Bland");
}

TEST(LpDegeneracy, KuhnTerminatesUnderDefaultPolicy) {
  expect_optimal_both(kuhn(), -2.0, /*bland_after=*/100, "Kuhn/Default");
}

TEST(LpDegeneracy, WarmStartAfterBoundTighteningNonBinding) {
  // Tightening a bound that stays above the optimal value must keep the
  // captured basis feasible: the warm solve re-primes and needs no pivots.
  LpProblem p;
  const auto x = p.add_variable(-3.0, 10.0);
  const auto y = p.add_variable(-5.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);

  WarmStart warm;
  SolverOptions opt;
  SolveStats stats;
  const LpResult first = solve_with(p, opt, &warm, &stats);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, -36.0, 1e-8);  // x = 2, y = 6

  p.set_upper_bound(x, 8.0);  // optimum has x = 2: basis stays feasible
  p.set_upper_bound(y, 7.0);  // and y = 6 < 7
  const LpResult second = solve_with(p, opt, &warm, &stats);
  ASSERT_TRUE(second.optimal());
  EXPECT_NEAR(second.objective, -36.0, 1e-8);
  EXPECT_TRUE(stats.warm_start_used);
  EXPECT_EQ(stats.pivots, 0u);
  EXPECT_TRUE(check_certificate(p, second).ok(1e-6));
}

TEST(LpDegeneracy, WarmStartAfterBoundTighteningBinding) {
  // Tightening below the incumbent value invalidates the basis: the solve
  // must still return the new optimum (re-priming or falling back cold).
  LpProblem p;
  const auto x = p.add_variable(-3.0, 10.0);
  const auto y = p.add_variable(-5.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);

  WarmStart warm;
  SolverOptions opt;
  const LpResult first = solve_with(p, opt, &warm);
  ASSERT_TRUE(first.optimal());

  p.set_upper_bound(y, 4.0);  // previous optimum had y = 6: now infeasible
  const LpResult second = solve_with(p, opt, &warm);
  ASSERT_TRUE(second.optimal());
  // With y <= 4: x <= 4 and 3x + 2y <= 18 give x = 10/3, y = 4, obj -30.
  EXPECT_NEAR(second.objective, -30.0, 1e-8);
  EXPECT_TRUE(check_certificate(p, second).ok(1e-6));
  // Fresh dense solve agrees — the oracle for the warm path.
  const LpResult oracle = solve(p);
  ASSERT_TRUE(oracle.optimal());
  EXPECT_NEAR(second.objective, oracle.objective, 1e-8);
}

TEST(LpDegeneracy, RhsOnlyTighteningUsesDualNotCold) {
  // The headline fix of this change: an RHS-only tightening that makes the
  // previous optimal basis primal-infeasible must be re-optimized by the
  // dual simplex from the warm basis — not discarded for a cold two-phase
  // restart.
  LpProblem p;
  const auto x = p.add_variable(-3.0, 10.0);
  const auto y = p.add_variable(-5.0, 10.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEq, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEq, 18.0);

  WarmStart warm;
  SolverOptions opt;
  ASSERT_TRUE(solve_with(p, opt, &warm).optimal());  // x = 2, y = 6

  // Tighten the joint capacity below the incumbent activity (3*2 + 2*6 = 18
  // -> cap 10). Re-pricing the stored basis against the new RHS drives its
  // x-component negative: primal infeasible, still dual feasible.
  p.set_rhs(2, 10.0);
  SolveStats stats;
  const LpResult second = solve_with(p, opt, &warm, &stats);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(stats.warm_start_used);
  EXPECT_TRUE(stats.dual_simplex_used);
  EXPECT_EQ(stats.fallback, WarmFallback::kNone)
      << "fell back: " << to_string(stats.fallback);
  EXPECT_EQ(warm.misses(), 0u);
  const LpResult oracle = solve(p);
  ASSERT_TRUE(oracle.optimal());
  EXPECT_NEAR(second.objective, oracle.objective, 1e-8);
  EXPECT_TRUE(check_certificate(p, second).ok(1e-6));
}

TEST(LpDegeneracy, BetaClampTracksFeasibilityTolerance) {
  // The clamp that snaps tiny negative basic values to zero is derived from
  // the feasibility tolerance, not a hard-coded -1e-11: four decades below
  // the tolerance, floored at 1e-13.
  static_assert(beta_clamp(1e-7) == 1e-11);
  static_assert(beta_clamp(1e-4) == 1e-8);
  static_assert(beta_clamp(1e-10) == 1e-13);  // floor engages
  static_assert(beta_clamp(0.0) == 1e-13);

  // A near-degenerate instance must reach the same optimum under a tight and
  // a loose feasibility tolerance in the revised engine and the dense
  // oracle: the clamp scales with the tolerance rather than fighting it.
  for (const double feas : {1e-9, 1e-7, 1e-5}) {
    SolverOptions opt;
    opt.simplex.feasibility_tolerance = feas;
    opt.simplex.max_iterations = 5000;
    opt.simplex.bland_after = 0;  // Beale cycles under pure Dantzig
    auto check = [&](const char* engine, const LpResult& r) {
      ASSERT_EQ(r.status, Status::kOptimal) << "feas " << feas << " " << engine;
      EXPECT_NEAR(r.objective, -0.05, 1e-7) << "feas " << feas << " " << engine;
    };
    check("dense", solve(beale(), opt.simplex));
    check("revised", solve_with(beale(), opt));
  }
}

TEST(LpDegeneracy, FallbackReasonsRecorded) {
  LpProblem p;
  const auto x = p.add_variable(-1.0, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 3.0);

  // Structural change (extra row) -> signature mismatch.
  WarmStart warm;
  SolverOptions opt;
  ASSERT_TRUE(solve_with(p, opt, &warm).optimal());
  LpProblem q = p;
  q.add_constraint({{x, 2.0}}, Relation::kLessEq, 10.0);
  SolveStats stats;
  ASSERT_TRUE(solve_with(q, opt, &warm, &stats).optimal());
  EXPECT_EQ(stats.fallback, WarmFallback::kSignatureMismatch);
  EXPECT_EQ(warm.misses_by(WarmFallback::kSignatureMismatch), 1u);

  // Every miss is attributed to exactly one reason.
  std::size_t total = 0;
  for (const std::size_t n : warm.miss_reasons()) total += n;
  EXPECT_EQ(total, warm.misses());
}

TEST(LpDegeneracy, IterationLimitStillReported) {
  // The anti-cycling machinery must not mask a genuine pivot-budget hit.
  SolverOptions opt;
  opt.simplex.max_iterations = 1;
  EXPECT_EQ(solve(beale(), opt.simplex).status, Status::kIterationLimit)
      << "dense";
  EXPECT_EQ(solve_with(beale(), opt).status, Status::kIterationLimit)
      << "revised";
}

TEST(LpDegeneracy, SingularBasisIsReportedAsNumerical) {
  // With the pivot tolerance disabled the simplex pivots x in on its 1e-13
  // entry; the basis {x} then cannot factorize (the LU's absolute pivot
  // floor is 1e-10), every undo-and-reprice repeats the same pivot, and the
  // solve must surface the typed numerical verdict, not a pivot-budget one.
  LpProblem p;
  const auto x = p.add_variable(-1.0);
  p.add_constraint({{x, 1e-13}}, Relation::kLessEq, 1.0);
  SolverOptions opt;
  opt.simplex.pivot_tolerance = 1e-20;
  SolveStats stats;
  const LpResult r = solve_with(p, opt, nullptr, &stats);
  EXPECT_EQ(r.status, Status::kNumerical);
  EXPECT_STREQ(to_string(r.status), "numerical");
  EXPECT_TRUE(stats.singular_basis);
  EXPECT_TRUE(r.x.empty());
}

TEST(LpDegeneracy, CollapsedWarmAttemptRerunsCold) {
  // A warm basis that is accepted (primal feasible) but goes singular
  // mid-solve must be rerun cold, with the already-recorded hit demoted to
  // a miss. Priming solve: y has no cost, so the optimum is x = 1 with y
  // nonbasic. Giving y a cost makes it enter on its 1e-13 entry (the pivot
  // tolerance is disabled), which the LU cannot factorize.
  LpProblem p;
  const auto x = p.add_variable(-1.0);
  const auto y = p.add_variable(0.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEq, 1.0);
  p.add_constraint({{y, 1e-13}}, Relation::kLessEq, 1.0);
  SolverOptions opt;
  opt.simplex.pivot_tolerance = 1e-20;
  WarmStart warm;
  ASSERT_TRUE(solve_with(p, opt, &warm).optimal());
  ASSERT_TRUE(warm.has_basis());

  p.set_objective(y, -1.0);
  SolveStats stats;
  const LpResult r = solve_with(p, opt, &warm, &stats);
  EXPECT_EQ(r.status, Status::kNumerical);
  EXPECT_TRUE(stats.warm_start_attempted);
  EXPECT_FALSE(stats.warm_start_used);
  EXPECT_TRUE(stats.singular_basis);
  EXPECT_EQ(stats.fallback, WarmFallback::kSingularBasis)
      << "fell back: " << to_string(stats.fallback);
  EXPECT_EQ(warm.hits(), 0u);
  EXPECT_EQ(warm.misses_by(WarmFallback::kSingularBasis), 1u);
}

}  // namespace
}  // namespace figret::lp
