// Differential fuzzing of the two LP engines: seeded random instances (via
// util/rng, so every failure reproduces from its seed) solved by the dense
// tableau oracle and the sparse revised simplex, asserting identical Status
// and, when optimal, matching objective values plus valid duality
// certificates from both engines. Families cover generic feasible LPs,
// highly degenerate constructions, infeasible systems, and unbounded rays.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/certificates.h"
#include "lp/revised_simplex.h"
#include "support/dense_simplex.h"
#include "util/rng.h"

namespace figret::lp {
namespace {

constexpr double kObjTol = 1e-7;

struct Differential {
  LpResult dense;
  LpResult revised;
};

Differential solve_both(const LpProblem& p) {
  SolverOptions revised;
  // Exercise the eta-file refactorization path even on small instances.
  revised.refactor_interval = 16;
  return {solve(p), solve_with(p, revised)};
}

void expect_agreement(const LpProblem& p, std::uint64_t seed) {
  const Differential d = solve_both(p);
  ASSERT_EQ(d.dense.status, d.revised.status)
      << "seed " << seed << ": dense " << to_string(d.dense.status)
      << " vs revised " << to_string(d.revised.status);
  if (d.dense.status != Status::kOptimal) return;
  const double scale = 1.0 + std::abs(d.dense.objective);
  EXPECT_NEAR(d.dense.objective, d.revised.objective, kObjTol * scale)
      << "seed " << seed;
  EXPECT_TRUE(check_certificate(p, d.dense).ok(1e-6)) << "seed " << seed;
  EXPECT_TRUE(check_certificate(p, d.revised).ok(1e-6)) << "seed " << seed;
}

// Generic family: a random point x0 inside the box is planted, and every row
// is built to admit it — the instance is feasible by construction (it may
// still be unbounded when a negative-cost direction escapes the rows; both
// engines must then agree on kUnbounded).
LpProblem random_feasible(util::Rng& rng) {
  const std::size_t n = 2 + rng.uniform_index(9);   // 2..10 variables
  const std::size_t m = 1 + rng.uniform_index(8);   // 1..8 rows
  LpProblem p;
  std::vector<double> x0(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const bool bounded = rng.bernoulli(0.5);
    const double ub = bounded ? rng.uniform(0.2, 3.0) : kInfinity;
    p.add_variable(rng.uniform(-2.0, 2.0), ub);
    x0[j] = rng.uniform(0.0, bounded ? ub : 2.0);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Term> terms;
    double activity = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.4)) continue;  // sparse rows
      const double a = rng.uniform(-1.5, 1.5);
      terms.push_back({j, a});
      activity += a * x0[j];
    }
    if (terms.empty()) terms.push_back({rng.uniform_index(n), 1.0});
    const double roll = rng.uniform();
    if (roll < 0.4) {
      p.add_constraint(std::move(terms), Relation::kLessEq,
                       activity + rng.uniform(0.0, 1.0));
    } else if (roll < 0.7) {
      p.add_constraint(std::move(terms), Relation::kGreaterEq,
                       activity - rng.uniform(0.0, 1.0));
    } else {
      p.add_constraint(std::move(terms), Relation::kEq, activity);
    }
  }
  return p;
}

// Degenerate family: duplicated and scaled rows through a common vertex and
// zero right-hand sides — the constructions that historically cycle.
LpProblem random_degenerate(util::Rng& rng) {
  const std::size_t n = 2 + rng.uniform_index(5);  // 2..6 variables
  LpProblem p;
  for (std::size_t j = 0; j < n; ++j)
    p.add_variable(rng.uniform(-1.0, 1.0),
                   rng.bernoulli(0.5) ? rng.uniform(0.5, 2.0) : kInfinity);
  std::vector<Term> base;
  for (std::size_t j = 0; j < n; ++j)
    base.push_back({j, rng.uniform(-1.0, 1.0)});
  const std::size_t copies = 2 + rng.uniform_index(3);
  for (std::size_t k = 0; k < copies; ++k) {
    std::vector<Term> row = base;
    const double s = rng.uniform(0.5, 2.0);
    for (Term& t : row) t.coeff *= s;
    p.add_constraint(std::move(row), Relation::kLessEq, 0.0);
  }
  // A few independent rows so the optimum is not always at the origin.
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<Term> row;
    for (std::size_t j = 0; j < n; ++j)
      row.push_back({j, rng.uniform(0.0, 1.5)});
    p.add_constraint(std::move(row), Relation::kLessEq, rng.uniform(0.5, 2.0));
  }
  return p;
}

// Infeasible family: a random system plus a directly contradictory pair.
LpProblem random_infeasible(util::Rng& rng) {
  LpProblem p = random_feasible(rng);
  const std::size_t j = rng.uniform_index(p.num_variables());
  const double c = rng.uniform(1.0, 3.0);
  p.add_constraint({{j, 1.0}}, Relation::kGreaterEq, c);
  p.add_constraint({{j, 1.0}}, Relation::kLessEq, c - rng.uniform(0.5, 1.0));
  return p;
}

// Unbounded family: an unbounded-above variable with negative cost that no
// row caps (rows only see it with non-positive coefficients).
LpProblem random_unbounded(util::Rng& rng) {
  const std::size_t n = 2 + rng.uniform_index(4);
  LpProblem p;
  for (std::size_t j = 0; j < n; ++j)
    p.add_variable(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0));
  const std::size_t ray = p.add_variable(-rng.uniform(0.1, 2.0));  // no ub
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<Term> row;
    for (std::size_t j = 0; j < n; ++j)
      row.push_back({j, rng.uniform(-1.0, 1.0)});
    if (rng.bernoulli(0.5)) row.push_back({ray, -rng.uniform(0.0, 1.0)});
    p.add_constraint(std::move(row), Relation::kLessEq, rng.uniform(0.5, 2.0));
  }
  return p;
}

TEST(LpDifferential, GenericFeasibleFamily) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    expect_agreement(random_feasible(rng), seed);
  }
}

TEST(LpDifferential, DegenerateFamily) {
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    util::Rng rng(seed);
    expect_agreement(random_degenerate(rng), seed);
  }
}

TEST(LpDifferential, InfeasibleFamily) {
  for (std::uint64_t seed = 2000; seed < 2060; ++seed) {
    util::Rng rng(seed);
    const LpProblem p = random_infeasible(rng);
    const Differential d = solve_both(p);
    EXPECT_EQ(d.dense.status, Status::kInfeasible) << "seed " << seed;
    EXPECT_EQ(d.revised.status, Status::kInfeasible) << "seed " << seed;
  }
}

TEST(LpDifferential, UnboundedFamily) {
  for (std::uint64_t seed = 3000; seed < 3060; ++seed) {
    util::Rng rng(seed);
    const LpProblem p = random_unbounded(rng);
    const Differential d = solve_both(p);
    EXPECT_EQ(d.dense.status, Status::kUnbounded) << "seed " << seed;
    EXPECT_EQ(d.revised.status, Status::kUnbounded) << "seed " << seed;
  }
}

TEST(LpDifferential, WarmStartAgreesWithCold) {
  // Chained warm-started solves over perturbed instances must match the
  // dense oracle solved cold on each instance.
  WarmStart warm;
  SolverOptions revised;
  for (std::uint64_t seed = 4000; seed < 4040; ++seed) {
    util::Rng rng(7);  // same structure every time ...
    LpProblem p = random_feasible(rng);
    util::Rng perturb(seed);  // ... with per-seed objective/rhs noise
    for (std::size_t j = 0; j < p.num_variables(); ++j)
      p.set_objective(j, p.objective()[j] + perturb.uniform(-0.3, 0.3));
    const LpResult cold = solve(p);
    const LpResult hot = solve_with(p, revised, &warm);
    ASSERT_EQ(cold.status, hot.status) << "seed " << seed;
    if (!cold.optimal()) continue;
    const double scale = 1.0 + std::abs(cold.objective);
    EXPECT_NEAR(cold.objective, hot.objective, kObjTol * scale)
        << "seed " << seed;
    EXPECT_TRUE(check_certificate(p, hot).ok(1e-6)) << "seed " << seed;
  }
  EXPECT_GT(warm.hits() + warm.misses(), 0u);
}

TEST(LpDifferential, DualWarmBatteryAgreesWithColdOnSeededInstances) {
  // The dual-vs-primal battery over the same seeded families the engines are
  // fuzzed on: solve cold (priming a warm handle), perturb every right-hand
  // side multiplicatively (sign-preserving, so the normalized relation
  // pattern — and with it the warm-start signature — is unchanged), and
  // re-solve warm. The warm resolve must agree with the dense oracle solved
  // cold on the perturbed instance, whichever prime (primal or dual) it
  // took. Across the battery the dual path must actually fire.
  std::size_t dual_used = 0, warm_used = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    LpProblem p = random_feasible(rng);
    WarmStart warm;
    SolverOptions revised;
    const LpResult first = solve_with(p, revised, &warm);
    if (!first.optimal()) continue;

    util::Rng noise(seed ^ 0x5eedULL);
    for (std::size_t r = 0; r < p.num_constraints(); ++r)
      p.set_rhs(r, p.rows()[r].rhs * (1.0 + noise.uniform(-0.15, 0.15)));

    const LpResult cold = solve(p);
    SolveStats stats;
    const LpResult hot = solve_with(p, revised, &warm, &stats);
    ASSERT_EQ(cold.status, hot.status) << "seed " << seed;
    warm_used += stats.warm_start_used ? 1 : 0;
    dual_used += stats.dual_simplex_used ? 1 : 0;
    if (!cold.optimal()) continue;
    const double scale = 1.0 + std::abs(cold.objective);
    EXPECT_NEAR(cold.objective, hot.objective, kObjTol * scale)
        << "seed " << seed;
    EXPECT_TRUE(check_certificate(p, hot).ok(1e-6)) << "seed " << seed;
  }
  EXPECT_GT(warm_used, 100u);  // RHS-only changes must re-prime, not fall back
  EXPECT_GT(dual_used, 10u);   // and the dual simplex must carry its share
}

TEST(LpDifferential, RhsPerturbationChainNeverFallsBackCold) {
  // The production shape this PR exists for: a fixed constraint structure
  // re-solved across a chain of RHS-only perturbations (failure-masked
  // capacities, tightened budgets). Every resolve after the first must
  // re-prime from the warm basis — zero cold fallbacks — and match the dense
  // oracle's optimum.
  for (std::uint64_t chain = 0; chain < 8; ++chain) {
    util::Rng rng(9000 + chain);
    LpProblem p;
    constexpr std::size_t kVars = 8;
    for (std::size_t j = 0; j < kVars; ++j)
      p.add_variable(rng.uniform(-2.0, 1.0), rng.uniform(0.5, 3.0));
    for (std::size_t i = 0; i < 6; ++i) {
      std::vector<Term> terms;
      for (std::size_t j = 0; j < kVars; ++j)
        terms.push_back({j, rng.uniform(0.0, 1.5)});
      p.add_constraint(std::move(terms), Relation::kLessEq,
                       rng.uniform(2.0, 6.0));
    }
    WarmStart warm;
    SolverOptions revised;
    ASSERT_TRUE(solve_with(p, revised, &warm).optimal()) << chain;

    for (int step = 0; step < 12; ++step) {
      // Multiplicative tightening/loosening keeps every rhs positive: the
      // signature cannot change, so any fallback is a real regression.
      for (std::size_t r = 0; r < p.num_constraints(); ++r)
        p.set_rhs(r, p.rows()[r].rhs * rng.uniform(0.7, 1.1));
      const LpResult cold = solve(p);
      SolveStats stats;
      const LpResult hot = solve_with(p, revised, &warm, &stats);
      ASSERT_EQ(cold.status, hot.status) << "chain " << chain << " step "
                                         << step;
      EXPECT_TRUE(stats.warm_start_used)
          << "chain " << chain << " step " << step << " fell back: "
          << to_string(stats.fallback);
      EXPECT_EQ(stats.fallback, WarmFallback::kNone)
          << "chain " << chain << " step " << step;
      if (!cold.optimal()) continue;
      const double scale = 1.0 + std::abs(cold.objective);
      EXPECT_NEAR(cold.objective, hot.objective, kObjTol * scale)
          << "chain " << chain << " step " << step;
    }
    EXPECT_EQ(warm.misses(), 0u) << "chain " << chain;
  }
}

TEST(LpDifferential, WarmStartAgreesAcrossCoefficientAndRhsChanges) {
  // The production warm paths (Harness chains, scheme advise loops) vary
  // constraint *coefficients* and RHS between solves — the demand values in
  // the capacity rows — not the objective. Chain warm solves over instances
  // with a fixed row/relation structure but perturbed coefficients, bounds,
  // and right-hand sides, against the dense oracle solved cold each time.
  WarmStart warm;
  SolverOptions revised;
  for (std::uint64_t seed = 5000; seed < 5060; ++seed) {
    util::Rng structure(11);  // identical structure draw every iteration ...
    util::Rng noise(seed);    // ... with per-seed numeric perturbations
    constexpr std::size_t kVars = 6;
    constexpr std::size_t kRows = 5;
    LpProblem p;
    std::vector<double> x0(kVars, 0.0);
    for (std::size_t j = 0; j < kVars; ++j) {
      const bool bounded = structure.bernoulli(0.5);
      const double ub =
          bounded ? structure.uniform(0.5, 2.0) + noise.uniform(0.0, 0.3)
                  : kInfinity;
      p.add_variable(structure.uniform(-1.5, 1.5) + noise.uniform(-0.2, 0.2),
                     ub);
      x0[j] = noise.uniform(0.0, bounded ? 0.5 : 1.5);
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      std::vector<Term> terms;
      double activity = 0.0;
      for (std::size_t j = 0; j < kVars; ++j) {
        const double a =
            structure.uniform(-1.0, 1.5) + noise.uniform(-0.15, 0.15);
        terms.push_back({j, a});
        activity += a * x0[j];
      }
      const double roll = structure.uniform();
      if (roll < 0.4) {
        p.add_constraint(std::move(terms), Relation::kLessEq,
                         activity + noise.uniform(0.1, 1.0));
      } else if (roll < 0.7) {
        p.add_constraint(std::move(terms), Relation::kGreaterEq,
                         activity - noise.uniform(0.1, 1.0));
      } else {
        p.add_constraint(std::move(terms), Relation::kEq, activity);
      }
    }
    const LpResult cold = solve(p);
    const LpResult hot = solve_with(p, revised, &warm);
    ASSERT_EQ(cold.status, hot.status) << "seed " << seed;
    if (!cold.optimal()) continue;
    const double scale = 1.0 + std::abs(cold.objective);
    EXPECT_NEAR(cold.objective, hot.objective, kObjTol * scale)
        << "seed " << seed;
    EXPECT_TRUE(check_certificate(p, hot).ok(1e-6)) << "seed " << seed;
  }
  // The perturbations are small, so the chain must actually re-prime.
  EXPECT_GT(warm.hits(), 0u);
}

}  // namespace
}  // namespace figret::lp
