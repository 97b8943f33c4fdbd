// The WarmStart handle's cached engine (lp/warm_start.h): a chain that keeps
// one handle — standard form rewritten in place, LU and scratch reused —
// must return bit for bit what a chain returns whose every solve starts
// from a handle that holds only the previous basis (a copy, which drops the
// engine and so assembles afresh). Objective, x, y, pivot, dual-pivot and
// refactorization counts (full, in the kept pivot order, fallbacks) and the
// per-reason hit/miss counters are compared on the GEANT WAN trace, on a
// ToR fabric trace under a failure-mask sequence (bounds and right-hand
// sides change) whose LP changes pattern with the set of zero-demand pairs,
// and on an LP whose kept pivot order fails its threshold test.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/revised_simplex.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/pathset.h"
#include "traffic/generators.h"

namespace figret::lp {
namespace {

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]";
}

/// Two chains over the same LPs: `kept` solves in one persistent handle,
/// `fresh` solves each LP in a copy of the previous handle.
class TwinChains {
 public:
  /// Solves `p` on both chains and checks they agree; returns whether the
  /// kept chain reassembled its standard form.
  bool solve(const LpProblem& p, const std::string& label) {
    SolveStats ks, fs;
    const LpResult kr = solve_with(p, opt_, &kept_, &ks);
    WarmStart copy(fresh_);  // the basis and counters, no engine
    const LpResult fr = solve_with(p, opt_, &copy, &fs);
    fresh_ = copy;

    EXPECT_TRUE(fs.rebuilt) << label;
    EXPECT_EQ(kr.status, fr.status) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(kr.objective),
              std::bit_cast<std::uint64_t>(fr.objective))
        << label;
    expect_same_bits(kr.x, fr.x, label + " x");
    expect_same_bits(kr.y, fr.y, label + " y");
    EXPECT_EQ(kr.iterations, fr.iterations) << label;
    EXPECT_EQ(ks.pivots, fs.pivots) << label;
    EXPECT_EQ(ks.dual_pivots, fs.dual_pivots) << label;
    EXPECT_EQ(ks.refactorizations, fs.refactorizations) << label;
    EXPECT_EQ(ks.full_refactorizations, fs.full_refactorizations) << label;
    EXPECT_EQ(ks.inorder_refactorizations, fs.inorder_refactorizations)
        << label;
    EXPECT_EQ(ks.inorder_fallbacks, fs.inorder_fallbacks) << label;
    EXPECT_EQ(ks.refactorizations,
              ks.full_refactorizations + ks.inorder_refactorizations)
        << label;
    EXPECT_EQ(ks.ft_updates, fs.ft_updates) << label;
    EXPECT_EQ(ks.warm_start_attempted, fs.warm_start_attempted) << label;
    EXPECT_EQ(ks.warm_start_used, fs.warm_start_used) << label;
    EXPECT_EQ(ks.dual_simplex_used, fs.dual_simplex_used) << label;
    EXPECT_EQ(ks.fallback, fs.fallback) << label;
    EXPECT_EQ(kept_.hits(), fresh_.hits()) << label;
    EXPECT_EQ(kept_.misses(), fresh_.misses()) << label;
    EXPECT_EQ(kept_.miss_reasons(), fresh_.miss_reasons()) << label;
    EXPECT_EQ(kept_.basis(), fresh_.basis()) << label;
    if (ks.dual_simplex_used) ++dual_solves_;
    inorder_ += ks.inorder_refactorizations;
    fallbacks_ += ks.inorder_fallbacks;
    return ks.rebuilt;
  }

  const WarmStart& kept() const { return kept_; }
  std::size_t dual_solves() const { return dual_solves_; }
  /// Kept-chain warm primes refactorized in the kept order, and fallbacks.
  std::size_t inorder() const { return inorder_; }
  std::size_t fallbacks() const { return fallbacks_; }

 private:
  SolverOptions opt_;
  WarmStart kept_, fresh_;
  std::size_t dual_solves_ = 0;
  std::size_t inorder_ = 0;
  std::size_t fallbacks_ = 0;
};

TEST(LpWarmReuse, GeantWanChainIsBitIdenticalAndRewritesInPlace) {
  const net::Graph g = net::geant();
  const te::PathSet ps =
      te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace =
      traffic::wan_trace(g.num_nodes(), 60, 101);
  TwinChains chains;
  std::size_t rebuilds = 0;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const LpProblem p = te::build_mlu_lp(ps, trace[t]);
    rebuilds += chains.solve(p, "geant t=" + std::to_string(t));
  }
  // Every WAN snapshot has the same pattern: only the first solve assembles.
  EXPECT_EQ(rebuilds, 1u);
  EXPECT_GT(chains.kept().hits(), trace.size() / 2);
  EXPECT_GT(chains.dual_solves(), 0u);
  // Every warm prime after the first solve refactorizes in the order the
  // previous solve's final factorization kept.
  EXPECT_EQ(chains.inorder(), trace.size() - 1);
  EXPECT_EQ(chains.fallbacks(), 0u);
}

TEST(LpWarmReuse, TorChainWithMasksAndZeroDemandsIsBitIdentical) {
  const net::Graph g = net::random_regular(12, 4, 131);
  const te::PathSet ps =
      te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  traffic::TrafficTrace trace = traffic::dc_tor_trace(12, 48, 137);
  // A rotating seventh of the pairs carries no demand, changing every four
  // snapshots: those pairs drop out of the capacity rows.
  for (std::size_t t = 0; t < trace.size(); ++t)
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
      if ((pr + t / 4) % 7 == 0) trace.snapshots[t][pr] = 0.0;
  const std::vector<bool> alive1 =
      te::surviving_paths(ps, te::sample_safe_failures(ps, 2, 5));
  const std::vector<bool> alive2 =
      te::surviving_paths(ps, te::sample_safe_failures(ps, 3, 9));
  // Masks change every six snapshots: none, alive1, alive2, none, ...
  const auto mask_of = [&](std::size_t t) -> const std::vector<bool>* {
    switch ((t / 6) % 3) {
      case 1:
        return &alive1;
      case 2:
        return &alive2;
      default:
        return nullptr;
    }
  };

  TwinChains chains;
  std::size_t rebuilds = 0;
  std::vector<bool> prev_zero;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    std::vector<bool> zero(ps.num_pairs());
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
      zero[pr] = trace[t][pr] == 0.0;
    // A mask sets bounds only, so the pattern changes exactly when the
    // zero-demand set does.
    const bool reshaped = t == 0 || zero != prev_zero;
    prev_zero = zero;
    const LpProblem p = te::build_mlu_lp(ps, trace[t], nullptr, mask_of(t));
    const bool rebuilt = chains.solve(p, "tor t=" + std::to_string(t));
    EXPECT_EQ(rebuilt, reshaped) << "t=" << t;
    rebuilds += rebuilt;
  }
  EXPECT_GT(rebuilds, 8u);
  EXPECT_LT(rebuilds, trace.size());
  // Every mask install and clear keeps the signature: the basis carries over.
  EXPECT_EQ(chains.kept().misses_by(WarmFallback::kSignatureMismatch), 0u);
}

TEST(LpWarmReuse, PivotOrderFallbackIsBitIdenticalInBothChains) {
  // Two equality rows over x and y: the optimal basis is always {x, y},
  // at x = y = 1. The second LP shrinks the entry the kept order pivots on
  // first to 1e-4 of its column's other entry. B stays nonsingular, but
  // both chains' warm primes — the kept LU and a fresh one given the
  // copied order — must fall back to factorize(), and agree bit for bit.
  // The fallback's order then serves the third solve.
  using Coeffs = std::array<double, 4>;  // x row 0, x row 1, y row 0, y row 1
  const auto lp = [](const Coeffs& a) {
    LpProblem p;
    const auto x = p.add_variable(1.0);
    const auto y = p.add_variable(1.0);
    p.add_constraint({{x, a[0]}, {y, a[2]}}, Relation::kEq, a[0] + a[2]);
    p.add_constraint({{x, a[1]}, {y, a[3]}}, Relation::kEq, a[1] + a[3]);
    return p;
  };
  Coeffs a{2.0, 1.0, 1.0, 3.0};
  TwinChains chains;
  chains.solve(lp(a), "first");
  const WarmStart& warm = chains.kept();
  ASSERT_EQ(warm.basis().size(), 2u);
  const std::uint32_t col = warm.basis()[warm.order().slot[0]];
  const std::uint32_t row = warm.order().row[0];
  ASSERT_LT(col, 2u);  // a structural column: its entry is the pivot
  a[2 * col + row] = 1e-4 * a[2 * col + (1 - row)];
  chains.solve(lp(a), "shrunk");
  EXPECT_EQ(chains.fallbacks(), 1u);
  EXPECT_EQ(chains.inorder(), 0u);
  a[2 * col + row] *= 1.5;
  const LpResult r = solve_with(lp(a), SolverOptions{}, nullptr);
  chains.solve(lp(a), "after");
  EXPECT_EQ(chains.fallbacks(), 1u);
  EXPECT_EQ(chains.inorder(), 1u);
  EXPECT_EQ(chains.kept().hits(), 2u);
  ASSERT_TRUE(r.optimal());
  EXPECT_NEAR(r.objective, 2.0, 1e-12);
}

TEST(LpWarmReuse, ScratchSolveMatchesTheAllocatingForm) {
  // te::solve_mlu_lp in worker scratch (in-place LP build, recycled result
  // storage) against the allocating form, each on its own warm chain.
  const net::Graph g = net::random_regular(12, 4, 131);
  const te::PathSet ps =
      te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(12, 24, 7);
  const std::vector<bool> alive =
      te::surviving_paths(ps, te::sample_safe_failures(ps, 2, 5));
  WarmStart a, b;
  te::MluLpScratch scratch;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const std::vector<bool>* mask = t >= 12 ? &alive : nullptr;
    const te::MluLpResult want =
        te::solve_mlu_lp(ps, trace[t], nullptr, mask, nullptr, &a);
    const te::MluLpResult& got =
        te::solve_mlu_lp(ps, trace[t], nullptr, mask, nullptr, &b, scratch);
    ASSERT_TRUE(want.optimal());
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mlu),
              std::bit_cast<std::uint64_t>(want.mlu));
    expect_same_bits(got.config, want.config,
                     "config t=" + std::to_string(t));
    EXPECT_EQ(got.pivots, want.pivots);
    EXPECT_EQ(got.rebuilt, want.rebuilt);
    // The scratch holds the solved LP: it is the one build_mlu_lp builds.
    const LpProblem built = te::build_mlu_lp(ps, trace[t], nullptr, mask);
    ASSERT_EQ(scratch.problem.num_constraints(), built.num_constraints());
    for (std::size_t i = 0; i < built.num_constraints(); ++i) {
      const auto& x = scratch.problem.rows()[i];
      const auto& y = built.rows()[i];
      ASSERT_EQ(x.terms.size(), y.terms.size());
      for (std::size_t k = 0; k < x.terms.size(); ++k) {
        EXPECT_EQ(x.terms[k].var, y.terms[k].var);
        EXPECT_EQ(x.terms[k].coeff, y.terms[k].coeff);
      }
      EXPECT_EQ(x.rel, y.rel);
      EXPECT_EQ(x.rhs, y.rhs);
    }
  }
}

TEST(LpWarmReuse, PatternChecksCatchEveryReshape) {
  // New numbers on one pattern are rewritten in place. Same shape, different
  // pattern — a moved term, a flipped rhs sign, a term whose coefficient
  // became zero — must reassemble. Every solve solves the LP it was given.
  const auto base = [] {
    LpProblem p;
    const auto x = p.add_variable(-1.0, 4.0);
    const auto y = p.add_variable(-2.0);
    p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEq, 6.0);
    p.add_constraint({{y, 1.0}}, Relation::kLessEq, 3.0);
    return p;
  };
  WarmStart warm;
  SolveStats st;
  LpProblem p = base();
  ASSERT_TRUE(solve_with(p, SolverOptions{}, &warm, &st).optimal());
  EXPECT_TRUE(st.rebuilt);
  p.set_objective(0, -3.0);  // numbers only: rewritten in place
  LpResult r = solve_with(p, SolverOptions{}, &warm, &st);
  EXPECT_FALSE(st.rebuilt);
  EXPECT_DOUBLE_EQ(r.objective, -12.0 - 2.0 * 2.0);
  p.set_rhs(0, 5.0);  // a right-hand side ...
  r = solve_with(p, SolverOptions{}, &warm, &st);
  EXPECT_FALSE(st.rebuilt);
  EXPECT_DOUBLE_EQ(r.objective, -12.0 - 2.0 * 1.0);
  p.set_upper_bound(0, 2.0);  // ... and a bound are numbers too
  r = solve_with(p, SolverOptions{}, &warm, &st);
  EXPECT_FALSE(st.rebuilt);
  EXPECT_DOUBLE_EQ(r.objective, -6.0 - 2.0 * 3.0);

  LpProblem moved;  // the second row reads x instead of y
  moved.add_variable(-1.0, 4.0);
  moved.add_variable(-2.0);
  moved.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEq, 6.0);
  moved.add_constraint({{0, 1.0}}, Relation::kLessEq, 3.0);
  r = solve_with(moved, SolverOptions{}, &warm, &st);
  EXPECT_TRUE(st.rebuilt);
  EXPECT_DOUBLE_EQ(r.objective, -2.0 * 6.0);

  LpProblem flipped = base();  // x + y <= -6 normalizes to -x - y >= 6
  flipped.set_rhs(0, -6.0);
  r = solve_with(flipped, SolverOptions{}, &warm, &st);
  EXPECT_TRUE(st.rebuilt);
  EXPECT_EQ(r.status, Status::kInfeasible);

  LpProblem zeroed;  // a term with coefficient 0 is no stored entry
  zeroed.add_variable(-1.0, 4.0);
  zeroed.add_variable(-2.0);
  zeroed.add_constraint({{0, 1.0}, {1, 0.0}}, Relation::kLessEq, 6.0);
  zeroed.add_constraint({{1, 1.0}}, Relation::kLessEq, 3.0);
  r = solve_with(base(), SolverOptions{}, &warm, &st);
  EXPECT_TRUE(st.rebuilt);
  r = solve_with(zeroed, SolverOptions{}, &warm, &st);
  EXPECT_TRUE(st.rebuilt);
  EXPECT_DOUBLE_EQ(r.objective, -4.0 - 2.0 * 3.0);
  // Its dropped entry leaves no one-to-one term map: it always reassembles.
  r = solve_with(zeroed, SolverOptions{}, &warm, &st);
  EXPECT_TRUE(st.rebuilt);
  EXPECT_DOUBLE_EQ(r.objective, -4.0 - 2.0 * 3.0);
}

}  // namespace
}  // namespace figret::lp
