// Unit battery for the sparse Markowitz LU with Forrest–Tomlin updates that
// backs the revised simplex: factorize/ftran/btran correctness on seeded
// random bases, column-replacement updates validated against the basis they
// claim to represent, the determinant-lemma accuracy test (|newdiag| =
// |pivot| * |old diag|), the relative — never absolute — drop tolerance
// on ill-scaled instances, a differential check of the heap-ordered
// pivot search against the full-rescan reference it replaced, and the
// refactor in a kept pivot order: bit for bit against a fresh factorization
// in that order (and against factorize() when it picks the same order), its
// threshold fallback, and what makes it fall back to factorize().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "lp/lu.h"
#include "lp/revised_simplex.h"
#include "lp/sparse.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/lp_schemes.h"
#include "te/pathset.h"
#include "traffic/generators.h"
#include "util/rng.h"

namespace figret::lp {
namespace {

constexpr LuFactorization::Options kOpt{1e-10, 0.01, 1e-14};

// Random column pool with a guaranteed-nonsingular leading m-column basis
// (diagonal dominance on the first m columns, random sparse fill elsewhere).
SparseMatrix random_pool(util::Rng& rng, std::size_t m, std::size_t ncols,
                         double scale = 1.0) {
  std::vector<Triplet> trip;
  for (std::size_t j = 0; j < ncols; ++j) {
    if (j < m)
      trip.push_back({static_cast<std::uint32_t>(j),
                      static_cast<std::uint32_t>(j),
                      rng.uniform(0.5, 2.0) * scale});
    for (std::size_t r = 0; r < m; ++r) {
      if (j < m && r == j) continue;
      if (rng.bernoulli(0.2))
        trip.push_back({static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(j),
                        rng.uniform(-1.5, 1.5) * scale});
    }
  }
  return SparseMatrix::from_triplets(m, ncols, std::move(trip));
}

// max_i |ftran(basis column i) - e_i|: zero iff the factorization represents
// exactly the claimed basis.
double basis_residual(LuFactorization& lu, const SparseMatrix& A,
                      const std::vector<std::uint32_t>& basis) {
  const std::size_t m = basis.size();
  double err = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> v(m, 0.0);
    A.scatter_col(basis[i], v);
    lu.ftran(v);
    for (std::size_t r = 0; r < m; ++r)
      err = std::max(err, std::abs(v[r] - (r == i ? 1.0 : 0.0)));
  }
  return err;
}

TEST(LpLu, FactorizeSolvesRandomBases) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 3 + rng.uniform_index(30);
    SparseMatrix A = random_pool(rng, m, m + 10);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis, kOpt)) << "seed " << seed;
    EXPECT_LT(basis_residual(lu, A, basis), 1e-9) << "seed " << seed;
  }
}

TEST(LpLu, BtranIsTheTransposedSolve) {
  // y = btran(c) must satisfy y' * (basis column i) == c[i] for every slot:
  // that is B' y = c, the dual pricing solve.
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 3 + rng.uniform_index(25);
    SparseMatrix A = random_pool(rng, m, m + 6);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis, kOpt));
    std::vector<double> c(m);
    for (double& v : c) v = rng.uniform(-2.0, 2.0);
    std::vector<double> y = c;
    lu.btran(y);
    for (std::size_t i = 0; i < m; ++i) {
      const double got = A.dot_col(basis[i], y);
      EXPECT_NEAR(got, c[i], 1e-8) << "seed " << seed << " slot " << i;
    }
  }
}

TEST(LpLu, UpdateTracksColumnReplacements) {
  // A simplex-shaped workload: chains of column replacements through
  // update(), each validated against a from-scratch definition of the basis.
  int accepted = 0;
  for (std::uint64_t seed = 200; seed <= 230; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 4 + rng.uniform_index(25);
    const std::size_t ncols = m + 15;
    SparseMatrix A = random_pool(rng, m, ncols);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis, kOpt));

    for (int step = 0; step < 30; ++step) {
      const auto j = static_cast<std::uint32_t>(rng.uniform_index(ncols));
      bool in_basis = false;
      for (const std::uint32_t c : basis) in_basis |= (c == j);
      if (in_basis) continue;
      const auto slot = static_cast<std::uint32_t>(rng.uniform_index(m));
      std::vector<double> v(m, 0.0);
      A.scatter_col(j, v);
      lu.ftran(v, /*save_spike=*/true);
      if (std::abs(v[slot]) < 1e-6) continue;  // simplex would not pivot here
      const double old_diag = lu.diag_of(slot);
      if (!lu.update(slot, v[slot])) {
        // A refusal must leave the factorization flagged for rebuild.
        EXPECT_FALSE(lu.valid());
        basis[slot] = j;
        ASSERT_TRUE(lu.factorize(A, basis, kOpt));
        continue;
      }
      ++accepted;
      basis[slot] = j;
      EXPECT_LT(basis_residual(lu, A, basis), 1e-7)
          << "seed " << seed << " step " << step;
      // Determinant lemma: |newdiag| == |pivot| * |old diag|.
      const double expect = std::abs(v[slot]) * std::abs(old_diag);
      EXPECT_NEAR(std::abs(lu.diag_of(slot)), expect,
                  1e-6 * std::max(1.0, expect));
    }
  }
  EXPECT_GT(accepted, 100);  // the battery must actually exercise update()
}

TEST(LpLu, UpdateRefusesInconsistentPivotEstimate) {
  // Feeding the accuracy test a pivot estimate that contradicts the
  // re-eliminated diagonal must refuse the update and invalidate the
  // factorization — this is the drift detector that keeps a dependent
  // column from silently replacing a basis column.
  util::Rng rng(7);
  const std::size_t m = 12;
  SparseMatrix A = random_pool(rng, m, m + 8);
  std::vector<std::uint32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::uint32_t>(i);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(A, basis, kOpt));
  std::vector<double> v(m, 0.0);
  A.scatter_col(m + 3, v);
  lu.ftran(v, /*save_spike=*/true);
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (std::abs(v[i]) > std::abs(v[slot])) slot = static_cast<std::uint32_t>(i);
  ASSERT_GT(std::abs(v[slot]), 1e-6);
  EXPECT_FALSE(lu.update(slot, 10.0 * v[slot] + 1.0));
  EXPECT_FALSE(lu.valid());
}

TEST(LpLu, RelativeDropKeepsIllScaledEntries) {
  // Columns scaled by 1e9: an absolute drop tolerance (the old eta file's
  // documented bug) would truncate the small-but-relatively-large entries of
  // down-scaled columns; the relative drop must keep solves accurate.
  for (const double scale : {1e-9, 1.0, 1e9}) {
    util::Rng rng(42);
    const std::size_t m = 20;
    SparseMatrix A = random_pool(rng, m, m + 10, scale);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A, basis, kOpt)) << "scale " << scale;
    EXPECT_LT(basis_residual(lu, A, basis), 1e-8) << "scale " << scale;
  }
}

// --- differential reference: the full-rescan pivot search ----------------
//
// The factorization as it was before the pivot search moved to a heap:
// every elimination step rescans all active columns for the shortest usable
// one (O(m) per step, O(m^2) per factorization). Same elimination, same
// ftran/btran arithmetic. The production LU must reproduce its pivot
// sequence and every bit of its numbers.
struct ReferenceLu {
  struct LCol {
    std::uint32_t pivot_row = 0;
    std::vector<std::pair<std::uint32_t, double>> mults;
  };
  struct UEntry {
    std::uint32_t slot = 0;
    double value = 0.0;
  };
  struct URow {
    std::uint32_t pivot_row = 0;
    double diag = 0.0;
    std::vector<UEntry> entries;
  };
  std::size_t m = 0;
  std::vector<LCol> lcols;
  std::vector<URow> urows;
  std::vector<std::uint32_t> order;

  bool factorize(const SparseMatrix& A, const std::vector<std::uint32_t>& basis,
                 const LuFactorization::Options& opt) {
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    m = basis.size();
    lcols.clear();
    urows.assign(m, URow{});
    order.clear();
    std::vector<std::vector<std::pair<std::uint32_t, double>>> cols(m);
    std::vector<std::vector<std::uint32_t>> row_slots(m);
    std::vector<std::uint32_t> rowcount(m, 0);
    for (std::size_t j = 0; j < m; ++j) {
      const auto rows = A.col_rows(basis[j]);
      const auto vals = A.col_values(basis[j]);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        cols[j].emplace_back(rows[k], vals[k]);
        row_slots[rows[k]].push_back(static_cast<std::uint32_t>(j));
        ++rowcount[rows[k]];
      }
    }
    std::vector<bool> col_done(m, false);
    std::vector<double> dval(m, 0.0);
    std::vector<bool> dset(m, false), inold(m, false);
    std::vector<std::uint32_t> touched;
    for (std::size_t step = 0; step < m; ++step) {
      std::size_t pj = kNone, pr = kNone;
      double pv = 0.0;
      std::size_t best_nnz = kNone;
      for (std::size_t j = 0; j < m; ++j) {
        if (col_done[j]) continue;
        const auto& c = cols[j];
        if (c.size() >= best_nnz) continue;
        double cmax = 0.0;
        for (const auto& [row, val] : c) cmax = std::max(cmax, std::abs(val));
        if (cmax < opt.abs_pivot_tol) continue;
        const double thresh = std::max(opt.abs_pivot_tol, opt.rel_pivot_tol * cmax);
        std::size_t cand_r = kNone;
        double cand_v = 0.0;
        std::uint32_t cand_rc = std::numeric_limits<std::uint32_t>::max();
        for (const auto& [row, val] : c) {
          if (std::abs(val) < thresh) continue;
          if (rowcount[row] < cand_rc ||
              (rowcount[row] == cand_rc && std::abs(val) > std::abs(cand_v))) {
            cand_rc = rowcount[row];
            cand_r = row;
            cand_v = val;
          }
        }
        if (cand_r == kNone) continue;
        pj = j;
        pr = cand_r;
        pv = cand_v;
        best_nnz = c.size();
        if (best_nnz <= 1) break;
      }
      if (pj == kNone) return false;

      LCol lc;
      lc.pivot_row = static_cast<std::uint32_t>(pr);
      for (const auto& [row, val] : cols[pj])
        if (row != pr) lc.mults.emplace_back(row, val / pv);
      URow& ur = urows[pj];
      ur.pivot_row = static_cast<std::uint32_t>(pr);
      ur.diag = pv;
      for (const std::uint32_t c : row_slots[pr]) {
        if (c == pj || col_done[c]) continue;
        auto& col = cols[c];
        std::size_t at = kNone;
        for (std::size_t k = 0; k < col.size(); ++k)
          if (col[k].first == pr) {
            at = k;
            break;
          }
        if (at == kNone) continue;
        const double vr = col[at].second;
        col[at] = col.back();
        col.pop_back();
        ur.entries.push_back({c, vr});
        if (lc.mults.empty() || vr == 0.0) continue;
        touched.clear();
        for (const auto& [row, val] : col) {
          dval[row] = val;
          dset[row] = inold[row] = true;
          touched.push_back(row);
        }
        for (const auto& [row, mult] : lc.mults) {
          if (!dset[row]) {
            dset[row] = true;
            dval[row] = 0.0;
            touched.push_back(row);
          }
          dval[row] -= mult * vr;
        }
        double cmax = 0.0;
        for (const std::uint32_t row : touched)
          cmax = std::max(cmax, std::abs(dval[row]));
        const double drop = opt.drop_tol * cmax;
        col.clear();
        for (const std::uint32_t row : touched) {
          const double v = dval[row];
          if (std::abs(v) > drop) {
            col.emplace_back(row, v);
            if (!inold[row]) {
              row_slots[row].push_back(c);
              ++rowcount[row];
            }
          }
          dval[row] = 0.0;
          dset[row] = inold[row] = false;
        }
      }
      col_done[pj] = true;
      cols[pj].clear();
      row_slots[pr].clear();
      order.push_back(static_cast<std::uint32_t>(pj));
      lcols.push_back(std::move(lc));
    }
    return true;
  }

  void ftran(std::vector<double>& v) const {
    for (const LCol& lc : lcols) {
      const double t = v[lc.pivot_row];
      if (t == 0.0) continue;
      for (const auto& [row, mult] : lc.mults) v[row] -= mult * t;
    }
    std::vector<double> work(m, 0.0);
    for (std::size_t k = m; k-- > 0;) {
      const URow& ur = urows[order[k]];
      double s = v[ur.pivot_row];
      for (const UEntry& e : ur.entries) s -= e.value * work[e.slot];
      work[order[k]] = s / ur.diag;
    }
    v.swap(work);
  }

  void btran(std::vector<double>& v) const {
    std::vector<double> work(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      const URow& ur = urows[order[k]];
      const double zk = v[order[k]] / ur.diag;
      work[ur.pivot_row] = zk;
      if (zk == 0.0) continue;
      for (const UEntry& e : ur.entries) v[e.slot] -= e.value * zk;
    }
    for (auto it = lcols.rbegin(); it != lcols.rend(); ++it) {
      double acc = work[it->pivot_row];
      for (const auto& [row, mult] : it->mults) acc -= mult * work[row];
      work[it->pivot_row] = acc;
    }
    v.swap(work);
  }
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

// Factorizes `basis` with both implementations and checks they agree: the
// verdict, then (when nonsingular) the pivot sequence and bit-identical
// diagonals and ftran/btran results on basis columns and random vectors.
// `lu` is reused across calls on purpose, so stale workspace from a previous
// factorization would show up as a mismatch.
void expect_matches_reference(LuFactorization& lu, const SparseMatrix& A,
                              const std::vector<std::uint32_t>& basis,
                              util::Rng& rng, const std::string& what) {
  ReferenceLu ref;
  const bool ok = ref.factorize(A, basis, kOpt);
  ASSERT_EQ(lu.factorize(A, basis, kOpt), ok) << what;
  if (!ok) return;
  const std::size_t m = basis.size();
  ASSERT_EQ(lu.order(), ref.order) << what;
  for (std::uint32_t slot = 0; slot < m; ++slot) {
    EXPECT_EQ(lu.pivot_row_of(slot), ref.urows[slot].pivot_row)
        << what << " slot " << slot;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lu.diag_of(slot)),
              std::bit_cast<std::uint64_t>(ref.urows[slot].diag))
        << what << " slot " << slot;
  }
  std::vector<std::vector<double>> rhs;
  for (std::size_t i = 0; i < std::min<std::size_t>(m, 8); ++i) {
    std::vector<double> v;
    A.scatter_col(basis[rng.uniform_index(m)], v);
    rhs.push_back(std::move(v));
  }
  for (int t = 0; t < 4; ++t) {
    std::vector<double> v(m);
    for (double& x : v) x = rng.uniform(-2.0, 2.0);
    rhs.push_back(std::move(v));
  }
  for (const auto& v : rhs) {
    std::vector<double> got = v, want = v;
    lu.ftran(got);
    ref.ftran(want);
    EXPECT_TRUE(same_bits(got, want)) << what << ": ftran differs";
    got = v;
    want = v;
    lu.btran(got);
    ref.btran(want);
    EXPECT_TRUE(same_bits(got, want)) << what << ": btran differs";
  }
}

TEST(LpLu, MatchesFullRescanReferenceOnRandomPools) {
  LuFactorization lu;
  int singular = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 3 + rng.uniform_index(30);
    const std::size_t ncols = m + 10;
    SparseMatrix A = random_pool(rng, m, ncols);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    expect_matches_reference(lu, A, basis, rng,
                             "seed " + std::to_string(seed) + " leading");
    // A random column subset in shuffled slot order: structural fill, and
    // sometimes a singular basis that both versions must reject.
    std::vector<std::uint32_t> cols(ncols);
    for (std::size_t j = 0; j < ncols; ++j)
      cols[j] = static_cast<std::uint32_t>(j);
    for (std::size_t i = ncols; i-- > 1;)
      std::swap(cols[i], cols[rng.uniform_index(i + 1)]);
    cols.resize(m);
    ReferenceLu probe;
    singular += !probe.factorize(A, cols, kOpt);
    expect_matches_reference(lu, A, cols, rng,
                             "seed " + std::to_string(seed) + " shuffled");
  }
  EXPECT_LT(singular, 40);  // most shuffled bases must factorize
}

// The revised engine's standard form of an LP whose right-hand sides are all
// >= 0: structural columns, one slack per inequality, then one artificial
// per >= / = row. This is the column space a WarmStart basis indexes.
SparseMatrix standard_form(const LpProblem& p) {
  const std::size_t n = p.num_variables();
  std::size_t n_slack = 0;
  for (const auto& row : p.rows()) n_slack += row.rel != Relation::kEq;
  std::vector<Triplet> trip;
  std::size_t slack = n, art = n + n_slack;
  std::uint32_t i = 0;
  for (const auto& row : p.rows()) {
    EXPECT_GE(row.rhs, 0.0);
    for (const Term& t : row.terms)
      trip.push_back({i, static_cast<std::uint32_t>(t.var), t.coeff});
    if (row.rel != Relation::kEq)
      trip.push_back({i, static_cast<std::uint32_t>(slack++),
                      row.rel == Relation::kLessEq ? 1.0 : -1.0});
    if (row.rel != Relation::kLessEq)
      trip.push_back({i, static_cast<std::uint32_t>(art++), 1.0});
    ++i;
  }
  return SparseMatrix::from_triplets(p.num_constraints(), art, std::move(trip));
}

TEST(LpLu, MatchesFullRescanReferenceOnGeantWarmBasis) {
  // The optimal basis of a warm GEANT MLU chain: the factorization the
  // serving oracle rebuilds on every re-solve.
  const net::Graph g = net::geant();
  const te::PathSet ps =
      te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace = traffic::wan_trace(g.num_nodes(), 3, 101);
  WarmStart warm;
  LpProblem prob;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    prob = te::build_mlu_lp(ps, trace[t], nullptr, nullptr);
    ASSERT_TRUE(solve_with(prob, SolverOptions{}, &warm).optimal());
  }
  const SparseMatrix A = standard_form(prob);
  std::vector<std::uint32_t> basis = warm.basis();
  ASSERT_EQ(basis.size(), prob.num_constraints());

  util::Rng rng(5);
  LuFactorization lu;
  expect_matches_reference(lu, A, basis, rng, "geant warm basis");

  // Singular on purpose: one structural basis column duplicated into
  // another slot. Both versions must refuse the basis.
  const auto structural = std::find_if(
      basis.begin(), basis.end(), [&](std::uint32_t c) {
        return c < prob.num_variables() && A.col_rows(c).size() > 1;
      });
  ASSERT_NE(structural, basis.end());
  const std::size_t dup = structural == basis.begin() ? 1 : 0;
  basis[dup] = *structural;
  ReferenceLu ref;
  EXPECT_FALSE(ref.factorize(A, basis, kOpt));
  EXPECT_FALSE(lu.factorize(A, basis, kOpt));
}

// --- refactor in the kept pivot order ------------------------------------

// A copy of A with every value scaled by a random factor in [0.5, 2]: the
// same pattern with new numbers, like the next snapshot's LP.
SparseMatrix revalued(const SparseMatrix& A, util::Rng& rng) {
  SparseMatrix B = A;
  for (double& v : B.values()) v *= rng.uniform(0.5, 2.0);
  return B;
}

// FTRAN and BTRAN of `lu` and `ref` agree bit for bit on random vectors.
void expect_same_solves(LuFactorization& lu, LuFactorization& ref,
                        std::size_t m, util::Rng& rng,
                        const std::string& what) {
  for (int t = 0; t < 6; ++t) {
    std::vector<double> v(m);
    for (double& x : v) x = rng.uniform(-2.0, 2.0);
    std::vector<double> got = v, want = v;
    lu.ftran(got);
    ref.ftran(want);
    EXPECT_TRUE(same_bits(got, want)) << what << ": ftran differs";
    got = v;
    want = v;
    lu.btran(got);
    ref.btran(want);
    EXPECT_TRUE(same_bits(got, want)) << what << ": btran differs";
  }
}

using Refactor = LuFactorization::Refactor;

TEST(LpLuRefactor, InOrderMatchesAFreshFactorizationInThatOrder) {
  // A chain of value changes on one pattern: each refactor runs in the
  // order the first factorize() kept. Its numbers must equal those of an
  // LU that never saw the earlier values and factorizes in that order from
  // scratch — the copied-handle case — and those of factorize() whenever
  // it picks the same order (random values never cancel to zero).
  int in_order = 0, same_as_markowitz = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    const std::size_t m = 3 + rng.uniform_index(30);
    const SparseMatrix A0 = random_pool(rng, m, m + 10);
    std::vector<std::uint32_t> basis(m);
    for (std::size_t i = 0; i < m; ++i)
      basis[i] = static_cast<std::uint32_t>(i);
    LuFactorization lu;
    ASSERT_TRUE(lu.factorize(A0, basis, kOpt));
    PivotOrder order = lu.kept_order();
    ASSERT_EQ(order.slot.size(), m);
    for (int round = 0; round < 3; ++round) {
      const std::string what =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const SparseMatrix A = revalued(A0, rng);
      const Refactor how = lu.refactor(A, basis, kOpt);
      ASSERT_TRUE(lu.valid()) << what;
      EXPECT_LT(basis_residual(lu, A, basis), 1e-9) << what;
      if (how != Refactor::kInOrder) {
        // A pivot sank under the threshold: factorize()'s new order is
        // the kept one from here on.
        EXPECT_EQ(how, Refactor::kFallback) << what;
        order = lu.kept_order();
        continue;
      }
      ++in_order;
      EXPECT_EQ(lu.kept_order(), order) << what;
      LuFactorization fresh;
      fresh.keep_order(basis, order);
      ASSERT_EQ(fresh.refactor(A, basis, kOpt), Refactor::kInOrder) << what;
      expect_same_solves(lu, fresh, m, rng, what + " vs fresh");
      LuFactorization full;
      ASSERT_TRUE(full.factorize(A, basis, kOpt));
      if (full.kept_order() == order) {
        ++same_as_markowitz;
        expect_same_solves(lu, full, m, rng, what + " vs factorize");
      }
    }
  }
  EXPECT_GT(in_order, 50);
  EXPECT_GT(same_as_markowitz, 25);
}

TEST(LpLuRefactor, GeantWarmPrimesMatchFactorizeBitForBit) {
  // The serving oracle's case: the optimal basis of one GEANT snapshot,
  // refactorized in its kept order over the next snapshot's matrix. The
  // MLU LP cancels entries to exact zeros, which factorize() drops and the
  // kept pattern keeps; the numbers must still equal factorize()'s.
  const net::Graph g = net::geant();
  const te::PathSet ps =
      te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace = traffic::wan_trace(g.num_nodes(), 24, 101);
  WarmStart warm;
  util::Rng rng(11);
  int compared = 0;
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const LpProblem prob = te::build_mlu_lp(ps, trace[t], nullptr, nullptr);
    if (warm.has_basis()) {
      const SparseMatrix A = standard_form(prob);
      LuFactorization lu;
      lu.keep_order(warm.basis(), warm.order());
      ASSERT_EQ(lu.refactor(A, warm.basis(), kOpt), Refactor::kInOrder);
      LuFactorization full;
      ASSERT_TRUE(full.factorize(A, warm.basis(), kOpt));
      ASSERT_EQ(full.kept_order(), warm.order()) << "t=" << t;
      expect_same_solves(lu, full, warm.basis().size(), rng,
                         "t=" + std::to_string(t));
      ++compared;
    }
    ASSERT_TRUE(solve_with(prob, SolverOptions{}, &warm).optimal());
  }
  EXPECT_EQ(compared, static_cast<int>(trace.size()) - 1);
}

TEST(LpLuRefactor, PivotBelowThresholdFallsBack) {
  // B = [x y] with x = (2, 1), y = (1, 3): factorize() pivots x on row 0.
  // Shrinking that entry to 1e-4 leaves B nonsingular but sinks the kept
  // pivot under the relative threshold (0.01 of its column's 1): the
  // refactor must fall back to factorize(), which pivots x on row 1.
  const auto matrix = [](double x0) {
    return SparseMatrix::from_triplets(
        2, 2, {{0, 0, x0}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 3.0}});
  };
  const std::vector<std::uint32_t> basis{0, 1};
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(matrix(2.0), basis, kOpt));
  ASSERT_EQ(lu.kept_order().slot[0], 0u);
  ASSERT_EQ(lu.kept_order().row[0], 0u);

  const SparseMatrix A = matrix(1e-4);
  EXPECT_EQ(lu.refactor(A, basis, kOpt), Refactor::kFallback);
  ASSERT_TRUE(lu.valid());
  EXPECT_LT(basis_residual(lu, A, basis), 1e-12);
  EXPECT_EQ(lu.kept_order().row[0], 1u);  // factorize()'s new order is kept
  // The fallback's order serves the next refactor.
  EXPECT_EQ(lu.refactor(matrix(2e-4), basis, kOpt), Refactor::kInOrder);
  EXPECT_LT(basis_residual(lu, matrix(2e-4), basis), 1e-12);

  // A copied order fails the same way from a fresh LU.
  LuFactorization fresh;
  fresh.keep_order(basis, PivotOrder{{0, 1}, {0, 1}});
  EXPECT_EQ(fresh.refactor(A, basis, kOpt), Refactor::kFallback);
  EXPECT_LT(basis_residual(fresh, A, basis), 1e-12);
  // So does a malformed one (row 0 pivoted twice).
  fresh.keep_order(basis, PivotOrder{{0, 1}, {0, 0}});
  EXPECT_EQ(fresh.refactor(matrix(2.0), basis, kOpt), Refactor::kFallback);
  EXPECT_LT(basis_residual(fresh, matrix(2.0), basis), 1e-12);
}

TEST(LpLuRefactor, UpdateOrAnotherBasisForcesAFullFactorize) {
  util::Rng rng(77);
  const std::size_t m = 16;
  const SparseMatrix A = random_pool(rng, m, m + 8);
  std::vector<std::uint32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::uint32_t>(i);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(A, basis, kOpt));
  ASSERT_EQ(lu.refactor(A, basis, kOpt), Refactor::kInOrder);

  // A Forrest–Tomlin update drops the order, even when the basis ids come
  // back to the ones it was kept for.
  std::vector<double> v(m, 0.0);
  A.scatter_col(m + 2, v);
  lu.ftran(v, /*save_spike=*/true);
  std::uint32_t slot = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (std::abs(v[i]) > std::abs(v[slot])) slot = static_cast<std::uint32_t>(i);
  ASSERT_TRUE(lu.update(slot, v[slot]));
  EXPECT_TRUE(lu.kept_order().slot.empty());
  EXPECT_EQ(lu.refactor(A, basis, kOpt), Refactor::kFull);
  EXPECT_LT(basis_residual(lu, A, basis), 1e-9);

  // Other basis ids than the order was kept for.
  std::vector<std::uint32_t> other = basis;
  other[slot] = static_cast<std::uint32_t>(m + 2);
  EXPECT_EQ(lu.refactor(A, other, kOpt), Refactor::kFull);
  EXPECT_LT(basis_residual(lu, A, other), 1e-9);
  EXPECT_EQ(lu.refactor(A, other, kOpt), Refactor::kInOrder);
  // A dropped order.
  lu.drop_order();
  EXPECT_EQ(lu.refactor(A, other, kOpt), Refactor::kFull);
}

TEST(LpLuRefactor, PatternChangeUnderTheSameBasisFallsBack) {
  // Same basis ids, but a basis column gained an entry: the kept patterns
  // no longer describe B, so the refactor must not run in them.
  util::Rng rng(5);
  const std::size_t m = 12;
  const SparseMatrix A = random_pool(rng, m, m + 4);
  std::vector<std::uint32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::uint32_t>(i);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(A, basis, kOpt));

  std::vector<Triplet> trip;
  bool added = false;
  for (std::uint32_t j = 0; j < A.cols(); ++j) {
    const auto rows = A.col_rows(j);
    const auto vals = A.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k)
      trip.push_back({rows[k], j, vals[k]});
    if (!added && j < m && rows.size() < m) {
      std::uint32_t r = 0;  // the first row column j lacks
      while (std::find(rows.begin(), rows.end(), r) != rows.end()) ++r;
      trip.push_back({r, j, 0.25});
      added = true;
    }
  }
  ASSERT_TRUE(added);
  const SparseMatrix grown =
      SparseMatrix::from_triplets(m, A.cols(), std::move(trip));
  EXPECT_EQ(lu.refactor(grown, basis, kOpt), Refactor::kFallback);
  EXPECT_LT(basis_residual(lu, grown, basis), 1e-9);
  // The fallback keeps the grown pattern for the next refactor.
  EXPECT_EQ(lu.refactor(grown, basis, kOpt), Refactor::kInOrder);
  // And the old pattern is a change again.
  EXPECT_EQ(lu.refactor(A, basis, kOpt), Refactor::kFallback);
}

}  // namespace
}  // namespace figret::lp
