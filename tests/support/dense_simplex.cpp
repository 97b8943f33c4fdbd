#include "support/dense_simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace figret::lp {
namespace {

// Dense bounded-variable two-phase simplex working state.
//
// Invariants maintained between pivots:
//  * every nonbasic variable sits at value 0 (variables parked at their upper
//    bound are stored "flipped": x = ub - x');
//  * b_ >= 0 (primal feasibility of the working basis);
//  * cost_[j] is the reduced cost of column j; cost_const_ accumulates the
//    objective contribution of flipped columns.
class Simplex {
 public:
  Simplex(const LpProblem& p, const SolveOptions& opt)
      : opt_(opt), clamp_(beta_clamp(opt.feasibility_tolerance)) {
    const std::size_t n = p.num_variables();
    const std::size_t m = p.num_constraints();
    n_struct_ = n;

    // Column layout: [0, n) structural, then one slack/surplus per inequality,
    // then one artificial per >=/= row (phase 1 only).
    std::size_t n_slack = 0;
    for (const auto& row : p.rows())
      if (row.rel != Relation::kEq) ++n_slack;

    // Normalize rows to rhs >= 0 by negation (flips the relation).
    struct NormRow {
      std::vector<Term> terms;
      Relation rel;
      double rhs;
    };
    std::vector<NormRow> rows;
    rows.reserve(m);
    for (const auto& row : p.rows()) {
      NormRow nr{row.terms, row.rel, row.rhs};
      if (nr.rhs < 0.0) {
        nr.rhs = -nr.rhs;
        for (auto& t : nr.terms) t.coeff = -t.coeff;
        if (nr.rel == Relation::kLessEq)
          nr.rel = Relation::kGreaterEq;
        else if (nr.rel == Relation::kGreaterEq)
          nr.rel = Relation::kLessEq;
      }
      rows.push_back(std::move(nr));
    }

    std::size_t n_art = 0;
    for (const auto& row : rows)
      if (row.rel != Relation::kLessEq) ++n_art;

    n_total_ = n + n_slack + n_art;
    art_begin_ = n + n_slack;
    m_ = m;

    tab_.assign(m_ * n_total_, 0.0);
    b_.assign(m_, 0.0);
    basis_.assign(m_, 0);
    ub_.assign(n_total_, kInfinity);
    for (std::size_t j = 0; j < n; ++j) ub_[j] = p.upper_bounds()[j];
    flipped_.assign(n_total_, false);
    in_basis_.assign(n_total_, false);

    std::size_t slack = n;
    std::size_t art = art_begin_;
    dual_col_.assign(m_, 0);
    negated_.assign(m_, false);
    for (std::size_t i = 0; i < m_; ++i) {
      const auto& row = rows[i];
      for (const auto& t : row.terms) at(i, t.var) += t.coeff;
      b_[i] = row.rhs;
      negated_[i] = p.rows()[i].rhs < 0.0;  // normalization negated this row
      switch (row.rel) {
        case Relation::kLessEq:
          at(i, slack) = 1.0;
          dual_col_[i] = slack;  // the +e_i unit column for dual recovery
          set_basis(i, slack++);
          break;
        case Relation::kGreaterEq:
          at(i, slack++) = -1.0;
          at(i, art) = 1.0;
          dual_col_[i] = art;
          set_basis(i, art++);
          break;
        case Relation::kEq:
          at(i, art) = 1.0;
          dual_col_[i] = art;
          set_basis(i, art++);
          break;
      }
    }
    obj_ = p.objective();
    banned_from_ = n_total_;
  }

  LpResult run() {
    LpResult result;
    start_ = std::chrono::steady_clock::now();
    if (opt_.time_limit_seconds < 0.0) {
      // Pre-expired budget: the deterministic overrun-injection hook.
      result.status = Status::kDeadline;
      return result;
    }

    // Phase 1: minimize the sum of artificial variables.
    if (art_begin_ < n_total_) {
      cost_.assign(n_total_, 0.0);
      cost_const_ = 0.0;
      for (std::size_t j = art_begin_; j < n_total_; ++j) cost_[j] = 1.0;
      reduce_cost_row();
      const Status st = iterate(/*phase1=*/true);
      if (st != Status::kOptimal) {
        result.status = st == Status::kUnbounded ? Status::kInfeasible : st;
        result.iterations = iterations_;
        return result;
      }
      if (objective_value() > 1e-6) {
        result.status = Status::kInfeasible;
        result.iterations = iterations_;
        return result;
      }
      expel_artificials();
      banned_from_ = art_begin_;
    }

    // Phase 2: minimize the real objective.
    cost_.assign(n_total_, 0.0);
    cost_const_ = 0.0;
    for (std::size_t j = 0; j < n_struct_; ++j) {
      if (flipped_[j]) {
        cost_[j] = -obj_[j];
        cost_const_ += obj_[j] * ub_[j];
      } else {
        cost_[j] = obj_[j];
      }
    }
    reduce_cost_row();
    const Status st = iterate(/*phase1=*/false);
    result.status = st;
    result.iterations = iterations_;
    if (st != Status::kOptimal) return result;

    result.objective = objective_value();
    result.x.assign(n_struct_, 0.0);
    std::vector<double> value(n_total_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) value[basis_[i]] = b_[i];
    for (std::size_t j = 0; j < n_struct_; ++j)
      result.x[j] = flipped_[j] ? ub_[j] - value[j] : value[j];

    // Duals from the final reduced-cost row: each row's +e_i unit column
    // (slack or artificial, never flipped — both have infinite upper bound)
    // carries reduced cost 0 - y_i; undo the rhs-sign normalization.
    result.y.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double yi = -cost_[dual_col_[i]];
      result.y[i] = negated_[i] ? -yi : yi;
    }
    return result;
  }

 private:
  double& at(std::size_t r, std::size_t c) { return tab_[r * n_total_ + c]; }
  double at(std::size_t r, std::size_t c) const {
    return tab_[r * n_total_ + c];
  }

  void set_basis(std::size_t row, std::size_t col) {
    basis_[row] = col;
    in_basis_[col] = true;
  }

  // Objective value of the current basis, tracked incrementally in z_.
  double objective_value() const { return z_; }

  void reduce_cost_row() {
    // Make reduced costs of basic columns zero by subtracting multiples of
    // their rows, and accumulate the objective value z_.
    z_ = cost_const_;
    for (std::size_t i = 0; i < m_; ++i) {
      const double c = cost_[basis_[i]];
      if (c == 0.0) continue;
      for (std::size_t j = 0; j < n_total_; ++j) cost_[j] -= c * at(i, j);
      z_ += c * b_[i];
    }
  }

  // Flips column j (substitute x_j = ub_j - x'_j). Requires finite ub_[j].
  void flip_column(std::size_t j) {
    const double u = ub_[j];
    for (std::size_t i = 0; i < m_; ++i) {
      const double a = at(i, j);
      if (a != 0.0) {
        b_[i] -= a * u;
        at(i, j) = -a;
      }
    }
    z_ += cost_[j] * u;
    cost_[j] = -cost_[j];
    flipped_[j] = !flipped_[j];
  }

  // One full pricing + ratio-test + pivot step. Returns true if progress was
  // made, false when optimal.
  Status iterate(bool phase1) {
    for (;;) {
      if (iterations_ >= opt_.max_iterations) return Status::kIterationLimit;
      if (deadline_exceeded()) return Status::kDeadline;
      const bool bland = iterations_ >= opt_.bland_after;

      // Price: most negative reduced cost (Dantzig) or first (Bland).
      std::size_t enter = n_total_;
      double best = -opt_.pivot_tolerance;
      const std::size_t limit = phase1 ? n_total_ : banned_from_;
      for (std::size_t j = 0; j < limit; ++j) {
        if (in_basis_[j]) continue;
        const double d = cost_[j];
        if (d < best) {
          best = d;
          enter = j;
          if (bland) break;
        }
      }
      if (enter == n_total_) return Status::kOptimal;

      // Ratio test over three cases: basic hits 0 (pivot), basic hits its
      // upper bound (flip-then-pivot), entering hits its own bound (flip).
      double t_limit = ub_[enter];
      std::size_t leave_row = m_;
      bool leave_at_upper = false;
      for (std::size_t i = 0; i < m_; ++i) {
        const double a = at(i, enter);
        if (a > opt_.pivot_tolerance) {
          const double t = b_[i] / a;
          if (t < t_limit - 1e-12 ||
              (t < t_limit + 1e-12 && leave_row != m_ &&
               basis_[i] < basis_[leave_row])) {
            t_limit = t;
            leave_row = i;
            leave_at_upper = false;
          }
        } else if (a < -opt_.pivot_tolerance) {
          const double u = ub_[basis_[i]];
          if (u < kInfinity) {
            const double t = (u - b_[i]) / (-a);
            if (t < t_limit - 1e-12 ||
                (t < t_limit + 1e-12 && leave_row != m_ &&
                 basis_[i] < basis_[leave_row])) {
              t_limit = t;
              leave_row = i;
              leave_at_upper = true;
            }
          }
        }
      }

      if (leave_row == m_) {
        if (ub_[enter] == kInfinity) return Status::kUnbounded;
        // Entering variable travels to its own upper bound: bound flip only.
        flip_column(enter);
        ++iterations_;
        continue;
      }

      if (leave_at_upper) {
        // The leaving basic variable exits at its upper bound: flip it first
        // so that it exits at zero, then pivot (pivot element is negative).
        const std::size_t q = basis_[leave_row];
        flip_column(q);
      }
      pivot(leave_row, enter);
      ++iterations_;
    }
  }

  void pivot(std::size_t r, std::size_t c) {
    const double piv = at(r, c);
    const double inv = 1.0 / piv;
    double* prow = &tab_[r * n_total_];
    for (std::size_t j = 0; j < n_total_; ++j) prow[j] *= inv;
    b_[r] *= inv;
    // Clean tiny residue on the pivot column for numerical hygiene.
    prow[c] = 1.0;

    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double factor = at(i, c);
      if (factor == 0.0) continue;
      double* irow = &tab_[i * n_total_];
      for (std::size_t j = 0; j < n_total_; ++j) irow[j] -= factor * prow[j];
      irow[c] = 0.0;
      b_[i] -= factor * b_[r];
      if (b_[i] < 0.0 && b_[i] > -clamp_) b_[i] = 0.0;
    }
    const double cfac = cost_[c];
    if (cfac != 0.0) {
      for (std::size_t j = 0; j < n_total_; ++j) cost_[j] -= cfac * prow[j];
      cost_[c] = 0.0;
      z_ += cfac * b_[r];
    }

    in_basis_[basis_[r]] = false;
    set_basis(r, c);
    if (b_[r] < 0.0 && b_[r] > -clamp_) b_[r] = 0.0;
  }

  // Samples the wall clock every 64 pivots; overshoot past the budget is
  // bounded by one sampling stride.
  bool deadline_exceeded() {
    if (opt_.time_limit_seconds <= 0.0) return false;
    if ((++deadline_probe_ & 63u) != 0) return false;
    const std::chrono::duration<double> spent =
        std::chrono::steady_clock::now() - start_;
    return spent.count() > opt_.time_limit_seconds;
  }

  // After phase 1, pivot any artificial still in the basis (necessarily at
  // value ~0) out of it, or record that its row is redundant.
  void expel_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < art_begin_) continue;
      std::size_t pivot_col = n_total_;
      for (std::size_t j = 0; j < art_begin_; ++j) {
        if (in_basis_[j]) continue;
        if (std::abs(at(i, j)) > 1e-7) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col != n_total_) {
        pivot(i, pivot_col);
      } else {
        // Redundant row: neutralize it so it can never constrain phase 2.
        for (std::size_t j = 0; j < n_total_; ++j) at(i, j) = 0.0;
        at(i, basis_[i]) = 1.0;
        b_[i] = 0.0;
      }
    }
  }

  SolveOptions opt_;
  double clamp_ = 0.0;  // beta_clamp(opt_.feasibility_tolerance)
  std::size_t n_struct_ = 0;
  std::size_t n_total_ = 0;
  std::size_t art_begin_ = 0;
  // Columns >= banned_from_ may not enter the basis in phase 2 (artificials).
  std::size_t banned_from_ = 0;
  std::size_t m_ = 0;
  std::vector<double> tab_;
  std::vector<double> b_;
  std::vector<double> cost_;
  std::vector<double> obj_;
  std::vector<std::size_t> basis_;
  std::vector<std::size_t> dual_col_;
  std::vector<bool> negated_;
  std::vector<double> ub_;
  std::vector<bool> flipped_;
  std::vector<bool> in_basis_;
  double cost_const_ = 0.0;
  double z_ = 0.0;
  std::size_t iterations_ = 0;
  std::chrono::steady_clock::time_point start_{};
  std::uint32_t deadline_probe_ = 0;
};

}  // namespace

LpResult solve(const LpProblem& problem, const SolveOptions& options) {
  Simplex simplex(problem, options);
  LpResult result = simplex.run();
  if (result.optimal()) {
    // Clamp structural values into their box to strip pivot round-off.
    for (std::size_t j = 0; j < result.x.size(); ++j) {
      result.x[j] = std::max(result.x[j], 0.0);
      const double ub = problem.upper_bounds()[j];
      if (ub < kInfinity) result.x[j] = std::min(result.x[j], ub);
    }
  }
  return result;
}

}  // namespace figret::lp
