// The linear-programming model shared by every LP call site: the problem
// (LpProblem, Term, Relation), solve budgets and tolerances (SolveOptions),
// and the typed result (Status, LpResult).
//
// The paper's baselines (Omniscient TE, Demand-prediction TE, Google's
// Desensitization/"Hedging" TE, Oblivious TE, COPE) all reduce to LPs that
// the authors solved with Gurobi. Here they are solved by the sparse revised
// simplex of lp/revised_simplex.h, through lp::solve_with.
//
// Model scope:
//  * minimization only (callers negate for max);
//  * all variables have lower bound 0 and an optional finite upper bound, so
//    a sensitivity cap `r_p <= F(s,d) * C_p` is a variable bound, not a row;
//  * rows are <=, = or >= with any sign of right-hand side.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace figret::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Relation { kLessEq, kEq, kGreaterEq };

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The wall-clock budget (SolveOptions::time_limit_seconds) expired. A
  /// typed partial verdict, not an exception: the basis reached so far is
  /// discarded and `x` stays empty, but callers can distinguish "ran out of
  /// time" from "the LP is bad" and retry with a fresh budget.
  kDeadline,
  /// The basis went numerically singular and could not be recovered (the LU
  /// refactorization found no usable pivot). Unlike kIterationLimit or
  /// kDeadline, a larger budget cannot help: the same LP reaches the same
  /// verdict, so callers must not retry it.
  kNumerical,
};

/// Number of Status values, for per-reason counter arrays.
inline constexpr std::size_t kStatusCount = 6;

/// Human-readable status name, for error messages surfaced by callers.
const char* to_string(Status status) noexcept;

/// Basic values driven into (-clamp, 0) by cancellation in pivot updates are
/// numerical noise, not infeasibility: the revised engine and the dense test
/// oracle both snap them to zero. The clamp is keyed to the feasibility
/// tolerance (four decades below it, so values it absorbs could never count
/// as violations), with a floor near machine precision so a very tight
/// tolerance cannot disable the cleanup.
constexpr double beta_clamp(double feasibility_tolerance) noexcept {
  const double scaled = 1e-4 * feasibility_tolerance;
  return scaled > 1e-13 ? scaled : 1e-13;
}

/// One nonzero coefficient of a constraint row.
struct Term {
  std::size_t var = 0;
  double coeff = 0.0;
};

/// LP in the form: minimize c'x subject to rows, 0 <= x <= ub.
class LpProblem {
 public:
  /// Adds a variable with objective coefficient `obj` and upper bound `upper`
  /// (kInfinity for unbounded above). Returns the variable index.
  std::size_t add_variable(double obj = 0.0, double upper = kInfinity);

  /// Adds a constraint `sum(terms) rel rhs`. Duplicate vars in `terms` are
  /// accumulated.
  void add_constraint(std::vector<Term> terms, Relation rel, double rhs);

  /// Appends the constraint `terms rel rhs` with an empty term list and
  /// returns that list for the caller to fill. After clear() it reuses the
  /// old row's storage, so rebuilding a same-shaped LP allocates nothing.
  /// Unlike add_constraint it does not check the variable ids: every id the
  /// caller adds must be below num_variables().
  std::vector<Term>& add_row(Relation rel, double rhs);

  /// Removes every variable and constraint but keeps their storage for the
  /// next build (see add_row).
  void clear() noexcept;

  void set_objective(std::size_t var, double coeff);
  void set_upper_bound(std::size_t var, double upper);
  /// Replaces the right-hand side of constraint `row`, keeping its terms and
  /// relation. This is the RHS-only perturbation entry point (failure-masked
  /// capacities, tightened budgets) that warm-started resolves are built for.
  void set_rhs(std::size_t row, double rhs);

  std::size_t num_variables() const noexcept { return obj_.size(); }
  std::size_t num_constraints() const noexcept { return num_rows_; }

  const std::vector<double>& objective() const noexcept { return obj_; }
  const std::vector<double>& upper_bounds() const noexcept { return ub_; }

  struct Row {
    std::vector<Term> terms;
    Relation rel = Relation::kLessEq;
    double rhs = 0.0;
  };
  std::span<const Row> rows() const noexcept {
    return {rows_.data(), num_rows_};
  }

 private:
  std::vector<double> obj_;
  std::vector<double> ub_;
  std::vector<Row> rows_;  // [0, num_rows_) live; the rest is spare storage
  std::size_t num_rows_ = 0;
};

struct SolveOptions {
  /// Hard pivot cap; kIterationLimit is returned when exhausted.
  std::size_t max_iterations = 200000;
  /// Pivots before the pricing rule hands over to Bland's rule (the
  /// anti-cycling backstop).
  std::size_t bland_after = 20000;
  double pivot_tolerance = 1e-9;
  double feasibility_tolerance = 1e-7;
  /// Wall-clock budget per solve attempt. 0 disables the deadline. The clock
  /// is sampled every few dozen pivots, so overshoot is bounded by a handful
  /// of pivot times. A *negative* budget means "already expired": the solve
  /// returns kDeadline before its first pivot — the deterministic
  /// fault-injection hook used by te/chaos.h to simulate solver overruns.
  double time_limit_seconds = 0.0;
};

struct LpResult {
  Status status = Status::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;
  /// Dual value per constraint row, populated only when optimal. Sign
  /// convention for the min problem: kLessEq rows have y <= 0, kGreaterEq
  /// rows y >= 0, kEq rows free; the reduced cost c_j - y'a_j is >= 0 for
  /// variables at their lower bound and <= 0 at their upper bound. Together
  /// with `x` this forms the strong-duality certificate that
  /// lp/certificates.h verifies.
  std::vector<double> y;
  std::size_t iterations = 0;

  bool optimal() const noexcept { return status == Status::kOptimal; }
};

}  // namespace figret::lp
