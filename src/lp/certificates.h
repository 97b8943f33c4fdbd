// Strong-duality certificate verification for LP solutions.
//
// A kOptimal LpResult carries the primal point `x` and the row duals `y`.
// Optimality of (x, y) for  min c'x  s.t. rows, 0 <= x <= ub  is certified by
//  * primal feasibility   (rows satisfied, x inside its box),
//  * dual feasibility     (<= rows: y <= 0, >= rows: y >= 0, = rows free;
//                          reduced cost d = c - A'y >= 0 at lower bound and
//                          <= 0 only where the upper bound is finite),
//  * complementary slackness (y_i != 0 only on tight rows; d_j > 0 only at
//                          x_j = 0; d_j < 0 only at x_j = ub_j),
//  * zero duality gap     (c'x == y'b + sum_j ub_j * min(0, d_j)).
// Any point passing all four is a proven optimum — independent of which
// engine produced it, which is what makes this the oracle for the LP test
// battery (tests/test_lp_certificates.cpp).
#pragma once

#include <vector>

#include "lp/problem.h"

namespace figret::lp {

struct CertificateReport {
  bool checked = false;  // false when result is not optimal or sizes mismatch
  double primal_violation = 0.0;
  double dual_violation = 0.0;
  double slackness_violation = 0.0;
  double duality_gap = 0.0;  // relative to 1 + |objective|

  bool ok(double tol = 1e-6) const noexcept {
    return checked && primal_violation <= tol && dual_violation <= tol &&
           slackness_violation <= tol && duality_gap <= tol;
  }
};

/// Verifies the strong-duality certificate of an optimal solve.
CertificateReport check_certificate(const LpProblem& problem,
                                    const LpResult& result);

/// The same check with caller-owned storage for the reduced costs: repeated
/// checks allocate nothing once `reduced_costs` has num_variables() capacity.
CertificateReport check_certificate(const LpProblem& problem,
                                    const LpResult& result,
                                    std::vector<double>& reduced_costs);

}  // namespace figret::lp
