#include "lp/certificates.h"

#include <algorithm>
#include <cmath>

namespace figret::lp {

CertificateReport check_certificate(const LpProblem& problem,
                                    const LpResult& result) {
  std::vector<double> reduced_costs;
  return check_certificate(problem, result, reduced_costs);
}

CertificateReport check_certificate(const LpProblem& problem,
                                    const LpResult& result,
                                    std::vector<double>& reduced_costs) {
  CertificateReport report;
  const std::size_t n = problem.num_variables();
  const std::size_t m = problem.num_constraints();
  if (result.status != Status::kOptimal || result.x.size() != n ||
      result.y.size() != m)
    return report;
  report.checked = true;

  const auto& x = result.x;
  const auto& y = result.y;
  const auto& c = problem.objective();
  const auto& ub = problem.upper_bounds();

  // Reduced costs d = c - A'y, accumulated row by row.
  std::vector<double>& d = reduced_costs;
  d.assign(c.begin(), c.end());
  double dual_obj = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto& row = problem.rows()[i];
    double activity = 0.0;
    for (const Term& t : row.terms) {
      activity += t.coeff * x[t.var];
      d[t.var] -= y[i] * t.coeff;
    }
    const double slack = activity - row.rhs;
    const double scale = 1.0 + std::abs(row.rhs);
    switch (row.rel) {
      case Relation::kLessEq:
        report.primal_violation =
            std::max(report.primal_violation, slack / scale);
        report.dual_violation = std::max(report.dual_violation, y[i]);
        break;
      case Relation::kGreaterEq:
        report.primal_violation =
            std::max(report.primal_violation, -slack / scale);
        report.dual_violation = std::max(report.dual_violation, -y[i]);
        break;
      case Relation::kEq:
        report.primal_violation =
            std::max(report.primal_violation, std::abs(slack) / scale);
        break;
    }
    // y_i != 0 only on a tight row (inequalities; equalities always tight).
    if (row.rel != Relation::kEq)
      report.slackness_violation =
          std::max(report.slackness_violation, std::abs(y[i] * slack) / scale);
    dual_obj += y[i] * row.rhs;
  }

  for (std::size_t j = 0; j < n; ++j) {
    const double scale = 1.0 + (ub[j] < kInfinity ? ub[j] : 0.0);
    report.primal_violation = std::max(report.primal_violation, -x[j] / scale);
    if (ub[j] < kInfinity) {
      report.primal_violation =
          std::max(report.primal_violation, (x[j] - ub[j]) / scale);
      // Negative reduced cost is priced into the dual objective via the
      // upper-bound dual; it demands x_j parked at the bound.
      dual_obj += ub[j] * std::min(0.0, d[j]);
      report.slackness_violation = std::max(
          report.slackness_violation,
          std::max(0.0, -d[j]) * std::max(0.0, ub[j] - x[j]) / scale);
    } else {
      // No finite bound to absorb a negative reduced cost: dual infeasible.
      report.dual_violation = std::max(report.dual_violation, -d[j]);
    }
    // d_j > 0 demands x_j = 0.
    report.slackness_violation =
        std::max(report.slackness_violation,
                 std::max(0.0, d[j]) * std::max(0.0, x[j]) / scale);
  }

  double primal_obj = 0.0;
  for (std::size_t j = 0; j < n; ++j) primal_obj += c[j] * x[j];
  report.duality_gap =
      std::abs(primal_obj - dual_obj) / (1.0 + std::abs(primal_obj));
  return report;
}

}  // namespace figret::lp
