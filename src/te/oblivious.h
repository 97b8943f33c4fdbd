// Hose-robust TE as one compact LP: demand-oblivious routing (Applegate &
// Cohen [9]) and COPE (Wang et al. [49]) are two configurations of one
// solver.
//
// For a routing x, edge e's worst-case utilization over the hose polytope
// (egress <= out_s, ingress <= in_d; te/hose.h) is a transportation LP. Its
// dual, min sum_s out_s pi_e(s) + sum_d in_d lambda_e(d) subject to
// pi_e(s) + lambda_e(d) >= sum_{p in P_sd, e in p} x_p / c_e for each pair
// on e, substitutes into the routing LP: one LP, no cut loop.
//
// * Oblivious (`penalty_ratio == 0`): min r subject to sum_{p in P_sd} x_p
//   = 1 per pair, the dual rows, and each edge's dual sum <= r. r is the
//   optimal hose worst-case MLU of the candidate-path space.
// * COPE (`penalty_ratio` = beta >= 1): the oblivious LP first gives r_obl.
//   Then min U over the same rows with each edge's dual sum <= beta * r_obl,
//   plus sum_p D_sd x_p <= U c_e for each edge, where D is the element-wise
//   peak of the predicted set (the most recent training demands), whose
//   rows imply every member's. The two solves share one deadline.
//
// The wall-clock budget mirrors the paper's Table 2 "Infeasible" entries:
// a run that exceeds it reports lp::Status::kDeadline.
#pragma once

#include <cstddef>

#include "lp/revised_simplex.h"
#include "te/scheme.h"

namespace figret::te {

/// The COPE penalty ratio used where a caller does not pick its own.
inline constexpr double kDefaultCopePenaltyRatio = 1.5;

struct HoseRobustOptions {
  /// Hose bounds are `hose_scale` x the attached arc capacity per node.
  double hose_scale = 1.0;
  /// Wall-clock budget in seconds for the whole call (COPE's two solves
  /// share one deadline taken at entry). Each solve gets what is left as
  /// its LP time limit; a budget of 0 or less returns kDeadline at once.
  double time_budget_seconds = 120.0;
  /// LP engine for the compact LP (its time limit is replaced by what is
  /// left of the budget) and the worst-case check. kIterationLimit,
  /// kNumerical or kUnbounded from the compact LP is an error.
  lp::SolverOptions solver;
  /// 0 selects oblivious routing. beta >= 1 selects COPE: hose worst-case
  /// MLU <= beta x the oblivious optimum. Anything else is rejected.
  double penalty_ratio = 0.0;
  /// COPE only: number of most recent training snapshots forming the
  /// predicted set.
  std::size_t predicted_set_size = 12;
};

struct HoseRobustResult {
  /// The solved routing. A stage whose LP is not optimal keeps the uniform
  /// config (oblivious) or the oblivious result (COPE).
  TeConfig config;
  /// kOptimal, kDeadline (the budget ran out), or kInfeasible (a COPE
  /// envelope too tight to meet, e.g. at beta = 1). A non-optimal oblivious
  /// stage ends a COPE call with that stage's status.
  lp::Status status = lp::Status::kDeadline;
  /// Objective of the LP that gave `config`: r (oblivious) or U, the MLU
  /// of the predicted set's peak (COPE); 0 for the uniform fallback.
  double master_mlu = 0.0;
  /// worst_case_mlu_hose of `config` (oblivious optimal: equals r).
  double worst_mlu = 0.0;
  /// r_obl, the oblivious stage's worst case (oblivious mode: = worst_mlu).
  double oblivious_mlu = 0.0;
};

/// Solves oblivious routing or COPE on the candidate-path space. `train` is
/// read only in COPE mode. Throws std::invalid_argument on a penalty ratio
/// that is not 0 and not a finite value >= 1, and in COPE mode on a zero
/// predicted_set_size, an empty training trace, or a trace or snapshot whose
/// node count differs from the path set's; all before any LP work.
HoseRobustResult solve_hose_robust(const PathSet& ps,
                                   const HoseRobustOptions& options,
                                   const traffic::TrafficTrace& train = {});

/// Worst-case MLU of a *given* configuration over the hose polytope
/// (exact: per-edge transportation LPs), independent of the compact LP; it
/// sets the solver's reported worst case. `solver` selects the LP engine
/// for the per-edge adversary solves (nullptr = lp::SolverOptions{}).
double worst_case_mlu_hose(const PathSet& ps, const TeConfig& config,
                           double hose_scale = 1.0,
                           const lp::SolverOptions* solver = nullptr);

/// Scheme adapter: fit() runs solve_hose_robust once; advise() returns
/// the fixed configuration (neither scheme adapts to the history it is
/// served).
class HoseRobustTe final : public TeScheme {
 public:
  HoseRobustTe(const PathSet& ps, const HoseRobustOptions& opt = {});
  std::string name() const override {
    return opt_.penalty_ratio > 0.0 ? "COPE" : "Oblivious";
  }
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix>) override;

  const HoseRobustResult& result() const noexcept { return result_; }

 private:
  const PathSet* ps_;
  HoseRobustOptions opt_;
  HoseRobustResult result_;
};

}  // namespace figret::te
