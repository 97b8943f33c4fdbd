// Hose-robust TE by cutting planes: demand-oblivious routing (Applegate &
// Cohen [9]) and COPE (Wang et al. [49]) are two configurations of one
// solver.
//
// Both minimize MLU over a list of "U-row" demands while bounding the
// worst case over the hose polytope (per-node ingress/egress volume bounded
// by attached capacity), alternating between
//   master:    min U  s.t.  MLU(R, D)  <= U         for every U-row demand D
//                           MLU(R, D') <= envelope  for every envelope row D'
//   adversary: for the incumbent R, find the demand in the polytope that
//              maximizes each edge's utilization (a small transportation LP
//              per edge) and add the most violating demand as a new cut.
//
// * Oblivious (`penalty_ratio == 0`): the U-rows start with a uniform
//   hose-feasible demand and every cut joins them; there are no envelope
//   rows. Converged once the adversary's worst case meets the master bound U.
// * COPE (`penalty_ratio` = beta >= 1): the oblivious solve runs first and
//   gives r_obl. The U-rows are then the predicted set (the most recent
//   training demands plus their element-wise peak), every cut becomes an
//   envelope row with the constant bound beta * r_obl, and the run has
//   converged once the adversary's worst case meets beta * r_obl.
//
// This converges on the path-restricted routing space; a time budget
// mirrors the paper's Table 2 "Infeasible" entries for large topologies.
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
  /// Cap on cutting-plane rounds, per run (COPE runs two: oblivious, then
  /// its own).
  std::size_t max_rounds = 40;
  /// Convergence: adversary violation within (1 + tol) of the target.
  double tolerance = 1e-3;
  /// Wall-clock budget in seconds for the whole solve (COPE's two runs share
  /// one deadline taken at entry); exceeded => not converged ("Infeasible").
  double time_budget_seconds = 120.0;
  /// LP engine for the master and adversary solves. kIterationLimit or
  /// kNumerical from any master solve is an error (never a silent fallback
  /// to the stale incumbent).
  lp::SolverOptions solver;
  /// 0 selects oblivious routing. beta >= 1 selects COPE: hose worst-case
  /// MLU <= beta x the oblivious optimum. Anything else is rejected.
  double penalty_ratio = 0.0;
  /// COPE only: number of most recent training snapshots forming the
  /// predicted set (their element-wise peak is added as an extra member).
  std::size_t predicted_set_size = 12;
};

struct HoseRobustResult {
  TeConfig config;
  /// Master objective of the last solved round: the bound U over the U-row
  /// demands (COPE: the MLU over the predicted set).
  double master_mlu = 0.0;
  /// Worst-case MLU over the hose polytope achieved by `config`.
  double worst_mlu = 0.0;
  /// r_obl, the oblivious run's worst case (oblivious mode: = worst_mlu).
  double oblivious_mlu = 0.0;
  bool converged = false;
  std::size_t rounds = 0;
};

/// Solves oblivious routing or COPE on the candidate-path space. `train` is
/// read only in COPE mode. Throws std::invalid_argument on a penalty ratio
/// that is not 0 and not a finite value >= 1, and in COPE mode on a zero
/// predicted_set_size or an empty training trace.
HoseRobustResult solve_hose_robust(const PathSet& ps,
                                   const HoseRobustOptions& options,
                                   const traffic::TrafficTrace& train = {});

/// Worst-case MLU of a *given* configuration over the hose polytope
/// (exact: per-edge transportation LPs). A test oracle for the solver's
/// reported worst case. `solver` selects the LP engine for the per-edge
/// adversary solves (nullptr = lp::SolverOptions{}).
double worst_case_mlu_hose(const PathSet& ps, const TeConfig& config,
                           double hose_scale = 1.0,
                           const lp::SolverOptions* solver = nullptr);

/// Scheme adapter: fit() runs the cutting-plane solve once; advise() returns
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
