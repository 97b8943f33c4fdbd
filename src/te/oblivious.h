// Demand-oblivious TE (Applegate & Cohen [9]) via cutting planes.
//
// The oblivious configuration minimizes the worst-case MLU over an entire
// demand polytope. We use the hose polytope (per-node ingress/egress volume
// bounded by attached capacity) and alternate between
//   master:    min U  s.t.  MLU(R, D) <= U  for every cut demand D
//   adversary: for the incumbent R, find the demand in the polytope that
//              maximizes each edge's utilization (a small transportation LP
//              per edge) and add the most violating demand as a new cut.
// This converges to the oblivious optimum on the path-restricted routing
// space; a time budget mirrors the paper's Table 2 "Infeasible" entries for
// large topologies.
#pragma once

#include <cstddef>

#include "lp/revised_simplex.h"
#include "te/scheme.h"

namespace figret::te {

struct ObliviousOptions {
  /// Hose bounds are `hose_scale` x the attached arc capacity per node.
  double hose_scale = 1.0;
  std::size_t max_rounds = 40;
  /// Convergence: adversary violation within (1 + tol) of the master bound.
  double tolerance = 1e-3;
  /// Wall-clock budget in seconds; exceeded => not converged ("Infeasible").
  double time_budget_seconds = 120.0;
  /// LP engine for the master solves. kIterationLimit or kNumerical from any
  /// master solve is an error (never a silent fallback to the stale
  /// incumbent).
  lp::SolverOptions solver;
};

struct ObliviousResult {
  TeConfig config;
  /// Worst-case MLU over the hose polytope achieved by `config`.
  double worst_mlu = 0.0;
  bool converged = false;
  std::size_t rounds = 0;
};

/// Solves the oblivious-routing problem on the candidate-path space.
ObliviousResult solve_oblivious(const PathSet& ps,
                                const ObliviousOptions& options = {});

/// Worst-case MLU of a *given* configuration over the hose polytope
/// (exact: per-edge transportation LPs). Used by tests and by COPE's
/// penalty-envelope constraint. `solver` selects the LP engine for the
/// per-edge adversary solves (nullptr = lp::SolverOptions{}).
double worst_case_mlu_hose(const PathSet& ps, const TeConfig& config,
                           double hose_scale = 1.0,
                           const lp::SolverOptions* solver = nullptr);

/// Scheme adapter: fit() runs the cutting-plane solve once; advise() returns
/// the fixed configuration (oblivious routing never adapts to history).
class ObliviousTe final : public TeScheme {
 public:
  ObliviousTe(const PathSet& ps, const ObliviousOptions& opt = {});
  std::string name() const override { return "Oblivious"; }
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix>) override;

  const ObliviousResult& result() const noexcept { return result_; }

 private:
  const PathSet* ps_;
  ObliviousOptions opt_;
  ObliviousResult result_;
};

}  // namespace figret::te
