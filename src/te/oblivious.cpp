#include "te/oblivious.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "te/hose.h"

namespace figret::te {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

double worst_case_mlu_hose(const PathSet& ps, const TeConfig& config,
                           double hose_scale,
                           const lp::SolverOptions* solver) {
  const HoseBounds hose = hose_bounds(ps, hose_scale);
  double worst = 0.0;
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e)
    worst = std::max(
        worst, worst_demand_for_edge(ps, config, hose, e, solver).first);
  return worst;
}

ObliviousResult solve_oblivious(const PathSet& ps,
                                const ObliviousOptions& options) {
  const auto start = Clock::now();
  auto out_of_time = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count() >
           options.time_budget_seconds;
  };
  const HoseBounds hose = hose_bounds(ps, options.hose_scale);

  // Seed cut: a uniform hose-feasible demand.
  std::vector<traffic::DemandMatrix> cuts;
  {
    const std::size_t n = ps.num_nodes();
    traffic::DemandMatrix d0(n);
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
      const auto [s, d] = traffic::pair_nodes(n, pr);
      d0[pr] = std::min(hose.out[s], hose.in[d]) / static_cast<double>(n - 1);
    }
    cuts.push_back(std::move(d0));
  }

  ObliviousResult result;
  result.config = uniform_config(ps);

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    if (out_of_time()) break;
    result.rounds = round + 1;

    // Master: min U subject to MLU(R, D) <= U for all cut demands.
    lp::LpProblem prob;
    std::vector<std::size_t> var(ps.num_paths());
    for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
      var[pid] = prob.add_variable(0.0, 1.0);
    const std::size_t u_var = prob.add_variable(1.0);
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
      std::vector<lp::Term> row;
      for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
        row.push_back({var[p], 1.0});
      prob.add_constraint(std::move(row), lp::Relation::kEq, 1.0);
    }
    for (const auto& dm : cuts) {
      for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
        std::vector<lp::Term> row;
        for (std::uint32_t pid : ps.paths_on_edge(e)) {
          const double d = dm[ps.pair_of_path(pid)];
          if (d > 0.0) row.push_back({var[pid], d});
        }
        if (row.empty()) continue;
        row.push_back({u_var, -ps.edge_capacity(e)});
        prob.add_constraint(std::move(row), lp::Relation::kLessEq, 0.0);
      }
    }
    // No warm-start handle: every continuing round appends at least one cut
    // row, so the structural signature never repeats and a primal warm basis
    // can never re-prime. Row-growth re-use needs the dual simplex (ROADMAP).
    const lp::LpResult sol = lp::solve_with(prob, options.solver);
    if (sol.status == lp::Status::kIterationLimit ||
        sol.status == lp::Status::kNumerical ||
        sol.status == lp::Status::kUnbounded)
      // Never fall back to the stale incumbent on a truncated solve: the
      // partial basis certifies nothing about the cut set.
      throw std::runtime_error(
          std::string("solve_oblivious: master LP status: ") +
          lp::to_string(sol.status));
    if (!sol.optimal()) break;
    for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
      result.config[pid] = sol.x[var[pid]];
    result.config = normalize_config(ps, result.config);
    const double master_bound = sol.objective;

    // Adversary: most violating demand across edges. Convergence may only
    // be declared from a *complete* scan — a budget-truncated pass could
    // otherwise miss the violating edge and report a false optimum.
    double worst = 0.0;
    bool scan_complete = true;
    traffic::DemandMatrix worst_dm(ps.num_nodes());
    for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
      if (out_of_time()) {
        scan_complete = false;
        break;
      }
      auto [util, dm] =
          worst_demand_for_edge(ps, result.config, hose, e, &options.solver);
      if (util > worst) {
        worst = util;
        worst_dm = std::move(dm);
      }
    }
    result.worst_mlu = worst;
    if (scan_complete &&
        worst <= master_bound * (1.0 + options.tolerance) + 1e-9) {
      result.converged = true;
      break;
    }
    if (!scan_complete) break;  // out of budget
    cuts.push_back(std::move(worst_dm));
  }
  return result;
}

ObliviousTe::ObliviousTe(const PathSet& ps, const ObliviousOptions& opt)
    : ps_(&ps), opt_(opt) {}

void ObliviousTe::fit(const traffic::TrafficTrace&) {
  result_ = solve_oblivious(*ps_, opt_);
}

TeConfig ObliviousTe::advise(std::span<const traffic::DemandMatrix>) {
  if (result_.config.empty())
    throw std::logic_error("ObliviousTe: advise() before fit()");
  return result_.config;
}

}  // namespace figret::te
