#include "te/oblivious.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "te/hose.h"

namespace figret::te {
namespace {

using Clock = std::chrono::steady_clock;

// One cutting-plane run from `result.config`, on the budget that started at
// `start`. `envelope` == 0 is oblivious mode: cuts join the U-rows and the
// target is the master bound. Otherwise cuts become envelope rows
// (MLU <= envelope) and the target is `envelope`.
void cutting_planes(const PathSet& ps, const HoseRobustOptions& options,
                    const HoseBounds& hose, Clock::time_point start,
                    std::vector<traffic::DemandMatrix> u_rows, double envelope,
                    HoseRobustResult& result) {
  auto out_of_time = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count() >
           options.time_budget_seconds;
  };
  std::vector<traffic::DemandMatrix> envelope_rows;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    if (out_of_time()) break;
    result.rounds = round + 1;

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
    auto add_edge_rows = [&](const traffic::DemandMatrix& dm, bool bound_u) {
      for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
        std::vector<lp::Term> row;
        for (std::uint32_t pid : ps.paths_on_edge(e)) {
          const double d = dm[ps.pair_of_path(pid)];
          if (d > 0.0) row.push_back({var[pid], d});
        }
        if (row.empty()) continue;
        if (bound_u) {
          row.push_back({u_var, -ps.edge_capacity(e)});
          prob.add_constraint(std::move(row), lp::Relation::kLessEq, 0.0);
        } else {
          prob.add_constraint(std::move(row), lp::Relation::kLessEq,
                              envelope * ps.edge_capacity(e));
        }
      }
    };
    for (const auto& dm : u_rows) add_edge_rows(dm, /*bound_u=*/true);
    for (const auto& dm : envelope_rows) add_edge_rows(dm, /*bound_u=*/false);

    // No warm-start handle: every continuing round appends at least one cut
    // row, so the structural signature never repeats and a warm basis could
    // never re-prime. Each master is solved cold.
    const lp::LpResult sol = lp::solve_with(prob, options.solver);
    if (sol.status == lp::Status::kIterationLimit ||
        sol.status == lp::Status::kNumerical ||
        sol.status == lp::Status::kUnbounded)
      // Never fall back to the stale incumbent on a truncated solve: the
      // partial basis certifies nothing about the cut set.
      throw std::runtime_error(
          std::string("solve_hose_robust: master LP status: ") +
          lp::to_string(sol.status));
    if (!sol.optimal()) break;  // COPE envelope too tight: keep last config
    for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
      result.config[pid] = sol.x[var[pid]];
    result.config = normalize_config(ps, result.config);
    result.master_mlu = sol.objective;

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
    const double target = envelope > 0.0 ? envelope : result.master_mlu;
    if (scan_complete && worst <= target * (1.0 + options.tolerance) + 1e-9) {
      result.converged = true;
      break;
    }
    if (!scan_complete) break;  // out of budget
    (envelope > 0.0 ? envelope_rows : u_rows).push_back(std::move(worst_dm));
  }
}

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

HoseRobustResult solve_hose_robust(const PathSet& ps,
                                   const HoseRobustOptions& options,
                                   const traffic::TrafficTrace& train) {
  const double beta = options.penalty_ratio;
  if (!(beta == 0.0 || (std::isfinite(beta) && beta >= 1.0)))
    throw std::invalid_argument(
        "solve_hose_robust: penalty_ratio must be 0 (oblivious) or a finite "
        "value >= 1 (COPE)");
  const bool cope = beta > 0.0;
  if (cope && options.predicted_set_size == 0)
    throw std::invalid_argument(
        "solve_hose_robust: COPE needs predicted_set_size >= 1");
  if (cope && train.size() == 0)
    throw std::invalid_argument("solve_hose_robust: empty training trace");

  const auto start = Clock::now();
  const HoseBounds hose = hose_bounds(ps, options.hose_scale);

  // Oblivious run, seeded with a uniform hose-feasible demand.
  const std::size_t n = ps.num_nodes();
  traffic::DemandMatrix seed(n);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const auto [s, d] = traffic::pair_nodes(n, pr);
    seed[pr] = std::min(hose.out[s], hose.in[d]) / static_cast<double>(n - 1);
  }
  HoseRobustResult obl;
  obl.config = uniform_config(ps);
  cutting_planes(ps, options, hose, start, {std::move(seed)}, 0.0, obl);
  obl.oblivious_mlu = obl.worst_mlu;
  if (!cope) return obl;

  // COPE run: the predicted set is the most recent training demands plus
  // their peak (COPE optimizes over "a set of DMs predicted based on
  // previously observed DMs" — recent history is the canonical choice).
  std::vector<traffic::DemandMatrix> predicted;
  const std::size_t k = std::min(options.predicted_set_size, train.size());
  traffic::DemandMatrix peak(n);
  for (std::size_t t = train.size() - k; t < train.size(); ++t) {
    predicted.push_back(train[t]);
    for (std::size_t p = 0; p < peak.size(); ++p)
      peak[p] = std::max(peak[p], train[t][p]);
  }
  predicted.push_back(std::move(peak));

  HoseRobustResult result;
  result.config = obl.config;
  result.oblivious_mlu = obl.worst_mlu;
  cutting_planes(ps, options, hose, start, std::move(predicted),
                 beta * std::max(obl.worst_mlu, 1e-9), result);
  return result;
}

HoseRobustTe::HoseRobustTe(const PathSet& ps, const HoseRobustOptions& opt)
    : ps_(&ps), opt_(opt) {}

void HoseRobustTe::fit(const traffic::TrafficTrace& train) {
  result_ = solve_hose_robust(*ps_, opt_, train);
}

TeConfig HoseRobustTe::advise(std::span<const traffic::DemandMatrix>) {
  if (result_.config.empty())
    throw std::logic_error("HoseRobustTe: advise() before fit()");
  return result_.config;
}

}  // namespace figret::te
