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

// Builds the compact LP of oblivious.h and solves it once within
// `seconds_left`. Without `peak` it is oblivious mode (each edge's dual sum
// <= r); with it, COPE (dual sums <= `envelope`, U bounds the MLU of
// `peak`). Only an optimal solve replaces `result.config` and
// `master_mlu`; `worst_mlu` is then set from the exact oracle.
void solve_compact(const PathSet& ps, const HoseRobustOptions& options,
                   const HoseBounds& hose, double seconds_left,
                   const traffic::DemandMatrix* peak, double envelope,
                   HoseRobustResult& result) {
  const std::size_t n = ps.num_nodes();
  lp::LpProblem prob;
  // Variable p is path p's ratio x_p.
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) prob.add_variable();
  const std::size_t objective = prob.add_variable(1.0);  // r, or COPE's U
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    std::vector<lp::Term> row;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      row.push_back({p, 1.0});
    prob.add_constraint(std::move(row), lp::Relation::kEq, 1.0);
  }

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pi(n), lambda(n);
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    const auto on_e = ps.paths_on_edge(e);
    if (on_e.empty()) continue;
    std::fill(pi.begin(), pi.end(), kNone);
    std::fill(lambda.begin(), lambda.end(), kNone);
    // Dual of edge e's hose worst case: sum_s out_s pi_e(s) +
    // sum_d in_d lambda_e(d), each dual variable made on first use.
    std::vector<lp::Term> hose_row;
    auto dual = [&](std::vector<std::size_t>& var, std::size_t v,
                    double bound) {
      if (var[v] == kNone) {
        var[v] = prob.add_variable();
        hose_row.push_back({var[v], bound});
      }
      return var[v];
    };
    // paths_on_edge is ascending and path ids are pair-major, so each
    // pair's paths on e are adjacent: one row pi + lambda >= f_sd(e) each.
    for (std::size_t i = 0; i < on_e.size();) {
      const std::size_t pr = ps.pair_of_path(on_e[i]);
      const auto [s, d] = traffic::pair_nodes(n, pr);
      std::vector<lp::Term> cover{{dual(pi, s, hose.out[s]), 1.0},
                                  {dual(lambda, d, hose.in[d]), 1.0}};
      for (; i < on_e.size() && ps.pair_of_path(on_e[i]) == pr; ++i)
        cover.push_back({on_e[i], -1.0 / ps.edge_capacity(e)});
      prob.add_constraint(std::move(cover), lp::Relation::kGreaterEq, 0.0);
    }
    if (!peak) hose_row.push_back({objective, -1.0});
    prob.add_constraint(std::move(hose_row), lp::Relation::kLessEq, envelope);
    if (!peak) continue;
    std::vector<lp::Term> row;
    for (std::uint32_t pid : on_e) {
      const double d = (*peak)[ps.pair_of_path(pid)];
      if (d > 0.0) row.push_back({pid, d});
    }
    if (row.empty()) continue;
    row.push_back({objective, -ps.edge_capacity(e)});
    prob.add_constraint(std::move(row), lp::Relation::kLessEq, 0.0);
  }

  lp::SolverOptions solver = options.solver;
  solver.simplex.time_limit_seconds = seconds_left;
  const lp::LpResult sol = lp::solve_with(prob, solver);
  if (sol.status == lp::Status::kIterationLimit ||
      sol.status == lp::Status::kNumerical ||
      sol.status == lp::Status::kUnbounded)
    // A truncated or broken solve certifies nothing: never fall back.
    throw std::runtime_error(std::string("solve_hose_robust: LP status: ") +
                             lp::to_string(sol.status));
  result.status = sol.status;
  if (sol.optimal()) {
    result.config = normalize_config(
        ps, TeConfig(sol.x.begin(), sol.x.begin() + ps.num_paths()));
    result.master_mlu = sol.objective;
  }
  result.worst_mlu = worst_case_mlu_hose(ps, result.config, options.hose_scale,
                                         &options.solver);
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
  const std::size_t n = ps.num_nodes();
  if (cope) {
    if (options.predicted_set_size == 0)
      throw std::invalid_argument(
          "solve_hose_robust: COPE needs predicted_set_size >= 1");
    if (train.size() == 0)
      throw std::invalid_argument("solve_hose_robust: empty training trace");
    // The predicted set is read through the unchecked
    // DemandMatrix::operator[]: a smaller trace would be read out of bounds.
    if (train.num_nodes != n ||
        std::any_of(train.snapshots.begin(), train.snapshots.end(),
                    [n](const auto& dm) { return dm.num_nodes() != n; }))
      throw std::invalid_argument("solve_hose_robust: trace/topology mismatch");
  }

  // One deadline for the whole call. What is left of it becomes each
  // solve's LP time limit; a spent budget maps to -1 (kDeadline before the
  // first pivot), never to 0, which the LP engine reads as "no deadline".
  const auto start = Clock::now();
  auto seconds_left = [&] {
    const std::chrono::duration<double> spent = Clock::now() - start;
    const double left = options.time_budget_seconds - spent.count();
    return left > 0.0 ? left : -1.0;
  };
  const HoseBounds hose = hose_bounds(ps, options.hose_scale);

  HoseRobustResult obl;
  obl.config = uniform_config(ps);
  solve_compact(ps, options, hose, seconds_left(), nullptr, 0.0, obl);
  obl.oblivious_mlu = obl.worst_mlu;
  // An envelope may only be built from an r_obl that was reached.
  if (!cope || obl.status != lp::Status::kOptimal) return obl;

  // COPE's predicted set is the most recent training demands (COPE
  // optimizes over "a set of DMs predicted based on previously observed
  // DMs" — recent history is the canonical choice). Loads grow with demand
  // under any routing, so their element-wise peak has the set's largest
  // MLU on every edge: its U-rows imply every member's, and the LP carries
  // only the peak's (a row per member makes the LP degenerate enough to
  // stall the simplex on pFabric's trace).
  const std::size_t k = std::min(options.predicted_set_size, train.size());
  traffic::DemandMatrix peak(n);
  for (std::size_t t = train.size() - k; t < train.size(); ++t)
    for (std::size_t p = 0; p < peak.size(); ++p)
      peak[p] = std::max(peak[p], train[t][p]);

  // Unless its own LP is optimal (a deadline, or an infeasible envelope at
  // beta = 1), COPE keeps the oblivious result with COPE's status.
  HoseRobustResult result = obl;
  solve_compact(ps, options, hose, seconds_left(), &peak, beta * obl.worst_mlu,
                result);
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
