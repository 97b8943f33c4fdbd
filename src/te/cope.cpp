#include "te/cope.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "te/hose.h"

namespace figret::te {
namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

CopeResult solve_cope(const PathSet& ps, const traffic::TrafficTrace& train,
                      const CopeOptions& options) {
  const auto start = Clock::now();
  auto out_of_time = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count() >
           options.oblivious.time_budget_seconds;
  };

  CopeResult result;

  // Stage 1: oblivious optimum defines the penalty envelope.
  const ObliviousResult obl = solve_oblivious(ps, options.oblivious);
  result.oblivious_mlu = obl.worst_mlu;
  result.config = obl.config;
  const double envelope = options.penalty_ratio * std::max(obl.worst_mlu, 1e-9);

  // Predicted set: the most recent training demands plus their peak
  // (COPE optimizes over "a set of DMs predicted based on previously
  // observed DMs" — recent history is the canonical choice).
  std::vector<traffic::DemandMatrix> predicted;
  const std::size_t k = std::min(options.predicted_set_size, train.size());
  if (k == 0)
    throw std::invalid_argument("solve_cope: empty training trace");
  traffic::DemandMatrix peak(ps.num_nodes());
  for (std::size_t t = train.size() - k; t < train.size(); ++t) {
    predicted.push_back(train[t]);
    for (std::size_t p = 0; p < peak.size(); ++p)
      peak[p] = std::max(peak[p], train[t][p]);
  }
  predicted.push_back(std::move(peak));

  const HoseBounds hose = hose_bounds(ps, options.oblivious.hose_scale);
  std::vector<traffic::DemandMatrix> hose_cuts;

  for (std::size_t round = 0; round < options.oblivious.max_rounds; ++round) {
    if (out_of_time()) break;
    result.rounds = round + 1;

    // Master: min U over the predicted set, subject to the worst-case
    // envelope on all hose cuts discovered so far.
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
    auto add_edge_rows = [&](const traffic::DemandMatrix& dm, bool envelope_rhs) {
      for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
        std::vector<lp::Term> row;
        for (std::uint32_t pid : ps.paths_on_edge(e)) {
          const double d = dm[ps.pair_of_path(pid)];
          if (d > 0.0) row.push_back({var[pid], d});
        }
        if (row.empty()) continue;
        if (envelope_rhs) {
          // MLU(R, D') <= beta * r_obl: constant right-hand side.
          prob.add_constraint(std::move(row), lp::Relation::kLessEq,
                              envelope * ps.edge_capacity(e));
        } else {
          row.push_back({u_var, -ps.edge_capacity(e)});
          prob.add_constraint(std::move(row), lp::Relation::kLessEq, 0.0);
        }
      }
    };
    for (const auto& dm : predicted) add_edge_rows(dm, /*envelope_rhs=*/false);
    for (const auto& dm : hose_cuts) add_edge_rows(dm, /*envelope_rhs=*/true);

    // No warm-start handle: every continuing round appends cut rows, so the
    // structural signature never repeats and a primal warm basis can never
    // re-prime. RHS/row-growth re-use needs the dual simplex (ROADMAP).
    const lp::LpResult sol = lp::solve_with(prob, options.solver);
    if (sol.status == lp::Status::kIterationLimit ||
        sol.status == lp::Status::kNumerical ||
        sol.status == lp::Status::kUnbounded)
      // A truncated master proves nothing — surfacing it beats silently
      // keeping the previous round's configuration.
      throw std::runtime_error(std::string("solve_cope: master LP status: ") +
                               lp::to_string(sol.status));
    if (!sol.optimal()) break;  // envelope too tight: keep last config
    for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
      result.config[pid] = sol.x[var[pid]];
    result.config = normalize_config(ps, result.config);
    result.predicted_mlu = sol.objective;

    // Adversary on the hose polytope. As in solve_oblivious, convergence
    // requires a complete scan; a budget-truncated pass must not certify
    // the envelope.
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
        worst <= envelope * (1.0 + options.oblivious.tolerance) + 1e-9) {
      result.converged = true;
      break;
    }
    if (!scan_complete) break;
    hose_cuts.push_back(std::move(worst_dm));
  }
  return result;
}

CopeTe::CopeTe(const PathSet& ps, const CopeOptions& opt)
    : ps_(&ps), opt_(opt) {}

void CopeTe::fit(const traffic::TrafficTrace& train) {
  result_ = solve_cope(*ps_, train, opt_);
}

TeConfig CopeTe::advise(std::span<const traffic::DemandMatrix>) {
  if (result_.config.empty())
    throw std::logic_error("CopeTe: advise() before fit()");
  return result_.config;
}

}  // namespace figret::te
