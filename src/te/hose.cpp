#include "te/hose.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace figret::te {

HoseBounds hose_bounds(const PathSet& ps, double scale) {
  if (!(std::isfinite(scale) && scale > 0.0))
    throw std::invalid_argument(
        "hose_bounds: scale must be finite and > 0, got " +
        std::to_string(scale));
  HoseBounds h;
  h.out.assign(ps.num_nodes(), 0.0);
  h.in.assign(ps.num_nodes(), 0.0);
  // Attribute each edge's capacity to its endpoint nodes. The PathSet does
  // not store the raw graph, so endpoints are recovered from any stored path
  // that traverses the edge (every candidate-path edge appears in one).
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    for (std::uint32_t pid : ps.paths_on_edge(e)) {
      const net::Path& p = ps.path(pid);
      for (std::size_t i = 0; i < p.edges.size(); ++i) {
        if (p.edges[i] == e) {
          h.out[p.nodes[i]] += ps.edge_capacity(e) * scale;
          h.in[p.nodes[i + 1]] += ps.edge_capacity(e) * scale;
          break;
        }
      }
      break;
    }
  }
  // Nodes whose edges never appear on any candidate path get a minimal
  // allowance so the polytope stays full-dimensional.
  for (auto& v : h.out) v = std::max(v, 1e-9);
  for (auto& v : h.in) v = std::max(v, 1e-9);
  return h;
}

std::pair<double, traffic::DemandMatrix> worst_demand_for_edge(
    const PathSet& ps, const TeConfig& r, const HoseBounds& hose,
    net::EdgeId e, const lp::SolverOptions* solver) {
  // Edge-load coefficient per pair: sum of ratios of this pair's paths
  // crossing e.
  std::vector<double> coeff(ps.num_pairs(), 0.0);
  for (std::uint32_t pid : ps.paths_on_edge(e))
    coeff[ps.pair_of_path(pid)] += r[pid];

  lp::LpProblem prob;
  constexpr std::size_t kUnused = static_cast<std::size_t>(-1);
  std::vector<std::size_t> var(ps.num_pairs(), kUnused);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    if (coeff[pr] <= 1e-12) continue;
    var[pr] = prob.add_variable(-coeff[pr]);  // maximize => negate
  }
  const std::size_t n = ps.num_nodes();
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<lp::Term> row;
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::size_t pr = traffic::pair_index(n, s, d);
      if (var[pr] != kUnused) row.push_back({var[pr], 1.0});
    }
    if (!row.empty())
      prob.add_constraint(std::move(row), lp::Relation::kLessEq, hose.out[s]);
  }
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<lp::Term> row;
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d) continue;
      const std::size_t pr = traffic::pair_index(n, s, d);
      if (var[pr] != kUnused) row.push_back({var[pr], 1.0});
    }
    if (!row.empty())
      prob.add_constraint(std::move(row), lp::Relation::kLessEq, hose.in[d]);
  }

  traffic::DemandMatrix dm(ps.num_nodes());
  if (prob.num_variables() == 0) return {0.0, dm};
  const lp::LpResult sol =
      lp::solve_with(prob, solver ? *solver : lp::SolverOptions{});
  if (!sol.optimal())
    // This LP is feasible (zero demand) and bounded (every variable sits in
    // a finite hose row), so failure means a truncated solve; reporting 0
    // here would understate the worst case.
    throw std::runtime_error(
        std::string("worst_demand_for_edge: adversary LP status: ") +
        lp::to_string(sol.status));
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    if (var[pr] != kUnused) dm[pr] = sol.x[var[pr]];
  const double load = -sol.objective;
  return {load / ps.edge_capacity(e), dm};
}

}  // namespace figret::te
