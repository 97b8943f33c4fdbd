#include "te/lp_schemes.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "traffic/stats.h"

namespace figret::te {

lp::LpProblem build_mlu_lp(const PathSet& ps,
                           const traffic::DemandMatrix& demand,
                           const std::vector<double>* ratio_cap,
                           const std::vector<bool>* alive) {
  lp::LpProblem prob;
  build_mlu_lp_into(ps, demand, ratio_cap, alive, prob);
  return prob;
}

void build_mlu_lp_into(const PathSet& ps, const traffic::DemandMatrix& demand,
                       const std::vector<double>* ratio_cap,
                       const std::vector<bool>* alive, lp::LpProblem& prob) {
  if (demand.size() != ps.num_pairs())
    throw std::invalid_argument("solve_mlu_lp: demand size mismatch");
  if (ratio_cap && ratio_cap->size() != ps.num_paths())
    throw std::invalid_argument("solve_mlu_lp: ratio_cap size mismatch");
  if (alive && alive->size() != ps.num_paths())
    throw std::invalid_argument("solve_mlu_lp: alive size mismatch");

  prob.clear();
  // One variable per path, indexed by path id, plus the MLU variable U. A
  // dead path is fixed at 0 by its upper bound, so the LP's shape does not
  // depend on the failure mask: a mask swap changes only bounds and
  // right-hand sides, and a warm basis carries across it.
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    double ub = alive && !(*alive)[pid] ? 0.0 : 1.0;
    if (ratio_cap) ub = std::min(ub, (*ratio_cap)[pid]);
    prob.add_variable(0.0, ub);
  }
  const std::size_t u_var = prob.add_variable(1.0);  // minimize U

  // Conservation: each pair's ratios sum to 1. A pair with no live path
  // (disconnected under failures) sums to 0: its demand is dropped, as the
  // §4.5 reroute accounts it.
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const std::size_t begin = ps.pair_begin(pr);
    const std::size_t end = ps.pair_end(pr);
    bool connected = !alive;
    for (std::size_t p = begin; p < end && !connected; ++p)
      connected = (*alive)[p];
    std::vector<lp::Term>& row =
        prob.add_row(lp::Relation::kEq, connected ? 1.0 : 0.0);
    row.reserve(end - begin);
    for (std::size_t p = begin; p < end; ++p) row.push_back({p, 1.0});
  }

  // Capacity: per edge, sum_{p through e} D_sd(p) r_p - U c_e <= 0.
  // A row is emitted for every edge carrying at least one path — even when
  // all its demands are currently zero — so the row structure depends only
  // on the path set, never on the demand values or the mask. That keeps
  // consecutive snapshots signature-compatible for lp::WarmStart re-priming
  // (sparse DC traces zero out many pairs per snapshot).
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    const auto on_edge = ps.paths_on_edge(e);
    if (on_edge.empty()) continue;
    std::vector<lp::Term>& row = prob.add_row(lp::Relation::kLessEq, 0.0);
    row.reserve(on_edge.size() + 1);  // + the U term
    for (std::uint32_t pid : on_edge) {
      const double d = demand[ps.pair_of_path(pid)];
      if (d == 0.0) continue;
      row.push_back({pid, d});
    }
    row.push_back({u_var, -ps.edge_capacity(e)});
  }
}

MluLpResult solve_mlu_lp(const PathSet& ps,
                         const traffic::DemandMatrix& demand,
                         const std::vector<double>* ratio_cap,
                         const std::vector<bool>* alive,
                         const lp::SolverOptions* solver,
                         lp::WarmStart* warm) {
  MluLpScratch scratch;
  solve_mlu_lp(ps, demand, ratio_cap, alive, solver, warm, scratch);
  return std::move(scratch.result);
}

const MluLpResult& solve_mlu_lp(const PathSet& ps,
                                const traffic::DemandMatrix& demand,
                                const std::vector<double>* ratio_cap,
                                const std::vector<bool>* alive,
                                const lp::SolverOptions* solver,
                                lp::WarmStart* warm, MluLpScratch& scratch) {
  build_mlu_lp_into(ps, demand, ratio_cap, alive, scratch.problem);

  const lp::SolverOptions opts = solver ? *solver : lp::SolverOptions{};
  lp::SolveStats stats;
  if (warm) warm->recycle(std::move(scratch.solution));
  scratch.solution = lp::solve_with(scratch.problem, opts, warm, &stats);
  const lp::LpResult& sol = scratch.solution;
  MluLpResult& out = scratch.result;
  out.status = sol.status;
  out.pivots = stats.pivots;
  out.dual_pivots = stats.dual_pivots;
  out.warm_start_used = stats.warm_start_used;
  out.warm_fallback = stats.fallback;
  out.rebuilt = stats.rebuilt;
  out.inorder_refactorizations = stats.inorder_refactorizations;
  out.mlu = 0.0;
  out.config.clear();
  if (!out.optimal()) return out;
  out.mlu = sol.objective;
  out.config.assign(sol.x.begin(), sol.x.begin() + ps.num_paths());
  return out;
}

std::vector<double> sensitivity_caps(const PathSet& ps,
                                     const std::vector<double>& f_per_pair,
                                     const std::vector<bool>* alive) {
  if (f_per_pair.size() != ps.num_pairs())
    throw std::invalid_argument("sensitivity_caps: size mismatch");
  if (alive && alive->size() != ps.num_paths())
    throw std::invalid_argument("sensitivity_caps: alive size mismatch");
  // NaN or F <= 0 would make every cap vacuous (0 * inf is NaN, and
  // std::min(1.0, NaN) is 1.0) or silently clamp to the feasibility floor.
  for (double f : f_per_pair)
    if (!(f > 0.0))
      throw std::invalid_argument("sensitivity_caps: F must be > 0");
  std::vector<double> caps(ps.num_paths(), 1.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const std::size_t begin = ps.pair_begin(pr);
    const std::size_t end = ps.pair_end(pr);
    double sum = 0.0;
    bool live = false;
    for (std::size_t p = begin; p < end; ++p) {
      caps[p] = std::min(1.0, f_per_pair[pr] * ps.path_capacity(p));
      if (alive && !(*alive)[p]) continue;
      sum += caps[p];
      live = true;
    }
    if (live && sum < 1.0) {
      // Infeasible bound for this pair (Appendix C: "Min should not be less
      // than 1/n"): relax proportionally so the caps just admit a split.
      const double scale = 1.0 / sum + 1e-9;
      for (std::size_t p = begin; p < end; ++p)
        caps[p] = std::min(1.0, caps[p] * scale);
    }
  }
  return caps;
}

DesensitizationTe::DesensitizationTe(
    const PathSet& ps, const DesensitizationOptions& opt, std::string name,
    std::unique_ptr<traffic::Predictor> predictor, std::vector<bool> alive)
    : ps_(&ps),
      opt_(opt),
      name_(std::move(name)),
      predictor_(predictor ? std::move(predictor)
                           : std::make_unique<traffic::PeakPredictor>()),
      alive_(std::move(alive)) {
  if (!(opt_.min_bound > 0.0) || !(opt_.max_bound > 0.0))
    throw std::invalid_argument(name_ + ": bounds must be > 0");
  if (opt_.min_bound > opt_.max_bound)
    throw std::invalid_argument(name_ + ": min_bound > max_bound");
  if (opt_.window == 0)
    throw std::invalid_argument(name_ + ": window must be >= 1");
  if (!alive_.empty() && alive_.size() != ps.num_paths())
    throw std::invalid_argument(name_ + ": alive mask size mismatch");
  // A uniform F does not depend on variance rank: fix the caps now, so the
  // scheme advises without fit().
  if (opt_.min_bound == opt_.max_bound) {
    f_.assign(ps.num_pairs(), opt_.max_bound);
    caps_ = sensitivity_caps(ps, f_, alive_mask());
  }
}

void DesensitizationTe::fit(const traffic::TrafficTrace& train) {
  if (opt_.min_bound == opt_.max_bound) return;
  const std::vector<double> var = traffic::pair_variances(train);
  const std::size_t pairs = ps_->num_pairs();
  if (var.size() != pairs)
    throw std::invalid_argument(name_ + ": trace/topology mismatch");

  // Ascending variance order: rank 0 = most stable pair.
  std::vector<std::size_t> order(pairs);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return var[a] < var[b]; });

  f_.assign(pairs, opt_.max_bound);
  for (std::size_t rank = 0; rank < pairs; ++rank) {
    const double frac =
        pairs > 1 ? static_cast<double>(rank) / static_cast<double>(pairs - 1)
                  : 0.0;
    double bound = opt_.max_bound;
    switch (opt_.shape) {
      case FShape::kLinear:
        // Fig 9: bound decreases linearly from Max (stable) to Min (bursty).
        bound = opt_.max_bound - frac * (opt_.max_bound - opt_.min_bound);
        break;
      case FShape::kPiecewise:
        // Fig 11: lenient below the breakpoint, strict above it.
        bound = frac < opt_.breakpoint ? opt_.max_bound : opt_.min_bound;
        break;
    }
    f_[order[rank]] = bound;
  }
  caps_ = sensitivity_caps(*ps_, f_, alive_mask());
}

TeConfig DesensitizationTe::advise(
    std::span<const traffic::DemandMatrix> history) {
  if (caps_.empty())
    throw std::logic_error(name_ + ": advise() before fit()");
  if (history.empty())
    throw std::invalid_argument(name_ + ": empty history");
  const traffic::DemandMatrix anticipated = predictor_->predict(history);
  MluLpResult res = solve_mlu_lp(*ps_, anticipated, &caps_, alive_mask(),
                                 &opt_.solver, &warm_);
  if (!res.optimal())
    throw std::runtime_error(name_ + ": LP status: " +
                             lp::to_string(res.status));
  if (alive_.empty()) return normalize_config(*ps_, std::move(res.config));
  // Normalize over live paths only: dead paths and pairs with no live path
  // keep ratio 0 (normalize_config would spread those uniformly).
  TeConfig cfg = std::move(res.config);
  for (std::size_t pr = 0; pr < ps_->num_pairs(); ++pr) {
    double sum = 0.0;
    for (std::size_t p = ps_->pair_begin(pr); p < ps_->pair_end(pr); ++p)
      sum += cfg[p];
    if (sum > 1e-12)
      for (std::size_t p = ps_->pair_begin(pr); p < ps_->pair_end(pr); ++p)
        cfg[p] /= sum;
  }
  return cfg;
}

DesensitizationTe prediction_te(const PathSet& ps) {
  // +inf bounds give caps of exactly 1, which build_mlu_lp treats as no cap.
  DesensitizationOptions opt;
  opt.max_bound = opt.min_bound = std::numeric_limits<double>::infinity();
  opt.window = 1;
  return DesensitizationTe(ps, opt, "PredTE",
                           std::make_unique<traffic::LastValuePredictor>());
}

}  // namespace figret::te
