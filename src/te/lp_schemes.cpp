#include "te/lp_schemes.h"

#include <algorithm>
#include <stdexcept>

namespace figret::te {

lp::LpProblem build_mlu_lp(const PathSet& ps,
                           const traffic::DemandMatrix& demand,
                           const std::vector<double>* ratio_cap,
                           const std::vector<bool>* alive,
                           std::vector<std::size_t>* var_of_path_out) {
  if (demand.size() != ps.num_pairs())
    throw std::invalid_argument("solve_mlu_lp: demand size mismatch");
  if (ratio_cap && ratio_cap->size() != ps.num_paths())
    throw std::invalid_argument("solve_mlu_lp: ratio_cap size mismatch");
  if (alive && alive->size() != ps.num_paths())
    throw std::invalid_argument("solve_mlu_lp: alive size mismatch");

  lp::LpProblem prob;
  // One variable per live path (dead paths are not represented at all), plus
  // the MLU variable U.
  constexpr std::size_t kDead = static_cast<std::size_t>(-1);
  std::vector<std::size_t> var_of_path(ps.num_paths(), kDead);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    if (alive && !(*alive)[pid]) continue;
    double ub = 1.0;
    if (ratio_cap) ub = std::min(ub, (*ratio_cap)[pid]);
    var_of_path[pid] = prob.add_variable(0.0, ub);
  }
  const std::size_t u_var = prob.add_variable(1.0);  // minimize U

  // Conservation: each pair's live ratios sum to 1.
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    std::vector<lp::Term> row;
    row.reserve(ps.pair_end(pr) - ps.pair_begin(pr));
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      if (var_of_path[p] != kDead) row.push_back({var_of_path[p], 1.0});
    if (row.empty()) continue;  // disconnected pair under failures
    prob.add_constraint(std::move(row), lp::Relation::kEq, 1.0);
  }

  // Capacity: per edge, sum_{p through e} D_sd(p) r_p - U c_e <= 0.
  // A row is emitted for every edge carrying at least one live path — even
  // when all its demands are currently zero — so the row structure depends
  // only on (path set, alive mask), never on the demand values. That keeps
  // consecutive snapshots signature-compatible for lp::WarmStart re-priming
  // (sparse DC traces zero out many pairs per snapshot).
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    std::vector<lp::Term> row;
    row.reserve(ps.paths_on_edge(e).size() + 1);  // + the U term
    bool has_live_path = false;
    for (std::uint32_t pid : ps.paths_on_edge(e)) {
      if (var_of_path[pid] == kDead) continue;
      has_live_path = true;
      const double d = demand[ps.pair_of_path(pid)];
      if (d == 0.0) continue;
      row.push_back({var_of_path[pid], d});
    }
    if (!has_live_path) continue;
    row.push_back({u_var, -ps.edge_capacity(e)});
    prob.add_constraint(std::move(row), lp::Relation::kLessEq, 0.0);
  }
  if (var_of_path_out) *var_of_path_out = std::move(var_of_path);
  return prob;
}

MluLpResult solve_mlu_lp(const PathSet& ps,
                         const traffic::DemandMatrix& demand,
                         const std::vector<double>* ratio_cap,
                         const std::vector<bool>* alive,
                         const lp::SolverOptions* solver,
                         lp::WarmStart* warm) {
  std::vector<std::size_t> var_of_path;
  const lp::LpProblem prob =
      build_mlu_lp(ps, demand, ratio_cap, alive, &var_of_path);

  const lp::SolverOptions opts = solver ? *solver : lp::SolverOptions{};
  lp::SolveStats stats;
  const lp::LpResult sol = lp::solve_with(prob, opts, warm, &stats);
  MluLpResult out;
  out.status = sol.status;
  out.pivots = stats.pivots;
  out.dual_pivots = stats.dual_pivots;
  out.warm_start_used = stats.warm_start_used;
  out.warm_fallback = stats.fallback;
  if (!out.optimal()) return out;
  out.mlu = sol.objective;
  out.config.assign(ps.num_paths(), 0.0);
  constexpr std::size_t kDead = static_cast<std::size_t>(-1);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
    if (var_of_path[pid] != kDead) out.config[pid] = sol.x[var_of_path[pid]];
  return out;
}

std::vector<double> sensitivity_caps(const PathSet& ps,
                                     const std::vector<double>& f_per_pair) {
  if (f_per_pair.size() != ps.num_pairs())
    throw std::invalid_argument("sensitivity_caps: size mismatch");
  std::vector<double> caps(ps.num_paths(), 1.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const std::size_t begin = ps.pair_begin(pr);
    const std::size_t end = ps.pair_end(pr);
    double sum = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      caps[p] = std::min(1.0, f_per_pair[pr] * ps.path_capacity(p));
      sum += caps[p];
    }
    if (sum < 1.0) {
      // Infeasible bound for this pair (Appendix C: "Min should not be less
      // than 1/n"): relax proportionally so the caps just admit a split.
      const double scale = 1.0 / sum + 1e-9;
      for (std::size_t p = begin; p < end; ++p)
        caps[p] = std::min(1.0, caps[p] * scale);
    }
  }
  return caps;
}

TeConfig PredictionTe::advise(
    std::span<const traffic::DemandMatrix> history) {
  if (history.empty())
    throw std::invalid_argument("PredictionTe: empty history");
  const MluLpResult res =
      solve_mlu_lp(*ps_, history.back(), nullptr, nullptr, &solver_, &warm_);
  if (!res.optimal())
    throw std::runtime_error(std::string("PredictionTe: LP status: ") +
                             lp::to_string(res.status));
  return normalize_config(*ps_, res.config);
}

DesensitizationTe::DesensitizationTe(const PathSet& ps)
    : DesensitizationTe(ps, Options{}) {}

DesensitizationTe::DesensitizationTe(const PathSet& ps, const Options& opt)
    : ps_(&ps), opt_(opt) {
  caps_ = sensitivity_caps(
      ps, std::vector<double>(ps.num_pairs(), opt_.sensitivity_bound));
}

TeConfig DesensitizationTe::advise(
    std::span<const traffic::DemandMatrix> history) {
  if (history.empty())
    throw std::invalid_argument("DesensitizationTe: empty history");
  // Anticipated matrix: per-pair peak over the window (paper §5.1 (2)).
  traffic::DemandMatrix peak(ps_->num_nodes());
  for (const auto& dm : history)
    dm.for_each_active(
        [&](std::size_t p, double v) { peak[p] = std::max(peak[p], v); });

  const MluLpResult res =
      solve_mlu_lp(*ps_, peak, &caps_, nullptr, &opt_.solver, &warm_);
  if (!res.optimal())
    throw std::runtime_error(std::string("DesensitizationTe: LP status: ") +
                             lp::to_string(res.status));
  return normalize_config(*ps_, res.config);
}

FaultAwareDesTe::FaultAwareDesTe(const PathSet& ps, std::vector<bool> alive)
    : FaultAwareDesTe(ps, std::move(alive), DesensitizationTe::Options{}) {}

FaultAwareDesTe::FaultAwareDesTe(const PathSet& ps, std::vector<bool> alive,
                                 const DesensitizationTe::Options& opt)
    : ps_(&ps), opt_(opt), alive_(std::move(alive)) {
  if (alive_.size() != ps.num_paths())
    throw std::invalid_argument("FaultAwareDesTe: alive mask size mismatch");
  // Sensitivity caps computed over live paths only, so feasibility relaxation
  // accounts for the reduced path diversity.
  std::vector<double> f(ps.num_pairs(), opt_.sensitivity_bound);
  caps_.assign(ps.num_paths(), 1.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    double sum = 0.0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p) {
      caps_[p] = std::min(1.0, f[pr] * ps.path_capacity(p));
      if (alive_[p]) sum += caps_[p];
    }
    if (sum < 1.0 && sum > 0.0) {
      const double scale = 1.0 / sum + 1e-9;
      for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
        caps_[p] = std::min(1.0, caps_[p] * scale);
    }
  }
}

TeConfig FaultAwareDesTe::advise(
    std::span<const traffic::DemandMatrix> history) {
  if (history.empty())
    throw std::invalid_argument("FaultAwareDesTe: empty history");
  traffic::DemandMatrix peak(ps_->num_nodes());
  for (const auto& dm : history)
    dm.for_each_active(
        [&](std::size_t p, double v) { peak[p] = std::max(peak[p], v); });

  const MluLpResult res =
      solve_mlu_lp(*ps_, peak, &caps_, &alive_, &opt_.solver, &warm_);
  if (!res.optimal())
    throw std::runtime_error(std::string("FaultAwareDesTe: LP status: ") +
                             lp::to_string(res.status));
  // Normalize only over live paths (dead paths keep ratio 0).
  TeConfig cfg = res.config;
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

}  // namespace figret::te
