#include "te/loss.h"

#include <algorithm>
#include <stdexcept>

#include "te/mlu.h"

namespace figret::te {

TeConfig ratios_from_sigmoid(const PathSet& ps, std::span<const double> sig) {
  TeConfig r;
  ratios_from_sigmoid_into(ps, sig, r);
  return r;
}

namespace {

// Normalizes pair pr's ratios in place: the arithmetic of normalize_config
// (pathset.cpp). Callers copy the sigmoids in first; reading `sig` and
// writing `out` in one loop ran about 3x slower on a 2976-path set.
void normalize_pair(const PathSet& ps, std::size_t pr, TeConfig& out) {
  const std::size_t begin = ps.pair_begin(pr);
  const std::size_t end = ps.pair_end(pr);
  double sum = 0.0;
  for (std::size_t p = begin; p < end; ++p) {
    out[p] = out[p] > 0.0 ? out[p] : 0.0;
    sum += out[p];
  }
  if (sum > 1e-12) {
    for (std::size_t p = begin; p < end; ++p) out[p] /= sum;
  } else {
    const double u = 1.0 / static_cast<double>(end - begin);
    for (std::size_t p = begin; p < end; ++p) out[p] = u;
  }
}

}  // namespace

void ratios_from_sigmoid_into(const PathSet& ps, std::span<const double> sig,
                              TeConfig& out) {
  if (sig.size() != ps.num_paths())
    throw std::invalid_argument("ratios_from_sigmoid: size mismatch");
  out.assign(sig.begin(), sig.end());
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    normalize_pair(ps, pr, out);
}

void ratios_from_sigmoid_into(const PathSet& ps, std::span<const double> sig,
                              std::span<const std::uint32_t> pairs,
                              TeConfig& out) {
  if (sig.size() != ps.num_paths() || out.size() != ps.num_paths())
    throw std::invalid_argument("ratios_from_sigmoid: size mismatch");
  for (const std::uint32_t pr : pairs) {
    if (pr >= ps.num_pairs())
      throw std::invalid_argument("ratios_from_sigmoid: pair out of range");
    std::copy(sig.begin() + ps.pair_begin(pr), sig.begin() + ps.pair_end(pr),
              out.begin() + ps.pair_begin(pr));
    normalize_pair(ps, pr, out);
  }
}

LossValue figret_loss(const PathSet& ps, const traffic::DemandMatrix& dm,
                      std::span<const double> sig,
                      std::span<const double> pair_weight,
                      const LossConfig& cfg, std::vector<double>* grad_sig) {
  LossScratch scratch;
  return figret_loss(ps, dm, sig, pair_weight, cfg, grad_sig, scratch);
}

LossValue figret_loss(const PathSet& ps, const traffic::DemandMatrix& dm,
                      std::span<const double> sig,
                      std::span<const double> pair_weight,
                      const LossConfig& cfg, std::vector<double>* grad_sig,
                      LossScratch& scratch) {
  if (sig.size() != ps.num_paths())
    throw std::invalid_argument("figret_loss: sig size mismatch");
  if (pair_weight.size() != ps.num_pairs())
    throw std::invalid_argument("figret_loss: pair_weight size mismatch");

  // Forward: ratios via per-pair normalization of the sigmoid outputs.
  const TeConfig& r = scratch.ratios;
  ratios_from_sigmoid_into(ps, sig, scratch.ratios);

  // L1: MLU and its bottleneck edge.
  const std::vector<double>& load = scratch.load;
  edge_loads_into(ps, dm, r, scratch.load);
  double mlu = 0.0;
  net::EdgeId argmax_edge = 0;
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    const double u = load[e] / ps.edge_capacity(e);
    if (u > mlu) {
      mlu = u;
      argmax_edge = e;
    }
  }

  // L2: per-pair max sensitivity, weighted by the pair's traffic variance.
  double robust = 0.0;
  std::vector<std::size_t>& argmax_path = scratch.argmax_path;
  argmax_path.resize(ps.num_pairs());
  if (cfg.robust_weight > 0.0) {
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
      double best = -1.0;
      std::size_t best_p = ps.pair_begin(pr);
      for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p) {
        const double s = r[p] / ps.path_capacity(p);
        if (s > best) {
          best = s;
          best_p = p;
        }
      }
      argmax_path[pr] = best_p;
      robust += pair_weight[pr] * best;
    }
    robust *= cfg.robust_weight;
  }

  LossValue value;
  value.mlu = mlu;
  value.robust = robust;
  value.total = mlu + robust;
  if (grad_sig == nullptr) return value;

  // Backward. First dL/dr (sub-gradient through both argmaxes).
  std::vector<double>& grad_r = scratch.grad_r;
  grad_r.assign(ps.num_paths(), 0.0);
  if (mlu > 0.0) {
    const double inv_cap = 1.0 / ps.edge_capacity(argmax_edge);
    for (std::uint32_t pid : ps.paths_on_edge(argmax_edge))
      grad_r[pid] += dm[ps.pair_of_path(pid)] * inv_cap;
  }
  if (cfg.robust_weight > 0.0) {
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
      const std::size_t p = argmax_path[pr];
      grad_r[p] +=
          cfg.robust_weight * pair_weight[pr] / ps.path_capacity(p);
    }
  }

  chain_through_normalization(ps, sig, r, grad_r, *grad_sig);
  return value;
}

void chain_through_normalization(const PathSet& ps,
                                 std::span<const double> sig,
                                 const TeConfig& ratios,
                                 std::span<const double> grad_r,
                                 std::vector<double>& grad_sig) {
  // Per-pair normalization r_p = s_p / S gives
  //   dL/ds_q = (dL/dr_q - sum_p dL/dr_p * r_p) / S.
  grad_sig.assign(ps.num_paths(), 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const std::size_t begin = ps.pair_begin(pr);
    const std::size_t end = ps.pair_end(pr);
    double sum_sig = 0.0;
    double weighted = 0.0;
    for (std::size_t p = begin; p < end; ++p) {
      sum_sig += sig[p];
      weighted += grad_r[p] * ratios[p];
    }
    if (sum_sig <= 1e-12) continue;  // uniform fallback region: zero gradient
    for (std::size_t p = begin; p < end; ++p)
      grad_sig[p] = (grad_r[p] - weighted) / sum_sig;
  }
}

}  // namespace figret::te
