#include "te/mlu.h"

#include <stdexcept>

namespace figret::te {
namespace {

void check_shapes(const PathSet& ps, const traffic::DemandMatrix& demand,
                  const TeConfig& config) {
  if (config.size() != ps.num_paths())
    throw std::invalid_argument("edge_loads: config size mismatch");
  if (demand.size() != ps.num_pairs())
    throw std::invalid_argument("edge_loads: demand size mismatch");
}

// The fused inner body: one active pair's contribution to `out`. Path ids of
// a pair are contiguous and ascending, so driving this by ascending pair
// visits paths in exactly the global path-id order of the reference kernel.
inline void accumulate_pair(const PathSet& ps, const TeConfig& config,
                            std::size_t pair, double d,
                            std::vector<double>& out) {
  const std::size_t end = ps.pair_end(pair);
  for (std::size_t pid = ps.pair_begin(pair); pid < end; ++pid) {
    const double flow = d * config[pid];
    if (flow == 0.0) continue;
    for (net::EdgeId e : ps.path_edges(pid)) out[e] += flow;
  }
}

}  // namespace

std::vector<double> edge_loads(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config) {
  std::vector<double> load;
  edge_loads_into(ps, demand, config, load);
  return load;
}

void edge_loads_into(const PathSet& ps, const traffic::DemandMatrix& demand,
                     const TeConfig& config, std::vector<double>& out) {
  check_shapes(ps, demand, config);
  out.assign(ps.num_edges(), 0.0);
  demand.for_each_active([&](std::size_t pair, double d) {
    if (d == 0.0) return;
    accumulate_pair(ps, config, pair, d, out);
  });
}

MluResult max_link_utilization(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config) {
  std::vector<double> load;
  return max_link_utilization(ps, demand, config, load);
}

MluResult max_link_utilization(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& edge_scratch) {
  edge_loads_into(ps, demand, config, edge_scratch);
  MluResult result;
  for (net::EdgeId e = 0; e < edge_scratch.size(); ++e) {
    const double u = edge_scratch[e] / ps.edge_capacity(e);
    if (u > result.mlu) {
      result.mlu = u;
      result.argmax_edge = e;
    }
  }
  return result;
}

double mlu(const PathSet& ps, const traffic::DemandMatrix& demand,
           const TeConfig& config) {
  return max_link_utilization(ps, demand, config).mlu;
}

double mlu(const PathSet& ps, const traffic::DemandMatrix& demand,
           const TeConfig& config, std::vector<double>& edge_scratch) {
  return max_link_utilization(ps, demand, config, edge_scratch).mlu;
}

std::vector<double> path_sensitivities(const PathSet& ps,
                                       const TeConfig& config) {
  std::vector<double> s(ps.num_paths(), 0.0);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid)
    s[pid] = config[pid] / ps.path_capacity(pid);
  return s;
}

std::vector<double> max_pair_sensitivities(const PathSet& ps,
                                           const TeConfig& config) {
  std::vector<double> smax(ps.num_pairs(), 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    double best = 0.0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p) {
      const double s = config[p] / ps.path_capacity(p);
      if (s > best) best = s;
    }
    smax[pr] = best;
  }
  return smax;
}

}  // namespace figret::te
