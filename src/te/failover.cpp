#include "te/failover.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace figret::te {

std::vector<bool> surviving_paths(
    const PathSet& ps, const std::vector<net::EdgeId>& failed_edges) {
  std::vector<bool> alive;
  surviving_paths_into(ps, failed_edges, alive);
  return alive;
}

void surviving_paths_into(const PathSet& ps,
                          const std::vector<net::EdgeId>& failed_edges,
                          std::vector<bool>& out) {
  for (net::EdgeId e : failed_edges)
    if (e >= ps.num_edges())
      throw std::out_of_range("surviving_paths: edge id out of range");
  out.assign(ps.num_paths(), true);
  for (net::EdgeId e : failed_edges)
    for (std::uint32_t pid : ps.paths_on_edge(e)) out[pid] = false;
}

TeConfig reroute(const PathSet& ps, const TeConfig& config,
                 const std::vector<bool>& alive) {
  TeConfig out;
  reroute_into(ps, config, alive, out);
  return out;
}

void reroute_into(const PathSet& ps, const TeConfig& config,
                  const std::vector<bool>& alive, TeConfig& out,
                  RerouteStats* stats) {
  if (config.size() != ps.num_paths() || alive.size() != ps.num_paths())
    throw std::invalid_argument("reroute: size mismatch");
  out.assign(ps.num_paths(), 0.0);
  RerouteStats local;
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const std::size_t begin = ps.pair_begin(pr);
    const std::size_t end = ps.pair_end(pr);
    double alive_weight = 0.0;
    std::size_t alive_count = 0;
    for (std::size_t p = begin; p < end; ++p) {
      if (!alive[p]) continue;
      alive_weight += config[p];
      ++alive_count;
    }
    if (alive_count == 0) {
      // Pair disconnected: ratios stay 0 and the demand is dropped — never
      // renormalize toward the zero denominator of an all-dead pair.
      ++local.disconnected_pairs;
      double pair_weight = 0.0;
      for (std::size_t p = begin; p < end; ++p) pair_weight += config[p];
      if (std::isfinite(pair_weight) && pair_weight > 0.0)
        local.dropped_weight += pair_weight;
      continue;
    }
    // A non-finite sum (corrupt upstream config) would poison every ratio in
    // the proportional branch; the equal split is the safe landing.
    if (std::isfinite(alive_weight) && alive_weight > 1e-12) {
      // Proportional redistribution: (0.5, 0.3, 0.2) with path 0 failed
      // becomes (0, 0.6, 0.4).
      for (std::size_t p = begin; p < end; ++p)
        if (alive[p]) out[p] = config[p] / alive_weight;
    } else {
      // Surviving paths carried no weight: split equally, (1,0,0) with path
      // 0 failed becomes (0, 0.5, 0.5).
      const double u = 1.0 / static_cast<double>(alive_count);
      for (std::size_t p = begin; p < end; ++p)
        if (alive[p]) out[p] = u;
    }
  }
  if (stats) *stats = local;
}

void disconnected_pairs_into(const PathSet& ps, const std::vector<bool>& alive,
                             std::vector<std::uint32_t>& out) {
  if (alive.size() != ps.num_paths())
    throw std::invalid_argument("disconnected_pairs: size mismatch");
  out.clear();
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    bool any = false;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      if (alive[p]) {
        any = true;
        break;
      }
    if (!any) out.push_back(static_cast<std::uint32_t>(pr));
  }
}

std::vector<net::EdgeId> sample_safe_failures(const PathSet& ps,
                                              std::size_t count,
                                              std::uint64_t seed) {
  if (count > ps.num_edges())
    throw std::invalid_argument(
        "sample_safe_failures: count exceeds the number of edges");
  util::Rng rng(seed);
  std::vector<bool> alive;
  std::vector<std::uint32_t> disconnected;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    std::vector<net::EdgeId> failed;
    std::vector<bool> chosen(ps.num_edges(), false);
    while (failed.size() < count) {
      const auto e = static_cast<net::EdgeId>(rng.uniform_index(ps.num_edges()));
      if (chosen[e]) continue;
      chosen[e] = true;
      failed.push_back(e);
    }
    surviving_paths_into(ps, failed, alive);
    disconnected_pairs_into(ps, alive, disconnected);
    if (disconnected.empty()) return failed;
  }
  throw std::runtime_error(
      "sample_safe_failures: could not find a non-disconnecting failure set");
}

}  // namespace figret::te
