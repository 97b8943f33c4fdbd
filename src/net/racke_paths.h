// Congestion-aware ("Räcke-style") path selection, the SMORE substitute.
//
// SMORE [31] selects routing paths with Räcke's oblivious-routing trees. The
// standard practical approximation — and the behaviour Fig 6 exercises — is a
// diverse, capacity-aware path set chosen to minimize worst-case congestion.
// We obtain it by iterating shortest-path computations under multiplicative
// edge penalties that grow with accumulated load (the classic
// multiplicative-weights congestion-minimization scheme): each round routes
// one unit of every SD demand on the currently cheapest path, then inflates
// the cost of loaded edges, so successive rounds discover edge-disjoint-ish
// alternatives through lightly used parts of the network.
//
// Substitution note (README "Substitutions"): Fig 6's conclusion is that path selection
// alone cannot provide burst robustness; any congestion-aware diverse path
// set exercises that claim.
#pragma once

#include <vector>

#include "net/graph.h"

namespace figret::net {

struct RackePathOptions {
  std::size_t paths_per_pair = 3;
  /// Penalty growth per unit of relative load added to an edge.
  double penalty_growth = 2.0;
  /// Number of load-spreading rounds (>= paths_per_pair).
  std::size_t rounds = 8;
};

/// Selects up to `paths_per_pair` distinct simple paths per ordered SD pair.
/// result[s * n + d] lists the paths for pair (s, d); diagonals are empty.
/// Every pair connected in the graph receives at least one path.
std::vector<std::vector<Path>> racke_style_paths(
    const Graph& g, const RackePathOptions& options = {});

}  // namespace figret::net
