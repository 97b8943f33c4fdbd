// Failure handling (paper §4.5): when links fail, sources proportionally
// redistribute the traffic of failed paths among their surviving paths —
// without recomputing the TE solution and without retraining.
#pragma once

#include <cstdint>
#include <vector>

#include "te/pathset.h"

namespace figret::te {

/// Marks which global path ids survive when `failed_edges` are down.
std::vector<bool> surviving_paths(const PathSet& ps,
                                  const std::vector<net::EdgeId>& failed_edges);

/// In-place variant: rewrites `out` (resized to num_paths) with the mask
/// surviving_paths returns. An edge id >= num_edges throws std::out_of_range
/// and leaves `out` untouched.
void surviving_paths_into(const PathSet& ps,
                          const std::vector<net::EdgeId>& failed_edges,
                          std::vector<bool>& out);

/// Dropped-demand accounting for reroute_into. A pair whose candidate paths
/// all died has nothing to renormalize onto: its ratios stay zero and its
/// traffic is dropped at the source. These counters make that loss explicit
/// — renormalizing toward the zero denominator (the pre-fix temptation)
/// would fabricate routes over dead links, and silently zeroed ratios
/// under-count utilization in every downstream MLU score.
struct RerouteStats {
  /// Pairs left with no surviving candidate path.
  std::size_t disconnected_pairs = 0;
  /// Total configured weight those pairs carried (1.0 per pair for a
  /// normalized config): the fraction of their traffic that is dropped.
  double dropped_weight = 0.0;
};

/// Reroutes `config` around failed paths per §4.5:
///  * pairs whose surviving paths carry weight: renormalize proportionally;
///  * pairs whose surviving paths all have zero (or non-finite) weight:
///    split equally;
///  * pairs with no surviving path: all ratios 0 and the pair is accounted
///    as dropped in `stats` (never renormalized toward a zero denominator).
/// Failed paths always end with ratio 0.
TeConfig reroute(const PathSet& ps, const TeConfig& config,
                 const std::vector<bool>& alive);

/// Allocation-free variant: writes the rerouted configuration into `out`
/// (resized once to num_paths). Bit-identical to reroute. `stats` (optional,
/// out) is overwritten with this call's dropped-demand accounting.
void reroute_into(const PathSet& ps, const TeConfig& config,
                  const std::vector<bool>& alive, TeConfig& out,
                  RerouteStats* stats = nullptr);

/// Collects the pair ids with no surviving candidate path under `alive`
/// (resizes `out` to the match count). The serving loop computes this once
/// per mask change to price dropped demand without rescanning every pair on
/// every snapshot.
void disconnected_pairs_into(const PathSet& ps, const std::vector<bool>& alive,
                             std::vector<std::uint32_t>& out);

/// Picks `count` distinct random edges whose removal keeps every SD pair
/// reachable through at least one candidate path (so experiments measure
/// congestion, not disconnection). Throws std::invalid_argument when `count`
/// exceeds the edge count, std::runtime_error after too many rejected
/// samples.
std::vector<net::EdgeId> sample_safe_failures(const PathSet& ps,
                                              std::size_t count,
                                              std::uint64_t seed);

}  // namespace figret::te
