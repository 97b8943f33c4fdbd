// Traffic-trace generators reproducing the statistical character of the
// paper's datasets (§5.1 "Traffic data"; README "Substitutions"):
//
//  * gravity_trace      — stable synthetic WAN traffic (UsCarrier/Cogentco;
//                         paper uses the gravity model of [9, 39])
//  * wan_trace          — GEANT-like: mostly stable + diurnal cycle + rare
//                         heavy bursts on a subset of pairs (Fig 4 outliers)
//  * dc_tor_trace       — Meta-like ToR fabric: per-pair heterogeneous
//                         burstiness (the Fig 2 diversity), AR(1) temporal
//                         correlation so history is informative
//  * dc_pod_trace       — PoD-level = aggregation of a ToR-level trace;
//                         aggregation smooths bursts (the paper's Fig 4
//                         "more aggregation => more stable" observation)
//  * pfabric_trace      — Poisson flow arrivals, uniform random SD pair,
//                         web-search flow-size distribution [8]
//  * gaussian perturbations for Tables 3 and 5
#pragma once

#include <cstdint>

#include "traffic/demand.h"
#include "util/rng.h"

namespace figret::traffic {

struct GravityOptions {
  /// Lognormal sigma of per-node masses (how skewed node popularity is).
  double mass_sigma = 0.6;
  /// Multiplicative per-snapshot noise sigma (lognormal, mean 1).
  double noise_sigma = 0.05;
  /// Mean total volume per snapshot.
  double total_volume = 1.0;
};

/// Stable gravity-model WAN traffic (no bursts by construction).
TrafficTrace gravity_trace(std::size_t n, std::size_t length,
                           std::uint64_t seed, const GravityOptions& = {});

struct WanOptions {
  double mass_sigma = 0.6;
  /// AR(1) persistence of per-pair log-rates (close to 1 = slow drift).
  double ar_rho = 0.95;
  double ar_sigma = 0.10;
  /// Fraction of pairs that can burst, and per-snapshot burst probability.
  double bursty_fraction = 0.12;
  double burst_probability = 0.015;
  /// Pareto shape/scale of burst multipliers (relative to the base rate).
  double burst_scale = 3.0;
  double burst_shape = 1.6;
  /// Diurnal modulation amplitude and period (snapshots per day).
  double diurnal_amplitude = 0.25;
  std::size_t diurnal_period = 96;
  double total_volume = 1.0;
};

/// GEANT-like real-WAN traffic: stable with occasional unexpected bursts.
TrafficTrace wan_trace(std::size_t n, std::size_t length, std::uint64_t seed,
                       const WanOptions& = {});

struct DcOptions {
  double mass_sigma = 0.8;
  double ar_rho = 0.85;
  /// Base lognormal jitter applied to every pair every snapshot.
  double base_sigma = 0.15;
  /// Extra jitter scaled by the per-pair burstiness level.
  double bursty_sigma = 0.9;
  /// Per-pair burstiness beta_sd = U^exponent (most pairs stable, a few
  /// highly bursty -- the Fig 2 heterogeneity). Lower exponent = burstier.
  double burstiness_exponent = 3.0;
  /// Spike process: probability scale and Pareto magnitude parameters.
  double spike_probability = 0.05;
  double spike_scale = 4.0;
  double spike_shape = 1.5;
  double total_volume = 1.0;
};

/// Meta-like ToR-level direct-connect fabric traffic (high dynamism).
TrafficTrace dc_tor_trace(std::size_t n, std::size_t length,
                          std::uint64_t seed, const DcOptions& = {});

/// PoD-level trace produced by aggregating a ToR-level trace:
/// `tors_per_pod` ToRs per PoD, `n_pods * tors_per_pod` ToRs generated.
TrafficTrace dc_pod_trace(std::size_t n_pods, std::size_t tors_per_pod,
                          std::size_t length, std::uint64_t seed,
                          const DcOptions& = {});

struct FabricOptions {
  /// Fraction of the n*(n-1) ordered pairs active in a snapshot (fat-tree
  /// fabrics touch well under 1% at any instant).
  double active_fraction = 0.01;
  /// Fraction of the active set resampled each snapshot (hotset churn).
  double churn = 0.05;
  /// Lognormal sigma of per-pair base rates (elephant/mice skew).
  double mass_sigma = 1.0;
  /// Per-snapshot multiplicative jitter sigma (lognormal, mean ~1).
  double noise_sigma = 0.25;
  double total_volume = 1.0;
};

/// Fabric-scale sparse traffic: a slowly churning hot set of active pairs
/// with heavy-tailed rates. Snapshots are *sparse* DemandMatrix instances
/// (nnz == active pair count), exercising the O(nnz) demand pipeline.
TrafficTrace fabric_trace(std::size_t n, std::size_t length,
                          std::uint64_t seed, const FabricOptions& = {});

struct PfabricOptions {
  /// Mean flow arrivals per snapshot interval.
  double flows_per_interval = 600.0;
};

/// pFabric trace: Poisson arrivals, uniform SD pair, web-search flow sizes
/// (piecewise-linear CDF from [8], in KB).
TrafficTrace pfabric_trace(std::size_t n, std::size_t length,
                           std::uint64_t seed, const PfabricOptions& = {});

/// Samples one flow size (KB) from the [8] web-search distribution.
double web_search_flow_size_kb(util::Rng& rng);

/// Table 3 perturbation: adds alpha * N(0, sigma_sd^2) per pair, clamped at 0,
/// where sigma_sd is the per-pair stddev measured on `reference`.
TrafficTrace perturb_gaussian(const TrafficTrace& base,
                              const TrafficTrace& reference, double alpha,
                              std::uint64_t seed);

/// Table 5 worst case: like perturb_gaussian but the per-pair sigmas are
/// rank-reversed (largest historical variance gets the smallest sigma and
/// vice versa), attacking FIGRET's learned fine-grained robustness.
TrafficTrace perturb_gaussian_rank_reversed(const TrafficTrace& base,
                                            const TrafficTrace& reference,
                                            double alpha, std::uint64_t seed);

}  // namespace figret::traffic
