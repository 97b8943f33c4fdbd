// WCMP quantization — the deployment stage between a TE configuration and
// switch hardware.
//
// The paper positions FIGRET as deployable on commodity switches: it "does
// not require specialized hardware and only needs switches that support
// WCMP" (§7). WCMP tables hold small integer weights per next hop, so the
// real-valued split ratios must be quantized. This module converts a
// configuration into per-pair integer weights with a bounded weight sum and
// minimal rounding error, and quantifies the MLU cost of quantization
// (exercised in tests and the quantization ablation).
#pragma once

#include <cstdint>
#include <vector>

#include "te/pathset.h"

namespace figret::te {

/// Integer WCMP weights, one per global path id (pair-aligned like TeConfig).
using WcmpWeights = std::vector<std::uint32_t>;

/// Reusable scratch for quantize_wcmp_into: one per serving worker keeps the
/// install stage allocation-free in steady state.
struct WcmpScratch {
  std::vector<std::pair<double, std::size_t>> remainders;
};

/// Quantizes `config` so that each pair's weights are non-negative integers
/// with sum exactly `table_size` (>= 1). Uses largest-remainder rounding,
/// which minimizes the per-pair L1 rounding error among all integer
/// apportionments with that sum. Paths with ratio 0 receive weight 0; every
/// pair keeps at least one positive weight.
WcmpWeights quantize_wcmp(const PathSet& ps, const TeConfig& config,
                          std::uint32_t table_size = 16);

/// Allocation-free variant: writes the weights into `out` (resized once to
/// num_paths), reusing `scratch`. Bit-identical to quantize_wcmp.
void quantize_wcmp_into(const PathSet& ps, const TeConfig& config,
                        std::uint32_t table_size, WcmpWeights& out,
                        WcmpScratch& scratch);

/// Reconstructs the effective split ratios a WCMP switch realizes.
TeConfig ratios_from_wcmp(const PathSet& ps, const WcmpWeights& weights);

/// Allocation-free variant of ratios_from_wcmp.
void ratios_from_wcmp_into(const PathSet& ps, const WcmpWeights& weights,
                           TeConfig& out);

/// One serving worker's WCMP install: the config it last quantized, bit for
/// bit, and what that installed. install_wcmp_into re-quantizes only the
/// pairs whose ratios changed since.
struct WcmpInstall {
  /// The config last installed, and its table size (0 before the first).
  TeConfig config;
  std::uint32_t table_size = 0;
  WcmpWeights weights;
  /// ratios_from_wcmp of `weights`: the ratios the switches realize.
  TeConfig realized;
  WcmpScratch scratch;

  /// Sizes every buffer for `ps` and forgets the last install, so the next
  /// one quantizes every pair and allocates nothing.
  void reset(const PathSet& ps);
};

/// Installs `config`: afterwards state.weights and state.realized hold
/// exactly what quantize_wcmp_into and ratios_from_wcmp_into give for it,
/// and the return value is the largest |realized - config| over all paths.
/// Only the pairs whose ratios differ bitwise from the last install's (all
/// of them after reset() or a table-size change) are re-quantized.
/// Throws std::invalid_argument on a config of the wrong size or a zero
/// table size, leaving `state` as it was.
double install_wcmp_into(const PathSet& ps, const TeConfig& config,
                         std::uint32_t table_size, WcmpInstall& state);

/// Largest per-path absolute ratio error introduced by quantization.
double quantization_error(const PathSet& ps, const TeConfig& config,
                          const WcmpWeights& weights);

}  // namespace figret::te
