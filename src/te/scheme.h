// Common interface of the TE schemes compared in §5: a scheme is fitted once
// on the training prefix of a trace, then asked at every test epoch t for a
// configuration R_t given only the demand history {D_{t-H}, ..., D_{t-1}}
// (the paper's Eq. 1 information model — never the upcoming demand itself).
#pragma once

#include <span>
#include <stdexcept>
#include <string>

#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::te {

class TeScheme {
 public:
  virtual ~TeScheme() = default;

  virtual std::string name() const = 0;

  /// One-time precomputation / training on the chronological training split.
  virtual void fit(const traffic::TrafficTrace& train) = 0;

  /// TE configuration for the next epoch, given the most recent demands
  /// (oldest first, most recent last). `history` always contains at least
  /// history_window() snapshots.
  virtual TeConfig advise(
      std::span<const traffic::DemandMatrix> history) = 0;

  /// Allocation-conscious variant for the streaming serving loop: writes the
  /// configuration into `out` (resized as needed), so a caller that reuses
  /// `out` across snapshots keeps the hot path allocation-free once buffers
  /// reach steady-state capacity. The default delegates to advise(); schemes
  /// on the serving hot path (FIGRET) override it to reuse scratch.
  virtual void advise_into(std::span<const traffic::DemandMatrix> history,
                           TeConfig& out) {
    out = advise(history);
  }

  /// The most histories the serving loop passes to one advise_batch_into
  /// call. Schemes with per-row scratch size it for this many rows. Picked
  /// by measurement: on the dc-burst bench workload, batches of up to 8
  /// raised the median capacity by 9% over 4, less than the spread of 4's
  /// own runs, and served 3% slower at the median.
  static constexpr std::size_t kMaxBatch = 4;

  /// Batched advise_into: writes the configuration for histories[i] into
  /// outs[i] (equal lengths, std::invalid_argument otherwise). Each result
  /// must be bit-identical to advise_into on that history alone. The
  /// default loops over advise_into; a scheme that can share work across
  /// the batch (FIGRET: one sweep of its weights) overrides it. If it
  /// throws, the outputs are unspecified.
  virtual void advise_batch_into(
      std::span<const std::span<const traffic::DemandMatrix>> histories,
      std::span<TeConfig> outs) {
    if (histories.size() != outs.size())
      throw std::invalid_argument(
          "advise_batch_into: histories and outputs differ in length");
    for (std::size_t i = 0; i < histories.size(); ++i)
      advise_into(histories[i], outs[i]);
  }

  /// How many historical snapshots advise() wants to see.
  virtual std::size_t history_window() const { return 1; }
};

}  // namespace figret::te
