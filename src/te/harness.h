// Experiment harness (§5 methodology): chronological train/test split,
// omniscient-normalized MLU evaluation, severe-congestion counting, solve
// timing, and the link-failure protocol of §5.3.
//
// All schemes evaluated through one Harness share the same test snapshots
// and the same (cached) omniscient normalizer, so their normalized-MLU
// distributions are directly comparable — the construction behind Fig 5.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/failover.h"
#include "te/pathset.h"
#include "te/scheme.h"
#include "traffic/demand.h"
#include "util/stats.h"

namespace figret::te {

struct SchemeEval {
  std::string name;
  /// One entry per evaluated test snapshot.
  std::vector<double> raw_mlu;
  std::vector<double> normalized;  // raw / omniscient
  /// Mean wall-clock seconds of one advise() call (the Table 2 metric).
  double mean_advise_seconds = 0.0;
  /// Snapshots with normalized MLU > 2 (§5.2 "severe congestion").
  std::size_t severe_congestion = 0;

  util::BoxStats stats() const { return util::box_stats(normalized); }
  double average() const { return util::mean(normalized); }
};

class Harness {
 public:
  struct Options {
    double train_fraction = 0.75;
    /// Evaluate every k-th test snapshot (> 1 keeps LP baselines tractable;
    /// identical indices are used for every scheme).
    std::size_t eval_stride = 1;
    /// History snapshots available before the first test index must cover
    /// the largest scheme window.
    std::size_t max_window = 16;
    /// Execution width for per-snapshot work (omniscient LP solves and MLU
    /// evaluation): 0 = the process-wide pool (FIGRET_THREADS / hardware),
    /// 1 = serial reference mode. Results are bit-identical either way: MLU
    /// scoring is independent per snapshot, and the omniscient LP solves are
    /// chained only within fixed `warm_chunk` chunks whose boundaries never
    /// depend on the execution width.
    std::size_t threads = 0;
    /// Solver settings for the omniscient-normalizer solves.
    lp::SolverOptions solver;
    /// Upper bound on consecutive snapshots chained through one
    /// lp::WarmStart handle. Chaining serializes solves within a chunk, so
    /// the effective chunk shrinks on short sweeps to keep at least ~32
    /// independent chunks available to the thread pool (a chunk is the unit
    /// of parallelism). Chunk boundaries depend only on this value and the
    /// eval count — never on `threads` — so serial and pooled runs stay
    /// bit-identical. 0 disables warm-start chaining entirely.
    std::size_t warm_chunk = 8;
  };

  Harness(const PathSet& ps, traffic::TrafficTrace trace);
  Harness(const PathSet& ps, traffic::TrafficTrace trace, const Options& opt);

  const PathSet& path_set() const noexcept { return *ps_; }
  const traffic::TrafficTrace& trace() const noexcept { return trace_; }
  /// Chronological training prefix (what schemes' fit() receives).
  traffic::TrafficTrace train_trace() const;
  std::size_t test_begin() const noexcept { return split_; }
  const std::vector<std::size_t>& eval_indices() const noexcept {
    return eval_indices_;
  }

  /// Omniscient MLU per evaluated snapshot (lazy, cached, shared).
  const std::vector<double>& omniscient();

  /// Fits (unless told not to) and evaluates a scheme over the test range.
  SchemeEval evaluate(TeScheme& scheme, bool fit = true);

  /// §5.3 protocol: the scheme computes configs unaware of failures, traffic
  /// is rerouted around dead paths (§4.5), and results are normalized by a
  /// failure-aware omniscient oracle.
  SchemeEval evaluate_under_failures(TeScheme& scheme,
                                     const std::vector<net::EdgeId>& failed,
                                     bool fit = true);

 private:
  std::vector<double> omniscient_for_alive(const std::vector<bool>* alive);
  /// MLU of `configs` (one per eval index) against the realized demand,
  /// fanned out over util::parallel_for in fixed-size chunks (each with its
  /// own reroute/edge-load scratch). With `alive`, traffic reroutes around
  /// dead paths (§4.5) before scoring. Pure per snapshot, so bit-identical at
  /// any width.
  std::vector<double> score_batch(const std::vector<TeConfig>& configs,
                                  const std::vector<bool>* alive);
  /// Runs the (stateful, serial) timed advise loop over every eval index;
  /// accumulates wall-clock into *advise_seconds.
  std::vector<TeConfig> advise_all(TeScheme& scheme, std::size_t window,
                                   double* advise_seconds);
  SchemeEval finish(std::string name, std::vector<double> raw,
                    const std::vector<double>& reference,
                    double total_seconds);

  const PathSet* ps_;
  traffic::TrafficTrace trace_;
  Options opt_;
  std::size_t split_ = 0;
  std::vector<std::size_t> eval_indices_;
  /// Guards lazy materialization of omniscient_ so concurrent evaluate
  /// calls on one Harness share a single normalizer computation.
  std::mutex omniscient_mu_;
  std::optional<std::vector<double>> omniscient_;
};

}  // namespace figret::te
