// Linear-programming TE: the optimization core (paper Appendix B) and the
// LP-based baselines of §5.1, §4.2.1 and Appendix C. Every baseline solves
// the same min-MLU LP on an anticipated demand under per-pair sensitivity
// caps r_p <= F(s,d) * C_p (Eq. 4/5); they differ only in how the demand is
// anticipated and how F is chosen, so one class, DesensitizationTe, covers
// them all:
//   * Demand-prediction TE  (prediction_te: the last snapshot, no cap)
//   * Desensitization TE    (Google Jupiter's "Hedging": per-pair peak of
//     the window, one uniform bound F)
//   * Fault-aware Des TE    (the same, told in advance which paths survive)
//   * Heuristic F           (Appendix C: F set by training-variance rank)
//   * Two-stage TE          (§4.2.1: an explicit predictor's point forecast)
// The Omniscient TE normalizer is solve_mlu_lp on the true upcoming demand.
//
// Every solve goes through lp::solve_with (the sparse revised simplex), so
// call sites tune budgets and tolerances via lp::SolverOptions and may chain
// consecutive solves through an lp::WarmStart handle — successive
// snapshots share the constraint structure, so the previous optimal basis
// usually re-primes the next solve down to a handful of pivots.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/scheme.h"
#include "traffic/predictor.h"

namespace figret::te {

struct MluLpResult {
  TeConfig config;
  double mlu = 0.0;
  /// Engine verdict — callers must propagate non-optimal statuses (most
  /// importantly kIterationLimit and kNumerical) as errors, never use a
  /// partial solution.
  lp::Status status = lp::Status::kIterationLimit;
  /// Simplex pivots spent on this solve (Table 2 observability).
  std::size_t pivots = 0;
  /// The subset of `pivots` spent in the dual simplex (warm RHS resolves).
  std::size_t dual_pivots = 0;
  /// The solve finished from a re-primed warm basis (primal or dual path).
  bool warm_start_used = false;
  /// Why a warm-start attempt fell back cold (kNone: it did not).
  lp::WarmFallback warm_fallback = lp::WarmFallback::kNone;
  /// The solver assembled the standard form instead of rewriting the warm
  /// handle's cached one in place (lp::SolveStats::rebuilt).
  bool rebuilt = false;
  /// Warm primes refactorized in the kept pivot order
  /// (lp::SolveStats::inorder_refactorizations).
  std::size_t inorder_refactorizations = 0;

  bool optimal() const noexcept { return status == lp::Status::kOptimal; }
};

/// Builds the MLU LP (Appendix B):  min U  over split ratios on the candidate
/// paths. Variable p is path p's ratio and variable num_paths() is U, with or
/// without a mask: `alive` only sets bounds and right-hand sides (see
/// solve_mlu_lp), so every mask gives the LP the same shape. Exposed
/// separately from solve_mlu_lp so tests can verify duality certificates on
/// the real TE LPs.
lp::LpProblem build_mlu_lp(const PathSet& ps,
                           const traffic::DemandMatrix& demand,
                           const std::vector<double>* ratio_cap = nullptr,
                           const std::vector<bool>* alive = nullptr);

/// In-place form of build_mlu_lp: rebuilds `prob` in its own storage, so
/// rebuilding a same-shaped LP allocates nothing.
void build_mlu_lp_into(const PathSet& ps, const traffic::DemandMatrix& demand,
                       const std::vector<double>* ratio_cap,
                       const std::vector<bool>* alive, lp::LpProblem& prob);

/// Solves  min_R MLU(R, demand)  over the candidate paths (Appendix B).
///
/// `ratio_cap`  — optional per-path upper bound on split ratios (the
///                sensitivity constraint r_p <= F(s,d) * C_p of Eq. 4);
///                entries >= 1 are vacuous and dropped.
/// `alive`      — optional path mask for fault-aware variants; a dead path's
///                ratio is bounded by 0, and a pair with no live path sums
///                to 0 (its demand is dropped). A mask swap keeps the LP's
///                shape, so a warm chain re-optimizes across it.
/// `solver`     — solver settings; nullptr uses SolverOptions{}.
/// `warm`       — optional warm-start handle chaining consecutive solves.
MluLpResult solve_mlu_lp(const PathSet& ps,
                         const traffic::DemandMatrix& demand,
                         const std::vector<double>* ratio_cap = nullptr,
                         const std::vector<bool>* alive = nullptr,
                         const lp::SolverOptions* solver = nullptr,
                         lp::WarmStart* warm = nullptr);

/// Caller-owned buffers for repeated solve_mlu_lp calls. Together with the
/// warm handle's cached engine they make a re-solve of a same-shaped LP
/// allocation-free once they have grown.
struct MluLpScratch {
  lp::LpProblem problem;  // the last LP built
  lp::LpResult solution;  // its solve: x and the duals y
  MluLpResult result;     // its config storage is reused
};

/// solve_mlu_lp in `scratch`: builds into scratch.problem, solves, and
/// fills and returns scratch.result. Bit-identical to the allocating form.
const MluLpResult& solve_mlu_lp(const PathSet& ps,
                                const traffic::DemandMatrix& demand,
                                const std::vector<double>* ratio_cap,
                                const std::vector<bool>* alive,
                                const lp::SolverOptions* solver,
                                lp::WarmStart* warm, MluLpScratch& scratch);

/// Per-path ratio caps realizing a sensitivity bound: cap_p = F_sd * C_p.
/// Guarantees per-pair feasibility (sum of caps >= 1) by proportionally
/// relaxing any pair whose caps are collectively too tight — the paper's
/// Appendix C feasibility caveat ("Min should not be less than 1/n").
/// With an `alive` mask only live paths count toward a pair's sum, and a pair
/// with no live path is left unrelaxed. Every F must be > 0 (+inf means no
/// cap); NaN or F <= 0 throws std::invalid_argument.
std::vector<double> sensitivity_caps(const PathSet& ps,
                                     const std::vector<double>& f_per_pair,
                                     const std::vector<bool>* alive = nullptr);

/// Shape of the variance-rank -> bound mapping (Appendix C).
enum class FShape { kLinear, kPiecewise };

struct DesensitizationOptions {
  /// Sensitivity bound F of the most stable pair (lenient; Appendix C
  /// "Original" uses 2/3 with capacities normalized to min 1) ...
  double max_bound = 2.0 / 3.0;
  /// ... and of the most bursty pair (strict). Equal bounds give one uniform
  /// F, fixed at construction; otherwise fit() ranks pairs by training
  /// variance. +inf on both disables the caps.
  double min_bound = 2.0 / 3.0;
  /// Rank -> bound mapping when the bounds differ: linear from max_bound to
  /// min_bound (Fig 9), or piecewise (Fig 11) with the `breakpoint` fraction
  /// of pairs (by ascending variance) at max_bound and the rest at min_bound.
  FShape shape = FShape::kLinear;
  double breakpoint = 0.8;
  /// History window handed to the predictor.
  std::size_t window = 12;
  /// LP engine for the per-advise solve (warm-started across snapshots).
  lp::SolverOptions solver;
};

/// The sensitivity-capped LP scheme: each advise() anticipates the demand
/// with `predictor` (null: traffic::PeakPredictor) and solves the MLU LP
/// under the caps of F. With a non-empty `alive` mask it optimizes over the
/// live paths only (§5.3 "FA Des TE") and normalizes over them, so dead
/// paths and disconnected pairs stay 0.
class DesensitizationTe final : public TeScheme {
 public:
  explicit DesensitizationTe(
      const PathSet& ps, const DesensitizationOptions& opt = {},
      std::string name = "DesTE",
      std::unique_ptr<traffic::Predictor> predictor = nullptr,
      std::vector<bool> alive = {});
  std::string name() const override { return name_; }
  /// Freezes a variance-rank F on the training trace; a no-op when F is
  /// uniform.
  void fit(const traffic::TrafficTrace& train) override;
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override;
  std::size_t history_window() const override { return opt_.window; }

  /// The per-pair bounds F (empty until fit() for a variance-rank F).
  const std::vector<double>& pair_bounds() const noexcept { return f_; }

 private:
  const std::vector<bool>* alive_mask() const noexcept {
    return alive_.empty() ? nullptr : &alive_;
  }

  const PathSet* ps_;
  DesensitizationOptions opt_;
  std::string name_;
  std::unique_ptr<traffic::Predictor> predictor_;
  std::vector<bool> alive_;
  std::vector<double> f_;
  std::vector<double> caps_;
  lp::WarmStart warm_;  // consecutive advise() solves share structure
};

/// Demand-prediction-based TE [2,23,24] ("PredTE"): the uncapped LP on the
/// previous snapshot.
DesensitizationTe prediction_te(const PathSet& ps);

}  // namespace figret::te
