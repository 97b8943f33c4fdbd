// Sparse revised simplex (primal + dual) over a Forrest–Tomlin LU basis:
// the library's one LP engine. Every LP call site solves an LpProblem
// (lp/problem.h) through solve_with. A dense-tableau reference simplex lives
// with the tests (tests/support/dense_simplex.h) as their differential
// oracle; it is not part of the library.
//
// Design:
//  * the constraint matrix is stored in CSC (lp/sparse.h) and never
//    modified during a solve — pricing is O(nnz), not O(rows * cols). A
//    WarmStart handle keeps it, with the LU and every scratch buffer, from
//    one solve to the next: a same-pattern LP only rewrites its numbers;
//  * the basis inverse is a Markowitz-ordered sparse LU factorization with
//    Forrest–Tomlin column-replacement updates (lp/lu.h). Each pivot is
//    absorbed by one cheap update; the factorization is rebuilt every
//    `refactor_interval` updates (or immediately when an update is
//    numerically unsafe) to bound drift and update-eta length;
//  * variable upper bounds are handled natively: nonbasic variables rest at
//    either bound, the ratio test caps steps at both bounds, and bound flips
//    cost no basis change;
//  * pricing is devex (Forrest & Goldfarb reference weights), which keeps
//    pivot counts near steepest-edge at Dantzig cost; Bland's rule takes
//    over after `SolveOptions::bland_after` pivots as the anti-cycling
//    backstop;
//  * an optimal basis can be captured in a WarmStart handle and re-primed
//    into the next solve. The prime refactorizes it numerically in the
//    pivot order the handle kept (LuFactorization::refactor), falling back
//    to the Markowitz factorization when a pivot fails the threshold test.
//    When the re-primed basis is primal feasible the solve continues with
//    the primal simplex; when an RHS-only change left it primal-infeasible
//    (but still dual feasible — the typical failure-masked-capacity
//    resolve) the **dual simplex** re-optimizes it in a handful of pivots
//    instead of falling back to a cold two-phase start. Cold fallbacks that
//    do happen are recorded per reason in SolveStats::fallback and the
//    WarmStart handle.
//
// The dual path is an accelerator, never an authority: after it reaches
// primal feasibility the primal phase 2 certifies optimality, and any dual
// breakdown (stall, numerical collapse, apparent infeasibility) reruns the
// solve cold, so warm starts cannot change which answer is returned.
#pragma once

#include "lp/problem.h"
#include "lp/warm_start.h"

namespace figret::lp {

/// Solver settings shared by all LP call sites.
struct SolverOptions {
  /// Pivot caps, tolerances and the wall-clock budget.
  SolveOptions simplex;
  /// Forrest–Tomlin updates between LU rebuilds.
  std::size_t refactor_interval = 96;
};

/// Per-solve observability (pivot counts for Table-2-style benches).
struct SolveStats {
  /// All basis changes and bound flips, primal and dual phases combined.
  std::size_t pivots = 0;
  /// The subset of `pivots` performed by the dual simplex.
  std::size_t dual_pivots = 0;
  /// Basis factorizations of both kinds: full_refactorizations +
  /// inorder_refactorizations.
  std::size_t refactorizations = 0;
  /// Factorizations with a Markowitz pivot search (LuFactorization::
  /// factorize), in-order fallbacks included.
  std::size_t full_refactorizations = 0;
  /// Warm primes refactorized numerically in the handle's kept pivot order
  /// (LuFactorization::refactor).
  std::size_t inorder_refactorizations = 0;
  /// Warm primes whose kept order failed (a pivot under the threshold, a
  /// changed basis-column pattern) and fell back to a full factorization.
  std::size_t inorder_fallbacks = 0;
  /// Wall time spent factorizing, both kinds.
  double factorize_seconds = 0.0;
  /// Forrest–Tomlin updates absorbed without a rebuild.
  std::size_t ft_updates = 0;
  bool warm_start_attempted = false;
  /// The warm basis was accepted and the solve finished from it (via the
  /// primal path or the dual path — see `dual_simplex_used`).
  bool warm_start_used = false;
  /// The warm basis was primal-infeasible and the dual simplex re-optimized
  /// it (implies warm_start_used when the solve finished warm).
  bool dual_simplex_used = false;
  /// The wall-clock budget (SolveOptions::time_limit_seconds) expired and
  /// the solve returned Status::kDeadline. Never triggers a cold retry —
  /// the budget is a hard ceiling on this attempt, and retry policy belongs
  /// to the caller (te::ServingLoop backs off and retries with a fresh
  /// budget).
  bool deadline_hit = false;
  /// A refactorization found the basis numerically singular mid-solve; the
  /// attempt then reports Status::kNumerical (a warm attempt is rerun cold
  /// first, so the final status is the cold run's).
  bool singular_basis = false;
  /// Why this solve abandoned its warm basis (kNone: it kept it, or no warm
  /// start was attempted). Mirrors the per-reason counters on WarmStart.
  WarmFallback fallback = WarmFallback::kNone;
  /// The standard form was assembled (always without a WarmStart handle;
  /// with one, on its first solve and whenever the nonzero pattern or the
  /// normalized relations changed) rather than rewritten in place.
  bool rebuilt = false;
};

/// Solves the LP. `warm` (optional, in/out) re-primes this solve and
/// captures the optimal basis for the next one, and the solve runs in its
/// cached engine (see lp/warm_start.h); `stats` (optional, out) reports
/// pivot/refactorization counts.
LpResult solve_with(const LpProblem& problem, const SolverOptions& options = {},
                    WarmStart* warm = nullptr, SolveStats* stats = nullptr);

}  // namespace figret::lp
