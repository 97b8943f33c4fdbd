// Dense-tableau reference simplex: the differential oracle for the LP test
// battery and the cold-solve baseline column of bench_tab02_timing. It is
// built as the figret_oracles library, for tests and benches only; the
// library's own LP path is lp::solve_with (lp/revised_simplex.h).
//
// A two-phase primal simplex on a dense tableau with native support for
// variable upper bounds. It shares nothing with the revised engine but the
// model types of lp/problem.h, so agreement between the two is evidence:
//  * Dantzig pricing with an automatic switch to Bland's rule for
//    anti-cycling after `SolveOptions::bland_after` pivots;
//  * detects infeasibility (phase-1 residual) and unboundedness;
//  * row duals are read off the final reduced-cost row, so optimal results
//    carry the same strong-duality certificate (lp/certificates.h).
#pragma once

#include "lp/problem.h"

namespace figret::lp {

/// Solves the LP. The result vector `x` is populated only when optimal;
/// `iterations` counts pivots and bound flips.
LpResult solve(const LpProblem& problem, const SolveOptions& options = {});

}  // namespace figret::lp
