// Figure 5: TE quality of FIGRET vs baselines across the paper's eight
// topology/trace combinations, as omniscient-normalized MLU distributions.
//
// Paper claims to reproduce (shape, not absolute numbers):
//  * FIGRET beats Des TE (Google Jupiter) on average everywhere;
//  * FIGRET matches DOTE on stable traces and beats it in the tail (fewer
//    severe-congestion events, normalized MLU > 2) on bursty ToR traces;
//  * Pred TE has bad tails under bursts; TEAL degrades on unexpected bursts;
//  * Oblivious / COPE only run on the small topologies (cf. Table 2).
#include <chrono>
#include <iostream>
#include <memory>
#include <string>

#include "bench_common.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "te/oblivious.h"
#include "util/table.h"

namespace {

using namespace figret;

void run_scenario(const std::string& name) {
  const bench::Scenario sc = bench::make_scenario(name);
  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride;
  hopt.max_window = 12;
  te::Harness harness(sc.ps, sc.trace, hopt);

  const bench::TrainProfile prof = bench::train_profile();
  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;

  util::Table t(bench::eval_header());

  te::FigretScheme figret(sc.ps, fopt);
  t.add_row(bench::eval_row(harness.evaluate(figret)));

  te::FigretScheme dote(sc.ps, te::dote_options(fopt), "DOTE");
  t.add_row(bench::eval_row(harness.evaluate(dote)));

  te::DesensitizationOptions dopt;
  // Appendix C's "Original" setting.
  dopt.max_bound = dopt.min_bound = 2.0 / 3.0;
  dopt.window = 8;
  te::DesensitizationTe des(sc.ps, dopt);
  t.add_row(bench::eval_row(harness.evaluate(des)));

  te::DesensitizationTe pred = te::prediction_te(sc.ps);
  t.add_row(bench::eval_row(harness.evaluate(pred)));

  te::FigretScheme teal(sc.ps, te::teal_options(fopt), "TEAL");
  t.add_row(bench::eval_row(harness.evaluate(teal)));

  // Oblivious & COPE: small topologies only (paper Table 2: infeasible at
  // ToR scale). A wall-clock budget substitutes for the paper's 1-day cap;
  // each row names the LP status and the solve's wall time.
  const bool small = sc.ps.num_nodes() <= 23;
  if (small) {
    te::HoseRobustOptions ropt;
    ropt.time_budget_seconds = bench::full_mode() ? 600.0 : 45.0;
    for (const double penalty_ratio : {0.0, 2.0}) {  // Oblivious, COPE
      ropt.penalty_ratio = penalty_ratio;
      te::HoseRobustTe robust(sc.ps, ropt);
      const auto t0 = std::chrono::steady_clock::now();
      robust.fit(harness.train_trace());
      const std::chrono::duration<double> fit_time =
          std::chrono::steady_clock::now() - t0;
      te::SchemeEval ev = harness.evaluate(robust, /*fit=*/false);
      ev.name += std::string(" (") + lp::to_string(robust.result().status) +
                 ", " + util::fmt(fit_time.count(), 1) + "s)";
      t.add_row(bench::eval_row(ev));
    }
  }

  std::cout << "\n--- " << sc.name << " (" << sc.note << "; "
            << harness.eval_indices().size() << " eval snapshots) ---\n";
  t.print(std::cout);
  bench::json_add_table(sc.name, t);
}

}  // namespace

int main() {
  bench::print_header(
      std::cout,
      "Figure 5 — normalized MLU, FIGRET vs baselines (8 topologies)",
      "FIGRET balances normal-case and burst-case; beats Des TE by 9-34% "
      "avg; fewer severe-congestion events than DOTE on bursty ToR traces",
      "ToR/Topology-Zoo instances scaled down; see per-scenario notes");
  for (const std::string& name : bench::scenario_names()) run_scenario(name);
  bench::write_json("fig05_tequality");
  return 0;
}
