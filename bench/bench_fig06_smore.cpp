// Figure 6: the Fig 5 comparison repeated with SMORE-style (Racke oblivious)
// path selection on GEANT and pFabric. "Pred TE" with these paths *is*
// SMORE (path selection by Racke, ratios optimized for predicted demand).
//
// Paper claim: path selection alone does not provide burst robustness —
// SMORE/Pred TE still has the worst tail, FIGRET still wins, and the scheme
// ordering matches Fig 5(a).
#include <iostream>

#include "bench_common.h"
#include "net/racke_paths.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "util/table.h"

namespace {

using namespace figret;

void run_scenario(const std::string& name) {
  bench::Scenario sc = bench::make_scenario(name);
  // Swap in SMORE's path selection.
  net::RackePathOptions ropt;
  ropt.paths_per_pair = 3;
  const te::PathSet ps =
      te::PathSet::build(sc.graph, net::racke_style_paths(sc.graph, ropt));

  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride;
  hopt.max_window = 12;
  te::Harness harness(ps, sc.trace, hopt);

  const bench::TrainProfile prof = bench::train_profile();
  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;

  util::Table t(bench::eval_header());
  te::FigretScheme figret(ps, fopt);
  t.add_row(bench::eval_row(harness.evaluate(figret)));
  te::FigretScheme dote(ps, te::dote_options(fopt), "DOTE");
  t.add_row(bench::eval_row(harness.evaluate(dote)));
  te::DesensitizationOptions dopt;
  dopt.max_bound = dopt.min_bound = 2.0 / 3.0;
  dopt.window = 8;
  te::DesensitizationTe des(ps, dopt);
  t.add_row(bench::eval_row(harness.evaluate(des)));
  // PredTE on Racke-selected paths is SMORE.
  te::DesensitizationTe smore = te::prediction_te(ps);
  te::SchemeEval ev = harness.evaluate(smore);
  ev.name = "SMORE/PredTE";
  t.add_row(bench::eval_row(ev));

  std::cout << "\n--- " << sc.name << " with Racke-style paths ("
            << harness.eval_indices().size() << " eval snapshots) ---\n";
  t.print(std::cout);
  bench::json_add_table(sc.name, t);
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Figure 6 — TE quality with SMORE (Racke) path selection",
      "path selection alone cannot fix robustness; FIGRET still best, "
      "SMORE/Pred TE worst tail",
      "Racke trees approximated by congestion-penalized path selection "
      "(README, \"Substitutions\")");
  for (const char* name : {"GEANT", "pFabric"}) run_scenario(name);
  bench::write_json("fig06_smore");
  return 0;
}
