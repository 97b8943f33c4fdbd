// Figures 14 & 15 (Appendix E): the Fig 7 link-failure protocol repeated on
// pFabric and on the ToR-level Meta DB fabric.
//
// Paper claim: same ordering as Fig 7; on highly dynamic ToR traffic even
// the failure-aware Des TE is unsatisfactory, while FIGRET stays close to
// the failure-aware oracle.
#include <iostream>

#include "bench_common.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "util/table.h"

namespace {

using namespace figret;

void run(const std::string& scenario_name) {
  const bench::Scenario sc = bench::make_scenario(scenario_name);
  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride * 2;
  hopt.max_window = 12;
  te::Harness harness(sc.ps, sc.trace, hopt);

  const bench::TrainProfile prof = bench::train_profile();
  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;

  te::FigretScheme figret(sc.ps, fopt);
  figret.fit(harness.train_trace());
  te::FigretScheme dote(sc.ps, te::dote_options(fopt), "DOTE");
  dote.fit(harness.train_trace());

  te::DesensitizationOptions dopt;
  dopt.max_bound = dopt.min_bound = 0.5;
  dopt.window = 8;

  for (std::size_t failures = 1; failures <= 3; ++failures) {
    const auto failed =
        te::sample_safe_failures(sc.ps, failures, 2000 + failures);
    const auto alive = te::surviving_paths(sc.ps, failed);

    util::Table t(bench::eval_header());
    t.add_row(bench::eval_row(
        harness.evaluate_under_failures(figret, failed, /*fit=*/false)));
    t.add_row(bench::eval_row(
        harness.evaluate_under_failures(dote, failed, /*fit=*/false)));
    te::DesensitizationTe des(sc.ps, dopt);
    t.add_row(bench::eval_row(harness.evaluate_under_failures(des, failed)));
    te::DesensitizationTe fa(sc.ps, dopt, "FA-DesTE", nullptr, alive);
    t.add_row(bench::eval_row(harness.evaluate_under_failures(fa, failed)));

    std::cout << "\n--- " << sc.name << ", " << failures
              << " random link failure(s) ---\n";
    t.print(std::cout);
    bench::json_add_table(sc.name + ", " + std::to_string(failures) +
                              " failure(s)",
                          t);
  }
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Figures 14/15 — link failures on pFabric and ToR-level DB",
      "FIGRET resilient to failures on DC fabrics; Des TE unsatisfactory "
      "under highly dynamic ToR traffic even when failure-aware",
      "ToR fabric scaled down (README, \"Substitutions\")");
  run("pFabric");
  run("ToR-DB");
  bench::write_json("fig14_15_failures_dc");
  return 0;
}
