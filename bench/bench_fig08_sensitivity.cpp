// Figure 8: interpreting FIGRET — the relationship between a pair's traffic
// variance (x) and the average max path sensitivity of the paths serving it
// (y), for Hedge-based TE vs FIGRET on the Meta DB cluster (PoD and ToR).
//
// Paper claims:
//  * Hedging caps every pair's sensitivity at one constant, regardless of
//    traffic character;
//  * FIGRET assigns high-variance (bursty) pairs LOW max sensitivity (high
//    robustness) while letting stable pairs concentrate on their best path.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "bench_common.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/stats.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace figret;

/// Mean S^max per pair over the evaluated snapshots.
std::vector<double> mean_sensitivities(const bench::Scenario& sc,
                                       te::Harness& harness,
                                       te::TeScheme& scheme) {
  const std::size_t window = std::max<std::size_t>(1, scheme.history_window());
  std::vector<double> acc(sc.ps.num_pairs(), 0.0);
  std::size_t count = 0;
  for (const std::size_t t : harness.eval_indices()) {
    const std::span<const traffic::DemandMatrix> history{
        sc.trace.snapshots.data() + (t - window), window};
    const te::TeConfig cfg = scheme.advise(history);
    const auto smax = te::max_pair_sensitivities(sc.ps, cfg);
    for (std::size_t p = 0; p < acc.size(); ++p) acc[p] += smax[p];
    ++count;
  }
  for (double& v : acc) v /= static_cast<double>(count);
  return acc;
}

void print_binned(const std::string& label, const std::vector<double>& var,
                  const std::vector<double>& sens) {
  // Bin pairs by variance rank into quintiles and report mean sensitivity.
  std::vector<std::size_t> order(var.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return var[a] < var[b]; });
  util::Table t({"variance quintile", "mean S^max", "max S^max"});
  const std::size_t per = std::max<std::size_t>(1, order.size() / 5);
  for (std::size_t q = 0; q < 5; ++q) {
    const std::size_t begin = q * per;
    const std::size_t end = q == 4 ? order.size() : (q + 1) * per;
    if (begin >= order.size()) break;
    double mean = 0.0, mx = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      mean += sens[order[i]];
      mx = std::max(mx, sens[order[i]]);
    }
    mean /= static_cast<double>(end - begin);
    std::string quintile = "Q";
    quintile += std::to_string(q + 1);
    if (q == 0) quintile += " (stable)";
    if (q == 4) quintile += " (bursty)";
    t.add_row({quintile, util::fmt(mean, 4), util::fmt(mx, 4)});
  }
  std::cout << label << ":\n";
  t.print(std::cout);
  bench::json_add_table(label, t);
  std::cout << "Spearman(variance, S^max) = "
            << util::fmt(util::spearman(var, sens), 4) << "\n\n";
}

void run_scenario(const std::string& name) {
  const bench::Scenario sc = bench::make_scenario(name);
  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride * 2;
  hopt.max_window = 12;
  te::Harness harness(sc.ps, sc.trace, hopt);
  const auto var = traffic::normalized_pair_variances(harness.train_trace());

  std::cout << "\n--- " << sc.name << " (" << sc.note << ") ---\n";

  te::DesensitizationOptions dopt;
  dopt.max_bound = dopt.min_bound = 0.5;
  dopt.window = 8;
  te::DesensitizationTe hedge(sc.ps, dopt);
  hedge.fit(harness.train_trace());
  const auto hedge_sens = mean_sensitivities(sc, harness, hedge);
  print_binned(sc.name + ": Hedge-based TE (uniform cap 0.5)", var,
               hedge_sens);
  const double hedge_max =
      *std::max_element(hedge_sens.begin(), hedge_sens.end());
  std::cout << "check: hedge sensitivities capped at 0.5: "
            << (hedge_max <= 0.5 + 1e-6 ? "yes" : "NO") << "\n\n";
  bench::json_add_check(sc.name + ": hedge sensitivities capped at 0.5",
                        hedge_max <= 0.5 + 1e-6);

  const bench::TrainProfile prof = bench::train_profile();
  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;
  te::FigretScheme figret(sc.ps, fopt);
  figret.fit(harness.train_trace());
  const auto fig_sens = mean_sensitivities(sc, harness, figret);
  print_binned(sc.name + ": FIGRET", var, fig_sens);
  std::cout << "check: FIGRET sensitivity anti-correlates with variance "
               "(bursty pairs pushed to low sensitivity): "
            << (util::spearman(var, fig_sens) < 0.0 ? "yes" : "NO") << '\n';
  bench::json_add_check(
      sc.name + ": FIGRET sensitivity anti-correlates with variance",
      util::spearman(var, fig_sens) < 0.0);
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Figure 8 — path sensitivity vs traffic variance",
      "Hedging caps every pair uniformly; FIGRET trades sensitivity in a "
      "fine-grained way (low for bursty pairs, free for stable ones)",
      "");
  for (const char* name : {"PoD-DB", "ToR-DB"}) run_scenario(name);
  bench::write_json("fig08_sensitivity");
  return 0;
}
