// The two-stage configuration of DesensitizationTe (paper §4.2.1): an
// explicit predictor's point forecast under a linear variance-rank F.
#include "te/lp_schemes.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "net/yen.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/mlu.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

DesensitizationTe two_stage(const PathSet& ps,
                            std::unique_ptr<traffic::Predictor> predictor,
                            double min_bound = 1.0 / 3.0,
                            double max_bound = 2.0 / 3.0) {
  DesensitizationOptions opt;
  opt.min_bound = min_bound;
  opt.max_bound = max_bound;
  std::string name = "TwoStage(" + predictor->name() + ")";
  return DesensitizationTe(ps, opt, std::move(name), std::move(predictor));
}

TEST(TwoStage, RejectsBadConstruction) {
  const PathSet ps = mesh_pathset(4);
  EXPECT_THROW(
      two_stage(ps, std::make_unique<traffic::LastValuePredictor>(), 0.9, 0.3),
      std::invalid_argument);
}

TEST(TwoStage, FitBeforeAdviseEnforced) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationTe scheme =
      two_stage(ps, std::make_unique<traffic::LastValuePredictor>());
  std::vector<traffic::DemandMatrix> h(1, traffic::DemandMatrix(4, 1.0));
  EXPECT_THROW(scheme.advise(h), std::logic_error);
}

TEST(TwoStage, AdvisesTheCappedLpOnThePrediction) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationTe scheme =
      two_stage(ps, std::make_unique<traffic::MovingAveragePredictor>());
  const auto trace = traffic::dc_tor_trace(4, 120, 3);
  scheme.fit(trace.slice(0, 90));
  std::vector<traffic::DemandMatrix> h(trace.snapshots.begin() + 90,
                                       trace.snapshots.begin() + 98);
  const TeConfig cfg = scheme.advise(h);
  EXPECT_TRUE(valid_config(ps, cfg));
  // Exactly the LP of Eq. 5 on the predictor's output, under the frozen F.
  traffic::MovingAveragePredictor ref;
  const auto caps = sensitivity_caps(ps, scheme.pair_bounds());
  const MluLpResult lp = solve_mlu_lp(ps, ref.predict(h), &caps);
  ASSERT_TRUE(lp.optimal());
  EXPECT_EQ(cfg, normalize_config(ps, lp.config));
}

TEST(TwoStage, RespectsFineGrainedCaps) {
  const PathSet ps = mesh_pathset(4);
  DesensitizationTe scheme = two_stage(
      ps, std::make_unique<traffic::LastValuePredictor>(), 0.4, 0.7);
  const auto trace = traffic::dc_tor_trace(4, 120, 7);
  scheme.fit(trace.slice(0, 90));
  std::vector<traffic::DemandMatrix> h{trace[95]};
  const TeConfig cfg = scheme.advise(h);
  const auto sens = path_sensitivities(ps, cfg);
  // Every sensitivity obeys the loosest bound (tighter per-pair bounds are
  // checked by the heuristic-F suite, which runs the same F code).
  for (double s : sens) EXPECT_LE(s, 0.7 + 1e-6);
}

TEST(TwoStage, EndToEndBeatsTwoStageOnBurstyTraffic) {
  // The paper's §4.2.1 argument quantified: on bursty traffic, the
  // end-to-end DNN (which never commits to a point prediction) achieves a
  // lower average normalized MLU than the two-stage pipeline.
  const PathSet ps = mesh_pathset(5);
  const auto trace = traffic::dc_tor_trace(5, 220, 11);
  Harness::Options hopt;
  hopt.eval_stride = 3;
  hopt.max_window = 12;
  Harness harness(ps, trace, hopt);

  FigretOptions fopt;
  fopt.history = 8;
  fopt.hidden = {96, 96};
  fopt.epochs = 20;
  fopt.robust_weight = 2.0;
  FigretScheme figret(ps, fopt);
  const SchemeEval ev_e2e = harness.evaluate(figret);

  DesensitizationTe ewma =
      two_stage(ps, std::make_unique<traffic::EwmaPredictor>(0.4));
  const SchemeEval ev_two = harness.evaluate(ewma);

  EXPECT_LT(ev_e2e.average(), ev_two.average() * 1.05);
}

}  // namespace
}  // namespace figret::te
