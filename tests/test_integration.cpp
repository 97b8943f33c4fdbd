// End-to-end integration tests: full pipeline (topology -> paths -> traffic
// -> schemes -> harness) on small instances, checking the paper's headline
// orderings hold directionally.
#include <gtest/gtest.h>

#include "net/racke_paths.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

struct Pipeline {
  net::Graph graph;
  PathSet ps;
  Harness harness;

  Pipeline(net::Graph g, traffic::TrafficTrace trace, std::size_t stride)
      : graph(std::move(g)),
        ps(PathSet::build(graph, net::all_pairs_k_shortest(graph, 3))),
        harness(ps, std::move(trace), make_options(stride)) {}

  static Harness::Options make_options(std::size_t stride) {
    Harness::Options opt;
    opt.eval_stride = stride;
    opt.max_window = 12;
    return opt;
  }
};

FigretOptions small_figret() {
  FigretOptions opt;
  opt.history = 4;
  opt.hidden = {64, 64};
  opt.epochs = 18;
  opt.robust_weight = 1.0;
  return opt;
}

TEST(Integration, MeshDcPipelineOrderings) {
  // Bursty 5-node DC fabric. Expectations (Fig 5 direction, small scale):
  //  * every scheme's normalized MLU >= 1;
  //  * FIGRET's tail (p99) is no worse than DOTE's tail by a wide margin;
  //  * Des TE average is worse than FIGRET average (over-hedging).
  Pipeline pipe(net::full_mesh(5), traffic::dc_tor_trace(5, 200, 31), 2);

  FigretScheme figret(pipe.ps, small_figret());
  const SchemeEval ev_figret = pipe.harness.evaluate(figret);

  FigretScheme dote(pipe.ps, dote_options(small_figret()), "DOTE");
  const SchemeEval ev_dote = pipe.harness.evaluate(dote);

  DesensitizationOptions des_opt;
  des_opt.max_bound = des_opt.min_bound = 0.45;
  des_opt.window = 8;
  DesensitizationTe des(pipe.ps, des_opt);
  const SchemeEval ev_des = pipe.harness.evaluate(des);

  for (const auto* ev : {&ev_figret, &ev_dote, &ev_des})
    for (double v : ev->normalized) EXPECT_GE(v, 1.0 - 1e-6);

  // Directional checks with slack (stochastic training).
  EXPECT_LT(ev_figret.average(), ev_des.average() * 1.1);
  EXPECT_LT(ev_figret.stats().p99, ev_dote.stats().p99 * 1.25);
}

TEST(Integration, GeantWanPipeline) {
  // GEANT with WAN-like traffic, LP schemes subsampled via stride.
  Pipeline pipe(net::geant(), traffic::wan_trace(23, 60, 37), 5);

  DesensitizationTe pred = prediction_te(pipe.ps);
  const SchemeEval ev_pred = pipe.harness.evaluate(pred);
  for (double v : ev_pred.normalized) EXPECT_GE(v, 1.0 - 1e-6);

  // Desensitization with the paper's 2/3 bound stays feasible on GEANT's
  // heterogeneous capacities.
  DesensitizationOptions des_opt;
  des_opt.window = 8;
  DesensitizationTe des(pipe.ps, des_opt);
  const SchemeEval ev_des = pipe.harness.evaluate(des);
  for (double v : ev_des.normalized) EXPECT_GE(v, 1.0 - 1e-6);
}

TEST(Integration, RackePathsPipeline) {
  // Fig 6 machinery: the same pipeline with SMORE-style path selection.
  const net::Graph g = net::geant();
  net::RackePathOptions ropt;
  ropt.paths_per_pair = 3;
  const PathSet ps = PathSet::build(g, net::racke_style_paths(g, ropt));

  Harness::Options hopt;
  hopt.eval_stride = 8;
  hopt.max_window = 12;
  Harness harness(ps, traffic::wan_trace(23, 60, 41), hopt);

  DesensitizationTe pred = prediction_te(ps);
  const SchemeEval ev = harness.evaluate(pred);
  for (double v : ev.normalized) EXPECT_GE(v, 1.0 - 1e-6);
}

TEST(Integration, FailureProtocolEndToEnd) {
  Pipeline pipe(net::full_mesh(5), traffic::dc_tor_trace(5, 120, 43), 4);
  const auto failed = sample_safe_failures(pipe.ps, 2, 7);

  FigretScheme figret(pipe.ps, small_figret());
  const SchemeEval ev_fig =
      pipe.harness.evaluate_under_failures(figret, failed);

  const auto alive = surviving_paths(pipe.ps, failed);
  DesensitizationTe fa_des(pipe.ps, {}, "FA-DesTE", nullptr, alive);
  const SchemeEval ev_fa =
      pipe.harness.evaluate_under_failures(fa_des, failed);

  for (double v : ev_fig.normalized) EXPECT_GE(v, 1.0 - 1e-6);
  for (double v : ev_fa.normalized) EXPECT_GE(v, 1.0 - 1e-6);
}

TEST(Integration, FigretNoWorseThanDoteOnStableTraffic) {
  // Paper §5.2: "in topologies with stable traffic data, FIGRET performs at
  // least as well as DOTE, despite the additional consideration of
  // robustness." Allow modest slack for training stochasticity.
  Pipeline pipe(net::full_mesh(4), traffic::gravity_trace(4, 160, 47), 2);

  FigretScheme figret(pipe.ps, small_figret());
  const SchemeEval ev_figret = pipe.harness.evaluate(figret);
  FigretScheme dote(pipe.ps, dote_options(small_figret()), "DOTE");
  const SchemeEval ev_dote = pipe.harness.evaluate(dote);

  EXPECT_LT(ev_figret.average(), ev_dote.average() * 1.15);
}

}  // namespace
}  // namespace figret::te
