// WAN scenario: FIGRET vs DOTE vs Google's Hedging on the GEANT topology
// with realistic WAN traffic (stable with rare unexpected bursts) — the
// situation motivating the paper's introduction.
//
// Prints the normalized-MLU distribution of each scheme and the number of
// burst-induced severe-congestion events.
#include <iostream>

#include "net/topology.h"
#include "net/yen.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "traffic/generators.h"
#include "util/table.h"

int main() {
  using namespace figret;

  const net::Graph graph = net::geant();
  const te::PathSet paths =
      te::PathSet::build(graph, net::all_pairs_k_shortest(graph, 3));
  std::cout << "GEANT: " << graph.num_nodes() << " nodes, "
            << graph.num_edges() << " arcs (capacities normalized, core 4x)\n";

  traffic::WanOptions wopt;
  wopt.bursty_fraction = 0.15;
  wopt.burst_probability = 0.02;
  const traffic::TrafficTrace trace = traffic::wan_trace(23, 240, 7, wopt);

  te::Harness::Options hopt;
  hopt.eval_stride = 6;  // LP baselines on GEANT are the slow part
  hopt.max_window = 12;
  te::Harness harness(paths, trace, hopt);

  te::FigretOptions fopt;
  fopt.history = 8;
  fopt.hidden = {96, 96};
  fopt.epochs = 8;

  util::Table t({"scheme", "avg", "median", "p99", "max", "severe(>2x)"});
  auto add = [&](const te::SchemeEval& ev) {
    const util::BoxStats s = ev.stats();
    t.add_row({ev.name, util::fmt(ev.average(), 4), util::fmt(s.median, 4),
               util::fmt(s.p99, 4), util::fmt(s.max, 4),
               std::to_string(ev.severe_congestion)});
  };

  te::FigretScheme figret(paths, fopt);
  add(harness.evaluate(figret));

  te::FigretScheme dote(paths, te::dote_options(fopt), "DOTE");
  add(harness.evaluate(dote));

  te::DesensitizationOptions dopt;
  dopt.window = 8;
  te::DesensitizationTe hedging(paths, dopt);
  te::SchemeEval ev = harness.evaluate(hedging);
  ev.name = "Hedging (Jupiter)";
  add(ev);

  t.print(std::cout);
  std::cout << "\nExpected shape: FIGRET ~ DOTE on the median (WAN traffic "
               "is mostly stable),\nbut with a lighter tail; Hedging pays a "
               "higher median for its robustness.\n";
  return 0;
}
