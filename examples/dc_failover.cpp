// Data-center failover scenario (§4.5 / §5.3): a direct-connect ToR fabric
// loses random links; traffic sources redistribute the failed paths' load
// proportionally among survivors — no retraining, no resolving.
//
// Demonstrates the failover API directly, then runs the full Fig 7-style
// comparison on one failure set.
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

  const std::size_t n = 16;
  const net::Graph graph = net::random_regular(n, 6, 3);
  const te::PathSet paths =
      te::PathSet::build(graph, net::all_pairs_k_shortest(graph, 3));
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(n, 200, 11);
  std::cout << "fabric: " << n << " ToRs, degree 6, " << paths.num_paths()
            << " candidate paths\n\n";

  // --- Failover mechanics on a single configuration ----------------------
  const auto failed = te::sample_safe_failures(paths, 2, 99);
  std::cout << "failing arcs:";
  for (net::EdgeId e : failed)
    std::cout << " " << graph.edge(e).src << "->" << graph.edge(e).dst;
  std::cout << '\n';

  const auto alive = te::surviving_paths(paths, failed);
  std::size_t dead_paths = 0;
  for (bool a : alive)
    if (!a) ++dead_paths;
  std::cout << dead_paths << " of " << paths.num_paths()
            << " paths lost; rerouting per §4.5 (proportional re-split)\n\n";

  // --- Fig 7-style comparison under this failure set ---------------------
  te::Harness::Options hopt;
  hopt.eval_stride = 4;
  hopt.max_window = 12;
  te::Harness harness(paths, trace, hopt);

  te::FigretOptions fopt;
  fopt.history = 8;
  fopt.hidden = {96, 96};
  fopt.epochs = 8;

  util::Table t({"scheme", "avg", "p90", "max"});
  auto add = [&](const te::SchemeEval& ev) {
    const util::BoxStats s = ev.stats();
    t.add_row({ev.name, util::fmt(ev.average(), 4), util::fmt(s.p90, 4),
               util::fmt(s.max, 4)});
  };

  te::FigretScheme figret(paths, fopt);
  add(harness.evaluate_under_failures(figret, failed));

  te::FigretScheme dote(paths, te::dote_options(fopt), "DOTE");
  add(harness.evaluate_under_failures(dote, failed));

  te::DesensitizationOptions dopt;
  dopt.max_bound = dopt.min_bound = 0.5;
  dopt.window = 8;
  te::DesensitizationTe des(paths, dopt);
  add(harness.evaluate_under_failures(des, failed));

  te::DesensitizationTe fa(paths, dopt, "FA-DesTE", nullptr, alive);
  add(harness.evaluate_under_failures(fa, failed));

  t.print(std::cout);
  std::cout << "\nValues are MLU normalized by a failure-aware omniscient "
               "oracle.\nFIGRET needs no retraining to stay competitive with "
               "the failure-aware baseline.\n";
  return 0;
}
