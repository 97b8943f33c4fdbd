// Figure 1: impact of the anti-burst Hedging mechanism on the MLU time
// series, for a WAN (GEANT), a PoD-level and a ToR-level data center.
//
// "No hedging" = configure for the previous snapshot with no anti-burst
// mechanism (Demand-prediction TE); "Hedging" = Google Jupiter's
// Desensitization TE. The paper's observations to reproduce:
//   1. volatility grows from WAN -> PoD -> ToR;
//   2. No-hedging shows higher peaks (burst congestion);
//   3. No-hedging shows lower troughs (better non-burst performance).
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/adversary.h"
#include "traffic/scenarios.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace figret;

struct SeriesStats {
  std::vector<double> series;  // MLU normalized to the series max
  double peak = 0.0;           // raw MLU percentiles
  double trough = 0.0;
  double mean = 0.0;
};

SeriesStats run_scheme(const bench::Scenario& sc, te::TeScheme& scheme) {
  const std::size_t window = std::max<std::size_t>(1, scheme.history_window());
  SeriesStats out;
  std::vector<double> raw;
  std::vector<double> loads;  // reused edge-load scratch across snapshots
  // Walk the tail of the trace, one configuration per snapshot.
  const std::size_t begin = std::max<std::size_t>(window, sc.trace.size() / 2);
  for (std::size_t t = begin; t < sc.trace.size(); t += sc.eval_stride) {
    const std::span<const traffic::DemandMatrix> history{
        sc.trace.snapshots.data() + (t - window), window};
    const te::TeConfig cfg = scheme.advise(history);
    raw.push_back(te::mlu(sc.ps, sc.trace[t], cfg, loads));
  }
  const double top = util::percentile(raw, 100.0);
  out.peak = util::percentile(raw, 99.0);
  out.trough = util::percentile(raw, 5.0);
  out.mean = util::mean(raw);
  for (double v : raw) out.series.push_back(top > 0 ? v / top : 0.0);
  return out;
}

void run_scenario(const std::string& name) {
  const bench::Scenario sc = bench::make_scenario(name);
  te::DesensitizationTe no_hedging = te::prediction_te(sc.ps);
  te::DesensitizationOptions dopt;
  dopt.max_bound = dopt.min_bound = sc.name == "GEANT" ? 2.0 / 3.0 : 0.5;
  dopt.window = 8;
  te::DesensitizationTe hedging(sc.ps, dopt);

  const SeriesStats none = run_scheme(sc, no_hedging);
  const SeriesStats hedge = run_scheme(sc, hedging);

  std::cout << "\n--- " << sc.name << " (" << sc.note << ") ---\n";
  util::Table t({"strategy", "mean MLU", "trough(p5)", "peak(p99)",
                 "peak/trough"});
  t.add_row_numeric("No hedging",
                    {none.mean, none.trough, none.peak,
                     none.peak / std::max(none.trough, 1e-12)});
  t.add_row_numeric("Hedging",
                    {hedge.mean, hedge.trough, hedge.peak,
                     hedge.peak / std::max(hedge.trough, 1e-12)});
  t.print(std::cout);
  bench::json_add_table(sc.name, t);

  std::cout << "normalized series (every 4th point):\n  no-hedge:";
  for (std::size_t i = 0; i < none.series.size(); i += 4)
    std::cout << ' ' << util::fmt(none.series[i], 2);
  std::cout << "\n  hedging: ";
  for (std::size_t i = 0; i < hedge.series.size(); i += 4)
    std::cout << ' ' << util::fmt(hedge.series[i], 2);
  std::cout << '\n';

  std::cout << "check: no-hedging peak >= hedging peak : "
            << (none.peak >= hedge.peak ? "yes" : "NO") << '\n';
  std::cout << "check: no-hedging trough <= hedging trough: "
            << (none.trough <= hedge.trough ? "yes" : "NO") << '\n';
  bench::json_add_check(sc.name + ": no-hedging peak >= hedging peak",
                        none.peak >= hedge.peak);
  bench::json_add_check(sc.name + ": no-hedging trough <= hedging trough",
                        none.trough <= hedge.trough);
}

// ------------------------------------------------------ scenario classes --
//
// The adversarial / jitter-heavy scenario suite on the GEANT topology: the
// same hedging-vs-no-hedging comparison, but under the CC-literature trace
// generators plus the regret adversary's sequence. Raw MLU magnitudes are
// not comparable across classes (each class sets its own volume scale), so
// the table reports the scale-invariant peak/mean and peak/trough ratios.

void run_scenario_classes() {
  const bench::Scenario sc = bench::make_scenario("GEANT");
  const std::size_t n = sc.trace.num_nodes;
  const std::size_t len = sc.trace.size();

  std::vector<std::pair<std::string, traffic::TrafficTrace>> classes;
  classes.emplace_back("wan (baseline)", sc.trace);
  classes.emplace_back("jitter_spike", traffic::jitter_spike_trace(n, len, 601));
  classes.emplace_back("onoff", traffic::onoff_trace(n, len, 607));
  classes.emplace_back("competitor", traffic::competitor_trace(n, len, 613));
  classes.emplace_back("mixed_interactive_bulk",
                       traffic::mixed_interactive_bulk_trace(n, len, 617));

  // Adversarial class: the regret adversary attacks the no-hedging victim,
  // then its (short) sequence is tiled across the evaluated tail so both
  // schemes face the same demands as the other classes do.
  traffic::AdversaryOptions aopt;
  aopt.steps = 4;
  aopt.iterations = bench::full_mode() ? 32 : 16;
  aopt.oracle_seeds = 3;
  aopt.seed = 619;
  traffic::RegretAdversary adversary(sc.ps, aopt);
  te::DesensitizationTe victim = te::prediction_te(sc.ps);
  const std::size_t vwindow =
      std::max<std::size_t>(1, victim.history_window());
  const std::span<const traffic::DemandMatrix> vhist{
      sc.trace.snapshots.data() + (sc.trace.size() - vwindow), vwindow};
  const traffic::AdversaryResult att = adversary.attack(victim, vhist);
  {
    traffic::TrafficTrace adv_trace = sc.trace;  // prefix primes histories
    for (std::size_t t = len / 2; t < len; ++t)
      adv_trace.snapshots[t] = att.trace.snapshots[(t - len / 2) %
                                                   att.trace.size()];
    classes.emplace_back("adversarial", std::move(adv_trace));
  }

  std::cout << "\n--- scenario classes (GEANT) ---\n";
  util::Table t({"class", "strategy", "peak/mean", "peak/trough"});
  double base_volatility = 0.0, jitter_volatility = 0.0;
  for (const auto& [cls, trace] : classes) {
    bench::Scenario class_sc = sc;
    class_sc.trace = trace;
    te::DesensitizationTe no_hedging = te::prediction_te(class_sc.ps);
    te::DesensitizationOptions dopt;
    dopt.max_bound = dopt.min_bound = 2.0 / 3.0;
    dopt.window = 8;
    te::DesensitizationTe hedging(class_sc.ps, dopt);
    const SeriesStats none = run_scheme(class_sc, no_hedging);
    const SeriesStats hedge = run_scheme(class_sc, hedging);
    const auto volatility = [](const SeriesStats& s) {
      return s.peak / std::max(s.mean, 1e-12);
    };
    t.add_row({cls, "No hedging", util::fmt(volatility(none), 3),
               util::fmt(none.peak / std::max(none.trough, 1e-12), 3)});
    t.add_row({cls, "Hedging", util::fmt(volatility(hedge), 3),
               util::fmt(hedge.peak / std::max(hedge.trough, 1e-12), 3)});
    if (cls == "wan (baseline)") base_volatility = volatility(none);
    if (cls == "jitter_spike") jitter_volatility = volatility(none);
  }
  t.print(std::cout);
  bench::json_add_table("scenario classes (GEANT)", t);

  std::cout << "check: jitter_spike is burstier than the wan baseline "
            << "(no-hedging peak/mean): "
            << (jitter_volatility > base_volatility ? "yes" : "NO") << '\n';
  bench::json_add_check(
      "classes: jitter_spike burstier than wan baseline (no hedging)",
      jitter_volatility > base_volatility);
  std::cout << "check: adversary regret > 1 against no-hedging: "
            << (att.best_regret > 1.0 ? "yes" : "NO") << " ("
            << util::fmt(att.best_regret, 3) << ")\n";
  bench::json_add_check("classes: adversary regret > 1 (no hedging victim)",
                        att.best_regret > 1.0);
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Figure 1 — MLU with vs without the Hedging mechanism",
      "No-hedging has higher peaks and lower troughs than Hedging; "
      "volatility grows WAN -> PoD -> ToR",
      "Meta traces replaced by synthetic equivalents (README, \"Substitutions\")");
  for (const char* name : {"GEANT", "PoD-DB", "ToR-DB"}) run_scenario(name);
  run_scenario_classes();
  bench::write_json("fig01_hedging");
  return 0;
}
