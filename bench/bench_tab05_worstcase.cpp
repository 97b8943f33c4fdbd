// Table 5: worst-case stress test — the per-pair fluctuation magnitudes are
// rank-REVERSED (historically stable pairs get the largest noise), directly
// attacking FIGRET's learned fine-grained robustness.
//
// Paper claims:
//  * degradation exceeds the matched-rank case of Table 3 but performance
//    does not collapse (~30-40% at alpha = 2 on DB traces);
//  * the Spearman rank correlation of per-pair variances between train and
//    test splits is very high (0.92-0.98), so this adversarial reversal is
//    rare in practice;
//  * pFabric is barely affected (uniform random pairs => no variance
//    ranking to exploit).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "te/figret.h"
#include "te/harness.h"
#include "traffic/adversary.h"
#include "traffic/generators.h"
#include "traffic/scenarios.h"
#include "traffic/stats.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace figret;

struct Metrics {
  double average;
  double p90;
};

Metrics eval_on(const bench::Scenario& sc, te::FigretScheme& scheme,
                const traffic::TrafficTrace& full_trace) {
  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride;
  hopt.max_window = 12;
  te::Harness harness(sc.ps, full_trace, hopt);
  const te::SchemeEval ev = harness.evaluate(scheme, /*fit=*/false);
  return {ev.average(), ev.stats().p90};
}

void run(const std::string& name) {
  const bench::Scenario sc = bench::make_scenario(name);
  const bench::TrainProfile prof = bench::train_profile();
  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;
  te::FigretScheme figret(sc.ps, fopt);

  const std::size_t cut = sc.trace.size() * 3 / 4;
  const traffic::TrafficTrace train = sc.trace.slice(0, cut);
  const traffic::TrafficTrace test = sc.trace.slice(cut, sc.trace.size());
  figret.fit(train);
  const Metrics base = eval_on(sc, figret, sc.trace);

  util::Table t({"alpha", "avg decline %", "90th pct decline %"});
  for (const double alpha : {0.2, 0.5, 1.0, 2.0}) {
    traffic::TrafficTrace perturbed = sc.trace;
    const traffic::TrafficTrace noisy_test =
        traffic::perturb_gaussian_rank_reversed(test, train, alpha,
                                                1300 + alpha * 10);
    for (std::size_t i = 0; i < noisy_test.size(); ++i)
      perturbed.snapshots[cut + i] = noisy_test[i];
    const Metrics m = eval_on(sc, figret, perturbed);
    t.add_row({util::fmt(alpha, 1),
               util::fmt(100.0 * (m.average - base.average) / base.average, 1),
               util::fmt(100.0 * (m.p90 - base.p90) / base.p90, 1)});
  }

  // How likely is this worst case in practice? Spearman correlation of the
  // per-pair variance rankings between train and test.
  const double rho = util::spearman(traffic::pair_variances(train),
                                    traffic::pair_variances(test));
  std::cout << "\n--- " << sc.name << " ---\n";
  t.print(std::cout);
  bench::json_add_table(sc.name, t);
  std::cout << "Spearman(variance ranks, train vs test) = "
            << util::fmt(rho, 3)
            << "  (paper: 0.92 PoD DB / 0.98 ToR DB — reversal is rare)\n";
}

// ------------------------------------------------------ scenario classes --
//
// Adversarial & jitter-heavy scenario suite on GEANT: FIGRET is trained on
// the standard WAN trace, then each CC-literature scenario class replaces
// the test suffix and is scored through the same harness. The
// regret-maximizing adversary is primed with the worst class window it has
// to beat, so its best regret is >= the worst class peak by construction —
// the bench asserts it ends *strictly* higher.

struct ClassResult {
  std::string name;
  te::SchemeEval eval;
  traffic::TrafficTrace spliced;  // train prefix + class test suffix
  std::vector<std::size_t> eval_indices;
};

int run_scenario_classes() {
  const bench::Scenario sc = bench::make_scenario("GEANT");
  const bench::TrainProfile prof = bench::train_profile();
  const std::size_t n = sc.trace.num_nodes;
  const std::size_t cut = sc.trace.size() * 3 / 4;
  const std::size_t tail = sc.trace.size() - cut;

  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;
  te::FigretScheme figret(sc.ps, fopt);
  figret.fit(sc.trace.slice(0, cut));

  // One spliced trace per class: the trained model faces out-of-
  // distribution test traffic while the train prefix still primes windows.
  std::vector<ClassResult> classes;
  const auto add_class = [&](std::string name, traffic::TrafficTrace test) {
    traffic::TrafficTrace spliced = sc.trace;
    for (std::size_t i = 0; i < tail; ++i)
      spliced.snapshots[cut + i] = std::move(test.snapshots[i]);
    te::Harness::Options hopt;
    hopt.eval_stride = sc.eval_stride;
    hopt.max_window = 12;
    te::Harness harness(sc.ps, spliced, hopt);
    ClassResult cr;
    cr.name = std::move(name);
    cr.eval = harness.evaluate(figret, /*fit=*/false);
    cr.eval_indices = harness.eval_indices();
    cr.spliced = std::move(spliced);
    classes.push_back(std::move(cr));
  };
  add_class("wan (baseline)", sc.trace.slice(cut, sc.trace.size()));
  add_class("jitter_spike", traffic::jitter_spike_trace(n, tail, 501));
  add_class("onoff", traffic::onoff_trace(n, tail, 503));
  add_class("competitor", traffic::competitor_trace(n, tail, 509));
  add_class("mixed_interactive_bulk",
            traffic::mixed_interactive_bulk_trace(n, tail, 521));

  // Worst (class, snapshot): the adversary must beat this peak.
  double best_class_peak = 0.0;
  const ClassResult* worst_class = nullptr;
  std::size_t worst_pos = 0;
  for (const ClassResult& cr : classes) {
    const auto& nm = cr.eval.normalized;
    const std::size_t arg = static_cast<std::size_t>(
        std::max_element(nm.begin(), nm.end()) - nm.begin());
    if (nm[arg] > best_class_peak) {
      best_class_peak = nm[arg];
      worst_class = &cr;
      worst_pos = arg;
    }
  }

  util::Table t({"class", "avg norm MLU", "p90 norm MLU", "peak norm MLU"});
  for (const ClassResult& cr : classes)
    t.add_row({cr.name, util::fmt(cr.eval.average(), 3),
               util::fmt(cr.eval.stats().p90, 3),
               util::fmt(*std::max_element(cr.eval.normalized.begin(),
                                           cr.eval.normalized.end()), 3)});

  // Regret adversary, primed with the worst class window: the victim
  // commits the exact configuration that produced the class peak, and the
  // peak snapshot is an extra step-0 seed (projection is regret-neutral),
  // so best regret starts at the class peak and the search goes up.
  traffic::AdversaryOptions aopt;
  aopt.steps = 2;
  aopt.iterations = bench::full_mode() ? 64 : 32;
  aopt.oracle_seeds = 4;
  aopt.seed = 4242;
  traffic::RegretAdversary adversary(sc.ps, aopt);
  const std::size_t window =
      std::max<std::size_t>(1, figret.history_window());
  const std::size_t peak_idx = worst_class->eval_indices[worst_pos];
  const std::span<const traffic::DemandMatrix> history{
      worst_class->spliced.snapshots.data() + (peak_idx - window), window};
  const traffic::DemandMatrix peak_demand =
      worst_class->spliced.snapshots[peak_idx].sparsified();
  const traffic::AdversaryResult att =
      adversary.attack(figret, history, {&peak_demand, 1});
  t.add_row({"adversarial", util::fmt(util::mean(att.step_regret), 3),
             util::fmt(att.best_regret, 3), util::fmt(att.best_regret, 3)});

  std::cout << "\n--- scenario classes (GEANT) ---\n";
  t.print(std::cout);
  bench::json_add_table("scenario classes (GEANT)", t);
  std::cout << "worst non-adversarial class: " << worst_class->name
            << " (peak " << util::fmt(best_class_peak, 3) << "), adversary "
            << util::fmt(att.best_regret, 3) << " in " << att.lp_solves
            << " LP solves\n";

  int rc = 0;
  const bool beats = att.best_regret > best_class_peak;
  bench::json_add_check("adversary regret exceeds best scenario class",
                        beats);
  if (!beats) {
    std::cout << "ERROR: adversary (" << util::fmt(att.best_regret, 3)
              << ") did not beat the worst scenario class ("
              << util::fmt(best_class_peak, 3) << ")\n";
    rc = 1;
  }

  // CI regression smoke: regret is a normalized ratio, so the gate compares
  // against the committed reference and fails when the search collapses
  // below 70% of it (generous slack for cross-machine FP/ISA variation).
  if (const auto ref = bench::read_reference(rc)) {
    const std::string token = bench::reference_token(
        *ref, {"\"class\": \"adversarial\""}, "peak norm MLU");
    const double want = std::strtod(token.c_str(), nullptr);
    if (token.empty()) {
      std::cout << "reference check adversarial peak: not in reference — "
                   "skipped\n";
    } else if (att.best_regret < 0.7 * want) {
      std::cout << "ERROR: adversary regret regressed: "
                << util::fmt(att.best_regret, 3) << " vs reference "
                << util::fmt(want, 3) << "\n";
      rc = 1;
    } else {
      std::cout << "reference check adversarial peak: "
                << util::fmt(att.best_regret, 3) << " vs reference "
                << util::fmt(want, 3) << " — ok\n";
    }
  }
  return rc;
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Table 5 — decline under rank-reversed (worst-case) "
                 "fluctuations",
      "larger decline than Table 3, but no collapse; variance rankings are "
      "stable across time so the attack is unrealistic",
      "negative values mean no degradation (as in the paper)");
  for (const char* name : {"PoD-DB", "pFabric", "ToR-DB"}) run(name);
  const int rc = run_scenario_classes();
  bench::write_json("tab05_worstcase");
  return rc;
}
