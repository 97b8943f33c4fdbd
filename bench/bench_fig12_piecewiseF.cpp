// Figure 12 / Table 8 (Appendix C): heuristic fine-grained Des TE with a
// *piecewise* sensitivity-bound function (stable pairs below the breakpoint
// get Max, bursty pairs above it get Min) on the PoD-level Meta DB scenario.
//
// Paper claims: larger breakpoint => better average ({1,2,3}, {5,6,7});
// smaller Min at fixed breakpoint => better burst handling ({1,4});
// larger Max at fixed Min => better average ({4,5}).
#include <iostream>

#include "bench_common.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "util/table.h"

namespace {

using namespace figret;

struct ParamSet {
  const char* label;
  double min_bound;
  double max_bound;
  double breakpoint;
};

}  // namespace

int main() {
  bench::print_header(
      std::cout,
      "Figure 12 / Table 8 — piecewise F parameter study (PoD-level DB)",
      "breakpoint up => average down; Min down => bursts handled better; "
      "Max up => average better",
      "breakpoint = fraction of pairs (ascending variance) treated stable");

  const bench::Scenario sc = bench::make_scenario("PoD-DB");
  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride;
  hopt.max_window = 12;
  te::Harness harness(sc.ps, sc.trace, hopt);

  // Table 8's seven parameter numbers.
  const ParamSet sets[] = {
      {"1 (strict Min, bp .5)", 1.0 / 2.0, 2.0 / 3.0, 0.50},
      {"2 (strict Min, bp .65)", 1.0 / 2.0, 2.0 / 3.0, 0.65},
      {"3 (strict Min, bp .8)", 1.0 / 2.0, 2.0 / 3.0, 0.80},
      {"4 (original flat 2/3)", 2.0 / 3.0, 2.0 / 3.0, 0.50},
      {"5 (relaxed Max, bp .5)", 2.0 / 3.0, 5.0 / 6.0, 0.50},
      {"6 (relaxed Max, bp .65)", 2.0 / 3.0, 5.0 / 6.0, 0.65},
      {"7 (relaxed Max, bp .8)", 2.0 / 3.0, 5.0 / 6.0, 0.80},
  };

  util::Table t(bench::eval_header());
  for (const ParamSet& p : sets) {
    te::DesensitizationOptions opt;
    opt.shape = te::FShape::kPiecewise;
    opt.min_bound = p.min_bound;
    opt.max_bound = p.max_bound;
    opt.breakpoint = p.breakpoint;
    opt.window = 8;
    te::DesensitizationTe scheme(sc.ps, opt, std::string("pwF ") + p.label);
    t.add_row(bench::eval_row(harness.evaluate(scheme)));
  }
  t.print(std::cout);
  bench::json_add_table(sc.name, t);
  bench::write_json("fig12_piecewiseF");
  return 0;
}
