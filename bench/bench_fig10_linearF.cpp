// Figure 10 / Table 7 (Appendix C): heuristic fine-grained Des TE with a
// *linear* sensitivity-bound function over the variance ranking, evaluated
// on the PoD-level Meta DB scenario for the paper's five parameter sets.
//
// Paper claims: stricter Min improves burst handling (groups {1,2,3});
// relaxing Max improves average performance (groups {3,4}); combining both
// (set 5) reduces normal-case MLU while keeping robustness.
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
};

}  // namespace

int main() {
  bench::print_header(
      std::cout,
      "Figure 10 / Table 7 — linear F parameter study (PoD-level DB)",
      "strict Min handles bursts; relaxed Max improves the average; set 5 "
      "gets both",
      "capacities normalized to min 1, as in Appendix C");

  const bench::Scenario sc = bench::make_scenario("PoD-DB");
  te::Harness::Options hopt;
  hopt.eval_stride = sc.eval_stride;
  hopt.max_window = 12;
  te::Harness harness(sc.ps, sc.trace, hopt);

  // Table 7's five parameter numbers.
  const ParamSet sets[] = {
      {"1 (strategy 1: strict)", 1.0 / 3.0, 1.0 / 2.0},
      {"2 (strategy 1)", 1.0 / 3.0, 2.0 / 3.0},
      {"3 (original)", 2.0 / 3.0, 2.0 / 3.0},
      {"4 (strategy 2: relax Max)", 2.0 / 3.0, 5.0 / 6.0},
      {"5 (both)", 1.0 / 3.0, 5.0 / 6.0},
  };

  util::Table t(bench::eval_header());
  for (const ParamSet& p : sets) {
    te::DesensitizationOptions opt;
    opt.shape = te::FShape::kLinear;
    opt.min_bound = p.min_bound;
    opt.max_bound = p.max_bound;
    opt.window = 8;
    te::DesensitizationTe scheme(sc.ps, opt, std::string("linearF ") + p.label);
    t.add_row(bench::eval_row(harness.evaluate(scheme)));
  }
  // Plain Des TE reference (uniform 2/3 bound).
  te::DesensitizationOptions dopt;
  dopt.max_bound = dopt.min_bound = 2.0 / 3.0;
  dopt.window = 8;
  te::DesensitizationTe des(sc.ps, dopt);
  t.add_row(bench::eval_row(harness.evaluate(des)));
  t.print(std::cout);
  bench::json_add_table(sc.name, t);
  bench::write_json("fig10_linearF");
  return 0;
}
