// FigretScheme::fit against the dense serial training oracle
// (tests/support/reference_kernels.h): the trained model, input scale, pair
// weights and final loss must match byte for byte. The fit trains the first
// layer on active inputs only and runs its kernels and Adam on the pool, so
// ctest runs this binary twice, with FIGRET_THREADS=1 and FIGRET_THREADS=4.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "nn/serialize.h"
#include "support/reference_kernels.h"
#include "te/figret.h"
#include "traffic/generators.h"
#include "util/parallel.h"

namespace figret::te {
namespace {

std::string mlp_bytes(const nn::Mlp& net) {
  std::ostringstream os;
  nn::save_mlp(net, os);
  return os.str();
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

FigretOptions small_options() {
  FigretOptions opt;
  opt.history = 3;
  opt.hidden = {24, 16};
  opt.epochs = 3;
  // 6 is not a multiple of the gradient kernel's four-sample groups, and the
  // traces below leave a shorter last minibatch.
  opt.batch_size = 6;
  // Small enough that the clip binds, so the clip-norm sum's bits matter.
  opt.clip_norm = 0.01;
  return opt;
}

/// How many input columns are nonzero in every training sample, in some but
/// not all, and in none. Sample t reads {D_{t-lag-H+1}, ..., D_{t-lag}}.
struct Activity {
  std::size_t always = 0, sometimes = 0, never = 0;
};

Activity input_activity(const PathSet& ps, const traffic::TrafficTrace& trace,
                        const FigretOptions& opt) {
  const std::size_t pairs = ps.num_pairs();
  const std::size_t first = opt.history + opt.target_lag - 1;
  std::vector<std::size_t> hits(opt.history * pairs, 0);
  for (std::size_t t = first; t < trace.size(); ++t)
    for (std::size_t h = 0; h < opt.history; ++h)
      trace[t - first + h].for_each_active([&](std::size_t p, double v) {
        if (v != 0.0) ++hits[h * pairs + p];
      });
  const std::size_t samples = trace.size() - first;
  Activity a;
  for (std::size_t n : hits) {
    if (n == 0)
      ++a.never;
    else if (n == samples)
      ++a.always;
    else
      ++a.sometimes;
  }
  return a;
}

void expect_matches_oracle(const PathSet& ps, const FigretOptions& opt,
                           const traffic::TrafficTrace& trace,
                           const std::string& what) {
  FigretScheme scheme(ps, opt);
  scheme.fit(trace);
  const ReferenceFit want = figret_fit_reference(ps, opt, trace);

  EXPECT_TRUE(same_bytes(scheme.input_scale(), want.input_scale)) << what;
  ASSERT_EQ(scheme.pair_weights().size(), want.pair_weights.size()) << what;
  EXPECT_EQ(std::memcmp(scheme.pair_weights().data(), want.pair_weights.data(),
                        want.pair_weights.size() * sizeof(double)),
            0)
      << what;
  EXPECT_TRUE(same_bytes(scheme.final_epoch_loss(), want.final_epoch_loss))
      << what;
  EXPECT_TRUE(mlp_bytes(scheme.model()) == mlp_bytes(want.model))
      << what << ": trained model differs from the dense serial oracle";
}

TEST(FitOracle, RunsAtTheRequestedPoolWidth) {
  // Guards the ctest registration: each copy of this binary must really run
  // at the width its environment names.
  if (const char* env = std::getenv("FIGRET_THREADS")) {
    EXPECT_EQ(util::global_pool().size(), std::stoul(env));
  }
}

TEST(FitOracle, SparseFatTreeMatchesDenseSerialOracle) {
  const net::FatTree ft = net::fat_tree(4);
  const PathSet ps = PathSet::build(ft.graph, net::fat_tree_paths(ft, 2));
  traffic::FabricOptions fo;
  fo.active_fraction = 0.04;
  fo.churn = 0.2;
  const auto trace = traffic::fabric_trace(ps.num_nodes(), 64, 5, fo);
  const FigretOptions opt = small_options();
  // The trace must exercise both skips: inputs that are never active, and
  // inputs that are active in only part of the training window.
  for (const FigretOptions& o : {opt, teal_options(opt)}) {
    const Activity a = input_activity(ps, trace, o);
    ASSERT_GT(a.never, 0u);
    ASSERT_GT(a.sometimes, 0u);
  }

  expect_matches_oracle(ps, opt, trace, "FIGRET, sparse fat-tree");
  expect_matches_oracle(ps, dote_options(opt), trace, "DOTE, sparse fat-tree");
  expect_matches_oracle(ps, teal_options(opt), trace, "TEAL, sparse fat-tree");
}

TEST(FitOracle, DenseTorMatchesDenseSerialOracle) {
  const net::Graph g = net::random_regular(8, 3, 5);
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const auto trace = traffic::dc_tor_trace(8, 50, 7);
  const FigretOptions opt = small_options();
  // Every input is active: the first layer takes the full-width path.
  for (const FigretOptions& o : {opt, teal_options(opt)})
    ASSERT_EQ(input_activity(ps, trace, o).never, 0u);

  expect_matches_oracle(ps, opt, trace, "FIGRET, dense ToR");
  expect_matches_oracle(ps, dote_options(opt), trace, "DOTE, dense ToR");
  expect_matches_oracle(ps, teal_options(opt), trace, "TEAL, dense ToR");
}

}  // namespace
}  // namespace figret::te
