#include "te/figret.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "traffic/generators.h"
#include "traffic/stats.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

// The reference advise: the dense input row through model().forward, as the
// scheme served before the sparse first layer.
TeConfig dense_advise(const FigretScheme& scheme, const PathSet& ps,
                      std::span<const traffic::DemandMatrix> history) {
  const std::size_t pairs = ps.num_pairs();
  const std::size_t window = scheme.history_window();
  std::vector<double> row(window * pairs, 0.0);
  const std::size_t offset = history.size() - window;
  for (std::size_t h = 0; h < window; ++h)
    history[offset + h].for_each_active([&](std::size_t p, double v) {
      row[h * pairs + p] = v / scheme.input_scale();
    });
  nn::MlpWorkspace ws;
  TeConfig out;
  ratios_from_sigmoid_into(ps, scheme.model().forward(row, ws), out);
  return out;
}

// advise_into and advise_batch_into must serve exactly the dense forward's
// ratios, on dense, sparse and all-zero windows alike.
void expect_advise_matches_dense(FigretScheme& scheme, const PathSet& ps,
                                 const traffic::TrafficTrace& trace,
                                 const std::string& when) {
  const std::size_t window = scheme.history_window();
  std::vector<std::vector<traffic::DemandMatrix>> windows;
  for (std::size_t t = trace.size() - 6; t <= trace.size(); ++t)
    windows.emplace_back(trace.snapshots.begin() + (t - window),
                         trace.snapshots.begin() + t);
  std::vector<traffic::DemandMatrix> mixed = windows.back();
  mixed[0] = traffic::DemandMatrix(ps.num_nodes(), 0.0);
  for (std::size_t h = 1; h < mixed.size(); h += 2)
    mixed[h] = mixed[h].sparsified();
  windows.push_back(std::move(mixed));
  windows.emplace_back(window, traffic::DemandMatrix(ps.num_nodes(), 0.0));

  // All windows in one advise_batch_into too: more than kMaxBatch, so the
  // batch is served in several passes.
  std::vector<std::span<const traffic::DemandMatrix>> histories(
      windows.begin(), windows.end());
  std::vector<TeConfig> batched(windows.size());
  scheme.advise_batch_into(histories, batched);

  TeConfig served;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    scheme.advise_into(windows[i], served);
    const TeConfig want = dense_advise(scheme, ps, windows[i]);
    ASSERT_EQ(served.size(), want.size()) << when;
    EXPECT_EQ(std::memcmp(served.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << when << ", window " << i;
    ASSERT_EQ(batched[i].size(), want.size()) << when;
    EXPECT_EQ(std::memcmp(batched[i].data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << when << ", window " << i << " in a batch";
  }
}

FigretOptions fast_options() {
  FigretOptions opt;
  opt.history = 4;
  opt.hidden = {64, 64};
  opt.epochs = 8;
  opt.batch_size = 8;
  return opt;
}

TEST(Figret, DoteOptionsDisableRobustness) {
  FigretOptions base;
  base.robust_weight = 3.0;
  const FigretOptions dote = dote_options(base);
  EXPECT_DOUBLE_EQ(dote.robust_weight, 0.0);
  EXPECT_EQ(dote.history, base.history);
  EXPECT_EQ(dote.target_lag, 1u);

  // TEAL-like: one snapshot, trained against itself, no robustness term;
  // everything else from the base.
  base.hidden = {32};
  base.epochs = 5;
  base.seed = 9;
  const FigretOptions teal = teal_options(base);
  EXPECT_EQ(teal.history, 1u);
  EXPECT_DOUBLE_EQ(teal.robust_weight, 0.0);
  EXPECT_EQ(teal.target_lag, 0u);
  EXPECT_EQ(teal.hidden, base.hidden);
  EXPECT_EQ(teal.epochs, base.epochs);
  EXPECT_EQ(teal.batch_size, base.batch_size);
  EXPECT_DOUBLE_EQ(teal.learning_rate, base.learning_rate);
  EXPECT_DOUBLE_EQ(teal.clip_norm, base.clip_norm);
  EXPECT_EQ(teal.seed, base.seed);
}

TEST(Figret, LifecycleGuards) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  EXPECT_EQ(scheme.name(), "FIGRET");
  std::vector<traffic::DemandMatrix> history(4, traffic::DemandMatrix(4, 1.0));
  EXPECT_THROW(scheme.advise(history), std::logic_error);
  EXPECT_THROW(scheme.model(), std::logic_error);

  FigretOptions bad = fast_options();
  bad.history = 0;
  EXPECT_THROW(FigretScheme(ps, bad), std::invalid_argument);
}

TEST(Figret, FitRejectsShortOrMismatchedTraces) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  traffic::TrafficTrace tiny;
  tiny.num_nodes = 4;
  for (int i = 0; i < 3; ++i) tiny.snapshots.emplace_back(4, 1.0);
  EXPECT_THROW(scheme.fit(tiny), std::invalid_argument);

  traffic::TrafficTrace wrong = traffic::gravity_trace(5, 30, 1);
  EXPECT_THROW(scheme.fit(wrong), std::invalid_argument);

  // With target lag 0 a window of H snapshots is already a sample: TEAL-like
  // rejects only an empty trace, and fits on a single snapshot.
  FigretScheme teal(ps, teal_options(fast_options()), "TEAL");
  traffic::TrafficTrace empty;
  empty.num_nodes = 4;
  EXPECT_THROW(teal.fit(empty), std::invalid_argument);
  traffic::TrafficTrace one = traffic::gravity_trace(4, 1, 1);
  ASSERT_EQ(one.size(), 1u);
  teal.fit(one);
  EXPECT_TRUE(valid_config(ps, teal.advise(one.snapshots)));
}

TEST(Figret, AdviseProducesValidConfigs) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  const auto trace = traffic::dc_tor_trace(4, 120, 3);
  scheme.fit(trace);
  for (std::size_t t = trace.size() - 10; t < trace.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        trace.snapshots.data() + (t - 4), 4};
    const TeConfig cfg = scheme.advise(history);
    EXPECT_TRUE(valid_config(ps, cfg));
  }
}

TEST(Figret, TrainingApproachesOptimalOnStableTraffic) {
  // On perfectly learnable (stable gravity) traffic, the DNN's MLU should
  // land close to the per-snapshot LP optimum.
  const PathSet ps = mesh_pathset(4);
  FigretOptions opt = fast_options();
  opt.epochs = 30;
  opt.robust_weight = 0.0;
  FigretScheme scheme(ps, opt, "DOTE");
  const auto trace = traffic::gravity_trace(4, 160, 5);
  const auto [train, test] = trace.split(0.8);
  scheme.fit(train);

  double ratio_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 4; t < test.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        test.snapshots.data() + (t - 4), 4};
    const TeConfig cfg = scheme.advise(history);
    const MluLpResult opt_lp = solve_mlu_lp(ps, test[t]);
    ASSERT_TRUE(opt_lp.optimal());
    ratio_sum += mlu(ps, test[t], cfg) / opt_lp.mlu;
    ++count;
  }
  EXPECT_LT(ratio_sum / static_cast<double>(count), 1.35);
}

TEST(Figret, PairWeightsProportionalToVariance) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  const auto trace = traffic::dc_tor_trace(4, 100, 7);
  scheme.fit(trace);
  const auto var = traffic::pair_variances(trace);
  const auto& got = scheme.pair_weights();
  ASSERT_EQ(got.size(), var.size());
  // Weights are variances divided by one global constant: all ratios agree.
  const std::size_t ref = static_cast<std::size_t>(
      std::max_element(var.begin(), var.end()) - var.begin());
  ASSERT_GT(var[ref], 0.0);
  const double k = got[ref] / var[ref];
  EXPECT_GT(k, 0.0);
  for (std::size_t p = 0; p < got.size(); ++p)
    EXPECT_NEAR(got[p], k * var[p], 1e-9 + 1e-6 * got[p]);
}

TEST(Figret, PairWeightsInvariantToTrafficUnits) {
  // Scaling every demand by a constant must not change the weights — the
  // loss balance between L1 and L2 is unit-free.
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 100, 7);
  traffic::TrafficTrace scaled = trace;
  for (auto& dm : scaled.snapshots)
    for (double& v : dm.values()) v *= 1000.0;

  FigretScheme a(ps, fast_options());
  a.fit(trace);
  FigretScheme b(ps, fast_options());
  b.fit(scaled);
  for (std::size_t p = 0; p < a.pair_weights().size(); ++p)
    EXPECT_NEAR(a.pair_weights()[p], b.pair_weights()[p],
                1e-9 + 1e-6 * a.pair_weights()[p]);
}

TEST(Figret, RobustnessTermLowersBurstyPairSensitivity) {
  // One pair bursts wildly; all others are stable. FIGRET (high robust
  // weight) must assign that pair a lower max path sensitivity than DOTE.
  const std::size_t n = 4;
  const PathSet ps = mesh_pathset(n);
  traffic::TrafficTrace trace;
  trace.num_nodes = n;
  util::Rng rng(11);
  const std::size_t bursty = traffic::pair_index(n, 0, 1);
  for (std::size_t t = 0; t < 160; ++t) {
    traffic::DemandMatrix dm(n, 0.2);
    dm[bursty] = rng.bernoulli(0.15) ? rng.uniform(1.0, 3.0) : 0.15;
    trace.snapshots.push_back(std::move(dm));
  }

  FigretOptions fopt = fast_options();
  fopt.epochs = 25;
  fopt.robust_weight = 10.0;
  FigretScheme figret(ps, fopt);
  figret.fit(trace);

  FigretScheme dote(ps, dote_options(fopt), "DOTE");
  dote.fit(trace);

  // Average the bursty pair's max sensitivity over several advise calls.
  double fig_sens = 0.0, dote_sens = 0.0;
  int count = 0;
  for (std::size_t t = trace.size() - 20; t < trace.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        trace.snapshots.data() + (t - fopt.history), fopt.history};
    fig_sens += max_pair_sensitivities(ps, figret.advise(history))[bursty];
    dote_sens += max_pair_sensitivities(ps, dote.advise(history))[bursty];
    ++count;
  }
  EXPECT_LT(fig_sens / count, dote_sens / count);
}

TEST(Figret, FinalLossIsFinitePositive) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  scheme.fit(traffic::dc_tor_trace(4, 80, 13));
  EXPECT_GT(scheme.final_epoch_loss(), 0.0);
  EXPECT_TRUE(std::isfinite(scheme.final_epoch_loss()));
}

TEST(Figret, DeterministicGivenSeed) {
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 80, 17);
  FigretScheme a(ps, fast_options());
  FigretScheme b(ps, fast_options());
  a.fit(trace);
  b.fit(trace);
  const std::span<const traffic::DemandMatrix> history{
      trace.snapshots.data() + trace.size() - 4, 4};
  const TeConfig ca = a.advise(history);
  const TeConfig cb = b.advise(history);
  for (std::size_t p = 0; p < ca.size(); ++p) EXPECT_DOUBLE_EQ(ca[p], cb[p]);
}

TEST(Figret, SaveLoadRoundTripPreservesAdvise) {
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 80, 19);
  FigretScheme trained(ps, fast_options());
  trained.fit(trace);

  // Through a stream, and through a file (the checkpoint figret_cli --save
  // writes).
  std::stringstream buffer;
  trained.save(buffer);
  FigretScheme from_stream(ps, fast_options());
  from_stream.load(buffer);

  const std::string path = ::testing::TempDir() + "figret_checkpoint.bin";
  trained.save_file(path);
  FigretScheme from_file(ps, fast_options());
  from_file.load_file(path);
  std::remove(path.c_str());
  EXPECT_THROW(from_file.load_file(path), std::runtime_error);

  const std::span<const traffic::DemandMatrix> history{
      trace.snapshots.data() + trace.size() - 4, 4};
  const TeConfig a = trained.advise(history);
  for (FigretScheme* fresh : {&from_stream, &from_file}) {
    const TeConfig b = fresh->advise(history);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) EXPECT_DOUBLE_EQ(a[p], b[p]);
    EXPECT_DOUBLE_EQ(fresh->input_scale(), trained.input_scale());
    // Pair weights restored too (needed if training is later resumed).
    for (std::size_t p = 0; p < ps.num_pairs(); ++p)
      EXPECT_DOUBLE_EQ(fresh->pair_weights()[p], trained.pair_weights()[p]);
  }
}

TEST(Figret, SaveRequiresFit) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  std::stringstream buffer;
  EXPECT_THROW(scheme.save(buffer), std::logic_error);
}

TEST(Figret, LoadRejectsMismatchedTopology) {
  const PathSet ps4 = mesh_pathset(4);
  const PathSet ps5 = mesh_pathset(5);
  FigretScheme trained(ps4, fast_options());
  trained.fit(traffic::dc_tor_trace(4, 60, 23));
  std::stringstream buffer;
  trained.save(buffer);

  FigretScheme other(ps5, fast_options());
  EXPECT_THROW(other.load(buffer), std::runtime_error);
}

TEST(Figret, LoadRejectsGarbage) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme scheme(ps, fast_options());
  std::stringstream buffer;
  buffer << "not a checkpoint";
  EXPECT_THROW(scheme.load(buffer), std::runtime_error);
}

TEST(Figret, AdviseIntoMatchesDenseForwardAfterFitLoadAndRefit) {
  // advise_into serves from a transposed copy of the first layer; a copy
  // left stale by fit() or load() would serve another model's splits.
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 60, 31);
  FigretScheme scheme(ps, fast_options());
  scheme.fit(trace);
  expect_advise_matches_dense(scheme, ps, trace, "after fit");

  std::stringstream buffer;
  scheme.save(buffer);
  FigretScheme fresh(ps, fast_options());
  fresh.load(buffer);
  expect_advise_matches_dense(fresh, ps, trace, "after load");

  const std::span<const traffic::DemandMatrix> last{
      trace.snapshots.data() + trace.size() - 4, 4};
  const TeConfig first = scheme.advise(last);
  scheme.fit(traffic::dc_tor_trace(4, 60, 37));
  const TeConfig second = scheme.advise(last);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_NE(std::memcmp(first.data(), second.data(),
                        first.size() * sizeof(double)),
            0)
      << "refit on another trace should change the model";
  expect_advise_matches_dense(scheme, ps, trace, "after refit");

  // Training skips the first-layer columns of inputs that are never active;
  // they keep their initial weights, and serving a window where such a pair
  // is active must still match the dense forward.
  const std::size_t silent = traffic::pair_index(4, 2, 1);
  traffic::TrafficTrace holey = trace;
  for (auto& dm : holey.snapshots) dm[silent] = 0.0;
  scheme.fit(holey);
  ASSERT_GT(trace[trace.size() - 1][silent], 0.0);
  expect_advise_matches_dense(scheme, ps, trace, "pair never active in training");
  nn::MlpConfig init;
  init.layer_sizes = {4 * ps.num_pairs(), 64, 64, ps.num_paths()};
  init.seed = fast_options().seed;
  const nn::Mlp untrained(init);
  const linalg::Matrix& w0 = untrained.weights()[0];
  const linalg::Matrix& trained = scheme.model().weights()[0];
  for (std::size_t h = 0; h < 4; ++h)
    for (std::size_t r = 0; r < w0.rows(); ++r) {
      const std::size_t c = h * ps.num_pairs() + silent;
      EXPECT_EQ(std::memcmp(&trained.row(r)[c], &w0.row(r)[c], sizeof(double)),
                0)
          << "input " << c << " row " << r;
    }
}

TEST(Figret, OutputSparseContractUnderChurn) {
  // On a churning sparse fabric, pairs turn active and idle from window to
  // window. A pair with an input in the window is refreshed: served the
  // dense forward's ratios bit for bit. Every other pair is served the
  // ratios of the all-zero window. A batched row equals its lone advise,
  // whatever its batch-mates.
  const net::FatTree ft = net::fat_tree(4);
  const PathSet ps = PathSet::build(ft.graph, net::fat_tree_paths(ft, 4));
  traffic::FabricOptions fab;
  fab.active_fraction = 0.05;  // 19 of 380 pairs
  fab.churn = 0.25;            // 4 swapped per snapshot
  const auto trace = traffic::fabric_trace(ps.num_nodes(), 90, 23, fab);
  FigretOptions opt = fast_options();
  opt.epochs = 3;
  FigretScheme scheme(ps, opt);
  traffic::TrafficTrace train;
  train.num_nodes = trace.num_nodes;
  train.snapshots.assign(trace.snapshots.begin(),
                         trace.snapshots.begin() + 50);
  scheme.fit(train);

  const std::size_t window = scheme.history_window();
  const std::vector<traffic::DemandMatrix> zero(
      window, traffic::DemandMatrix(ps.num_nodes(), 0.0));
  const TeConfig idle = scheme.advise(zero);
  const TeConfig idle_dense = dense_advise(scheme, ps, zero);
  ASSERT_EQ(std::memcmp(idle.data(), idle_dense.data(),
                        idle.size() * sizeof(double)),
            0);
  const auto same_pair = [&](const TeConfig& a, const TeConfig& b,
                             std::size_t pr) {
    const std::size_t begin = ps.pair_begin(pr);
    return std::memcmp(a.data() + begin, b.data() + begin,
                       ps.pair_size(pr) * sizeof(double)) == 0;
  };

  std::vector<std::span<const traffic::DemandMatrix>> histories;
  std::vector<TeConfig> lone;
  std::vector<bool> was_refreshed(ps.num_pairs(), false);
  std::size_t idle_pairs = 0, turned_active = 0, differs_from_idle = 0;
  for (std::size_t t = window; t <= trace.size(); ++t) {
    const std::span<const traffic::DemandMatrix> history{
        trace.snapshots.data() + (t - window), window};
    std::vector<bool> refreshed(ps.num_pairs(), false);
    for (const auto& dm : history)
      dm.for_each_active([&](std::size_t p, double v) {
        if (v != 0.0) refreshed[p] = true;
      });
    TeConfig served;
    scheme.advise_into(history, served);
    const TeConfig dense = dense_advise(scheme, ps, history);
    ASSERT_EQ(served.size(), ps.num_paths());
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
      if (refreshed[pr]) {
        EXPECT_TRUE(same_pair(served, dense, pr))
            << "refreshed pair " << pr << " at t " << t;
        if (t > window && !was_refreshed[pr]) ++turned_active;
        if (!same_pair(dense, idle, pr)) ++differs_from_idle;
      } else {
        EXPECT_TRUE(same_pair(served, idle, pr))
            << "idle pair " << pr << " at t " << t;
        ++idle_pairs;
      }
    }
    was_refreshed = refreshed;
    histories.push_back(history);
    lone.push_back(std::move(served));
  }
  // The trace exercises the contract: pairs turn active, idle pairs exist,
  // and a refreshed pair's ratios are not the idle ones.
  EXPECT_GT(turned_active, 0u);
  EXPECT_GT(idle_pairs, 0u);
  EXPECT_GT(differs_from_idle, 0u);

  // Batch-mates of every kind: the all-zero window, a dense window (every
  // pair refreshed, the full output layer) and other sparse windows.
  const std::vector<traffic::DemandMatrix> dense_window(
      window, traffic::DemandMatrix(ps.num_nodes(), 0.01));
  const TeConfig zero_lone = scheme.advise(zero);
  const TeConfig dense_lone = scheme.advise(dense_window);
  for (std::size_t start = 0; start + 3 <= histories.size(); start += 7) {
    const std::vector<std::span<const traffic::DemandMatrix>> batch = {
        histories[start], zero, histories[start + 2], dense_window,
        histories[start + 1], histories.back()};
    const std::vector<const TeConfig*> want = {
        &lone[start], &zero_lone, &lone[start + 2], &dense_lone,
        &lone[start + 1], &lone.back()};
    std::vector<TeConfig> outs(batch.size());
    scheme.advise_batch_into(batch, outs);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(outs[i].size(), want[i]->size());
      EXPECT_EQ(std::memcmp(outs[i].data(), want[i]->data(),
                            outs[i].size() * sizeof(double)),
                0)
          << "batch at " << start << ", row " << i;
    }
  }
}

TEST(Figret, FailedRefitLeavesTheServedModelUnchanged) {
  // Every snapshot's size is checked before training starts, and the new
  // state is committed only after training: a refit that throws must leave
  // the old model, input scale and pair weights serving, bit for bit.
  const PathSet ps = mesh_pathset(4);
  const auto trace = traffic::dc_tor_trace(4, 60, 41);
  FigretScheme scheme(ps, fast_options());
  scheme.fit(trace);
  const std::span<const traffic::DemandMatrix> last{
      trace.snapshots.data() + trace.size() - 4, 4};
  const TeConfig before = scheme.advise(last);
  const double scale = scheme.input_scale();
  const std::vector<double> weights = scheme.pair_weights();

  for (const std::size_t nodes : {5u, 3u}) {
    traffic::TrafficTrace bad = traffic::dc_tor_trace(4, 60, 43);
    // A huge demand in the wrong-sized snapshot: had the scale been taken
    // before the check, it would have moved.
    bad.snapshots[30] = traffic::DemandMatrix(nodes, 1e6);
    EXPECT_THROW(scheme.fit(bad), std::invalid_argument) << nodes << " nodes";
    const TeConfig after = scheme.advise(last);
    ASSERT_EQ(after.size(), before.size());
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          before.size() * sizeof(double)),
              0)
        << nodes << " nodes";
    const double scale_after = scheme.input_scale();
    EXPECT_EQ(std::memcmp(&scale, &scale_after, sizeof scale), 0);
    EXPECT_EQ(scheme.pair_weights(), weights);
  }
}

TEST(Figret, LoadRejectsInvalidInputScale) {
  const PathSet ps = mesh_pathset(4);
  FigretScheme trained(ps, fast_options());
  trained.fit(traffic::dc_tor_trace(4, 60, 29));
  std::stringstream buffer;
  trained.save(buffer);
  const std::string checkpoint = buffer.str();
  // Layout: magic (4 bytes), version (u32), history (u64), input scale.
  constexpr std::size_t kScaleOffset = 4 + 4 + 8;
  ASSERT_GT(checkpoint.size(), kScaleOffset + sizeof(double));

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -1.0}) {
    std::string patched = checkpoint;
    std::memcpy(patched.data() + kScaleOffset, &bad, sizeof bad);
    std::istringstream in(patched);
    FigretScheme scheme(ps, fast_options());
    EXPECT_THROW(scheme.load(in), std::runtime_error) << "scale " << bad;
  }
  std::istringstream intact(checkpoint);
  FigretScheme scheme(ps, fast_options());
  EXPECT_NO_THROW(scheme.load(intact));
}

}  // namespace
}  // namespace figret::te
