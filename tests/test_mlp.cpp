#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "support/reference_kernels.h"
#include "util/rng.h"

namespace figret::nn {
namespace {

TEST(Sigmoid, KnownValuesAndStability) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-15);
  // Extreme inputs must not overflow.
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(Mlp, ShapesAndParameterCount) {
  MlpConfig cfg;
  cfg.layer_sizes = {4, 8, 3};
  const Mlp m(cfg);
  EXPECT_EQ(m.input_size(), 4u);
  EXPECT_EQ(m.output_size(), 3u);
  EXPECT_EQ(m.num_layers(), 2u);
  EXPECT_EQ(m.num_parameters(), 4u * 8u + 8u + 8u * 3u + 3u);
}

TEST(Mlp, RejectsDegenerateConfigs) {
  MlpConfig cfg;
  cfg.layer_sizes = {4};
  EXPECT_THROW(Mlp{cfg}, std::invalid_argument);
  cfg.layer_sizes = {4, 0, 2};
  EXPECT_THROW(Mlp{cfg}, std::invalid_argument);
}

TEST(Mlp, SigmoidOutputInUnitInterval) {
  MlpConfig cfg;
  cfg.layer_sizes = {5, 16, 7};
  cfg.seed = 3;
  const Mlp m(cfg);
  MlpWorkspace ws;
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> x(5);
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    const auto y = m.forward(x, ws);
    for (double v : y) {
      EXPECT_GT(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(Mlp, ForwardDeterministic) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 8, 2};
  const Mlp m(cfg);
  MlpWorkspace ws1, ws2;
  const std::vector<double> x{0.1, -0.5, 0.7};
  const auto y1 = m.forward(x, ws1);
  const auto y2 = m.forward(x, ws2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Mlp, InputSizeMismatchThrows) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 4, 2};
  const Mlp m(cfg);
  MlpWorkspace ws;
  const std::vector<double> bad(5, 0.0);
  EXPECT_THROW(m.forward(bad, ws), std::invalid_argument);
}

TEST(Mlp, SeedsChangeInitialization) {
  MlpConfig a, b;
  a.layer_sizes = b.layer_sizes = {3, 8, 2};
  a.seed = 1;
  b.seed = 2;
  const Mlp ma(a), mb(b);
  MlpWorkspace ws;
  const std::vector<double> x{0.3, 0.3, 0.3};
  const auto ya = ma.forward(x, ws);
  std::vector<double> ya_copy(ya.begin(), ya.end());
  const auto yb = mb.forward(x, ws);
  bool any_diff = false;
  for (std::size_t i = 0; i < yb.size(); ++i)
    any_diff |= std::abs(ya_copy[i] - yb[i]) > 1e-12;
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// The critical property: analytic gradients match finite differences for
// every parameter, across depths, through the active-input minibatch passes
// FigretScheme::fit runs.
// ---------------------------------------------------------------------------

struct GradCase {
  std::vector<std::size_t> layers;
  const char* tag;
};

class MlpGradient : public ::testing::TestWithParam<GradCase> {};

TEST_P(MlpGradient, MatchesFiniteDifferences) {
  const GradCase& gc = GetParam();
  MlpConfig cfg;
  cfg.layer_sizes = gc.layers;
  cfg.seed = 11;
  Mlp m(cfg);

  // Every input but each third one is active; the others are zero, so their
  // first-layer gradients stay zero, as a finite difference finds them.
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < m.input_size(); ++i)
    if (i % 3 != 1) active.push_back(i);
  constexpr std::size_t kBatch = 3;
  util::Rng rng(5);
  linalg::Matrix x(kBatch, active.size());
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  // Random linear functional of the outputs as the "loss": L = sum w * y.
  linalg::Matrix w(kBatch, m.output_size());
  for (double& v : w.flat()) v = rng.uniform(-1.0, 1.0);

  MlpBatchWorkspace ws;
  auto loss = [&] {
    const linalg::Matrix& y = m.forward_batch(x, active, ws);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      acc += w.flat()[i] * y.flat()[i];
    return acc;
  };

  (void)loss();  // populate workspace
  MlpGradients grads = m.make_gradients();
  m.backward_batch(x, active, ws, w, grads);

  const double eps = 1e-6;
  // Spot-check a deterministic sample of weights in every layer.
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    auto& wm = m.weights()[l];
    const std::size_t checks = std::min<std::size_t>(10, wm.size());
    for (std::size_t k = 0; k < checks; ++k) {
      const std::size_t idx = (k * 7919) % wm.size();
      const std::size_t r = idx / wm.cols();
      const std::size_t c = idx % wm.cols();
      const double orig = wm(r, c);
      wm(r, c) = orig + eps;
      const double up = loss();
      wm(r, c) = orig - eps;
      const double down = loss();
      wm(r, c) = orig;
      const double fd = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.weight[l](r, c), fd, 1e-4)
          << gc.tag << " layer " << l << " w(" << r << "," << c << ")";
    }
    // And biases.
    auto& bias = m.biases()[l];
    for (std::size_t i = 0; i < std::min<std::size_t>(4, bias.size()); ++i) {
      const double orig = bias[i];
      bias[i] = orig + eps;
      const double up = loss();
      bias[i] = orig - eps;
      const double down = loss();
      bias[i] = orig;
      EXPECT_NEAR(grads.bias[l][i], (up - down) / (2.0 * eps), 1e-4)
          << gc.tag << " layer " << l << " b(" << i << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MlpGradient,
    ::testing::Values(
        GradCase{{3, 5, 2}, "small"}, GradCase{{6, 16, 16, 4}, "deep"},
        GradCase{{4, 8, 8, 8, 3}, "deeper"}, GradCase{{2, 128, 3}, "wide"}),
    [](const auto& info) { return info.param.tag; });

TEST(MlpGradients, ZeroClearsEverything) {
  MlpConfig cfg;
  cfg.layer_sizes = {2, 4, 2};
  Mlp m(cfg);
  MlpGradients g = m.make_gradients();
  MlpBatchWorkspace ws;
  linalg::Matrix x(1, 2), dl(1, 2, 1.0);
  x(0, 0) = 0.5;
  x(0, 1) = -0.5;
  (void)m.forward_batch(x, ws);
  m.backward_batch(x, ws, dl, g);
  g.zero();
  for (const auto& wm : g.weight)
    for (double v : wm.flat()) EXPECT_DOUBLE_EQ(v, 0.0);
  for (const auto& b : g.bias)
    for (double v : b) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Mlp, BackwardAccumulates) {
  MlpConfig cfg;
  cfg.layer_sizes = {2, 4, 2};
  Mlp m(cfg);
  MlpBatchWorkspace ws;
  linalg::Matrix x(1, 2), dl(1, 2);
  x(0, 0) = 0.5;
  x(0, 1) = -0.25;
  dl(0, 0) = 1.0;
  dl(0, 1) = -1.0;
  (void)m.forward_batch(x, ws);
  MlpGradients once = m.make_gradients();
  m.backward_batch(x, ws, dl, once);
  MlpGradients twice = m.make_gradients();
  m.backward_batch(x, ws, dl, twice);
  m.backward_batch(x, ws, dl, twice);
  for (std::size_t l = 0; l < m.num_layers(); ++l)
    for (std::size_t i = 0; i < once.weight[l].size(); ++i)
      EXPECT_NEAR(twice.weight[l].flat()[i], 2.0 * once.weight[l].flat()[i],
                  1e-12);
}

TEST(Mlp, ForwardBatchMatchesPerSampleForward) {
  MlpConfig cfg;
  cfg.layer_sizes = {6, 16, 16, 5};
  cfg.seed = 17;
  const Mlp m(cfg);

  const std::size_t batch = 9;
  util::Rng rng(29);
  linalg::Matrix x(batch, m.input_size());
  for (double& v : x.flat()) v = rng.uniform(-2.0, 2.0);

  MlpBatchWorkspace bws;
  const linalg::Matrix& y = m.forward_batch(x, bws);
  ASSERT_EQ(y.rows(), batch);
  ASSERT_EQ(y.cols(), m.output_size());

  MlpWorkspace ws;
  for (std::size_t b = 0; b < batch; ++b) {
    const auto yb = m.forward(x.row(b), ws);
    for (std::size_t j = 0; j < m.output_size(); ++j)
      EXPECT_DOUBLE_EQ(y(b, j), yb[j]) << "sample " << b << " output " << j;
  }
}

TEST(Mlp, BackwardBatchMatchesSummedPerSampleBackward) {
  MlpConfig cfg;
  cfg.layer_sizes = {4, 12, 12, 3};
  cfg.seed = 23;
  const Mlp m(cfg);

  const std::size_t batch = 7;
  util::Rng rng(31);
  linalg::Matrix x(batch, m.input_size());
  for (double& v : x.flat()) v = rng.uniform(-1.5, 1.5);
  linalg::Matrix dl(batch, m.output_size());
  for (double& v : dl.flat()) v = rng.uniform(-1.0, 1.0);

  MlpBatchWorkspace bws;
  (void)m.forward_batch(x, bws);
  MlpGradients batched = m.make_gradients();
  m.backward_batch(x, bws, dl, batched);

  MlpWorkspace ws;
  MlpGradients summed = m.make_gradients();
  for (std::size_t b = 0; b < batch; ++b) {
    (void)m.forward(x.row(b), ws);
    backward_reference(m, x.row(b), ws, dl.row(b), summed);
  }

  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    for (std::size_t i = 0; i < batched.weight[l].size(); ++i)
      EXPECT_NEAR(batched.weight[l].flat()[i], summed.weight[l].flat()[i],
                  1e-12)
          << "layer " << l << " weight " << i;
    for (std::size_t i = 0; i < batched.bias[l].size(); ++i)
      EXPECT_NEAR(batched.bias[l][i], summed.bias[l][i], 1e-12)
          << "layer " << l << " bias " << i;
  }
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Mlp, ActiveInputPassesMatchFullWidthBitForBit) {
  // Inputs zero outside a column list: the active-input forward and backward
  // must give the full-width passes' bytes, and leave every other first-layer
  // gradient column untouched.
  MlpConfig cfg;
  cfg.layer_sizes = {40, 24, 24, 7};
  cfg.seed = 13;
  const Mlp m(cfg);
  util::Rng rng(37);
  std::vector<std::size_t> all(40);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<std::vector<std::size_t>> lists = {
      {}, {0}, {39}, {3, 4, 5, 17, 19, 20, 21, 35}, {1, 16, 17, 32, 33}, all};
  for (const std::size_t batch : {1u, 6u, 9u}) {
    for (const std::vector<std::size_t>& active : lists) {
      linalg::Matrix compact(batch, active.size());
      linalg::Matrix full(batch, m.input_size());
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t i = 0; i < active.size(); ++i) {
          // Some explicit zeros inside the list too.
          const double v = rng.bernoulli(0.2) ? 0.0 : rng.uniform(-2.0, 2.0);
          compact(b, i) = v;
          full(b, active[i]) = v;
        }
      linalg::Matrix dl(batch, m.output_size());
      for (double& v : dl.flat()) v = rng.uniform(-1.0, 1.0);

      MlpBatchWorkspace ws_full, ws_active;
      const linalg::Matrix& y_full = m.forward_batch(full, ws_full);
      const linalg::Matrix& y_active =
          m.forward_batch(compact, active, ws_active);
      EXPECT_TRUE(same_bits(y_full.flat(), y_active.flat()))
          << active.size() << " active, batch " << batch;

      MlpGradients g_full = m.make_gradients();
      MlpGradients g_active = m.make_gradients();
      // A sentinel outside the list: the active-input backward never
      // writes there.
      for (double& v : g_active.weight[0].flat()) v = 7.0;
      g_active.zero(active);
      m.backward_batch(full, ws_full, dl, g_full);
      m.backward_batch(compact, active, ws_active, dl, g_active);
      for (std::size_t r = 0; r < g_full.weight[0].rows(); ++r) {
        std::size_t next = 0;
        for (std::size_t c = 0; c < m.input_size(); ++c) {
          const bool on = next < active.size() && active[next] == c;
          if (on) ++next;
          const double want = on ? g_full.weight[0](r, c) : 7.0;
          EXPECT_EQ(std::memcmp(&want, &g_active.weight[0].row(r)[c],
                                sizeof want),
                    0)
              << "row " << r << " col " << c;
        }
      }
      for (std::size_t l = 1; l < m.num_layers(); ++l)
        EXPECT_TRUE(same_bits(g_full.weight[l].flat(),
                              g_active.weight[l].flat()))
            << "layer " << l;
      for (std::size_t l = 0; l < m.num_layers(); ++l)
        EXPECT_TRUE(same_bits(g_full.bias[l], g_active.bias[l]))
            << "bias " << l;
    }
  }
}

TEST(Mlp, ActiveInputPassesRejectBadColumnLists) {
  MlpConfig cfg;
  cfg.layer_sizes = {6, 4, 2};
  const Mlp m(cfg);
  MlpBatchWorkspace ws;
  const linalg::Matrix x(2, 2);
  for (const std::vector<std::size_t>& bad :
       {std::vector<std::size_t>{3, 1}, std::vector<std::size_t>{2, 2},
        std::vector<std::size_t>{0, 6}})
    EXPECT_THROW(m.forward_batch(x, bad, ws), std::invalid_argument);
  const std::vector<std::size_t> three{0, 1, 2};
  EXPECT_THROW(m.forward_batch(x, three, ws), std::invalid_argument)
      << "x_active must have one column per listed input";
  const std::vector<std::size_t> two{1, 4};
  (void)m.forward_batch(x, two, ws);
  MlpGradients g = m.make_gradients();
  const linalg::Matrix dl(2, 2);
  EXPECT_THROW(m.backward_batch(x, three, ws, dl, g), std::invalid_argument);
  MlpConfig other;
  other.layer_sizes = {6, 5, 2};
  MlpGradients wrong = Mlp(other).make_gradients();
  EXPECT_THROW(m.backward_batch(x, two, ws, dl, wrong), std::invalid_argument);
  EXPECT_NO_THROW(m.backward_batch(x, two, ws, dl, g));
}

TEST(Mlp, BackwardBatchRejectsStaleBatchDimension) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 4, 2};
  const Mlp m(cfg);
  MlpBatchWorkspace bws;
  (void)m.forward_batch(linalg::Matrix(4, 3), bws);  // workspace for batch 4
  MlpGradients g = m.make_gradients();
  const linalg::Matrix x(8, 3), dl(8, 2);  // larger batch, stale workspace
  EXPECT_THROW(m.backward_batch(x, bws, dl, g), std::invalid_argument);
}

TEST(Mlp, ForwardBatchRejectsWrongWidth) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 4, 2};
  const Mlp m(cfg);
  MlpBatchWorkspace bws;
  const linalg::Matrix bad(2, 5);
  EXPECT_THROW(m.forward_batch(bad, bws), std::invalid_argument);
}

TEST(Mlp, ForwardSparseMatchesForwardBitForBit) {
  // The serving path: a wide, mostly-zero input through the transposed first
  // layer must give forward()'s output bytes.
  MlpConfig cfg;
  cfg.layer_sizes = {300, 32, 32, 11};
  cfg.seed = 41;
  const Mlp m(cfg);
  const linalg::Matrix w0_t = m.weights()[0].transposed();
  util::Rng rng(43);
  MlpWorkspace dense_ws;
  MlpBatchWorkspace sparse_ws;
  for (const double density : {0.0, 0.01, 0.2, 1.0}) {
    std::vector<double> x(m.input_size(), 0.0);
    std::vector<std::size_t> index;
    std::vector<double> value;
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (!rng.bernoulli(density)) continue;
      x[k] = rng.uniform(0.0, 1.0);
      index.push_back(k);
      value.push_back(x[k]);
    }
    const auto dense = m.forward(x, dense_ws);
    const linalg::SparseRow row{index, value};
    const auto sparse =
        m.forward_sparse(std::span(&row, 1), w0_t, sparse_ws).row(0);
    ASSERT_EQ(sparse.size(), dense.size());
    EXPECT_EQ(std::memcmp(sparse.data(), dense.data(),
                          dense.size() * sizeof(double)),
              0)
        << "density " << density;
  }
}

TEST(Mlp, ForwardSparseBatchRowsMatchTheirRowsAlone) {
  // The batched serving forward: row b of every batch size must carry the
  // bytes of forward_sparse on x_b alone and of the dense forward(),
  // whatever the other rows hold — dense rows, disjoint rows, all-zero rows
  // and rows with different active sets.
  MlpConfig cfg;
  cfg.layer_sizes = {300, 32, 32, 11};
  cfg.seed = 47;
  const Mlp m(cfg);
  const linalg::Matrix w0_t = m.weights()[0].transposed();
  util::Rng rng(53);

  struct Row {
    std::vector<std::size_t> index;
    std::vector<double> value;
    std::vector<double> dense;
  };
  const auto make_row = [&](auto active) {
    Row r;
    r.dense.assign(m.input_size(), 0.0);
    for (std::size_t k = 0; k < m.input_size(); ++k) {
      if (!active(k)) continue;
      r.dense[k] = rng.uniform(0.0, 1.0);
      r.index.push_back(k);
      r.value.push_back(r.dense[k]);
    }
    return r;
  };
  std::vector<std::vector<Row>> sets(3);
  for (std::size_t b = 0; b < 8; ++b) {
    sets[0].push_back(make_row([](std::size_t) { return true; }));
    sets[1].push_back(make_row([b](std::size_t k) { return k % 8 == b; }));
    const double density = b % 4 == 2 ? 0.0 : 0.1 * static_cast<double>(b);
    sets[2].push_back(
        make_row([&](std::size_t) { return rng.bernoulli(density); }));
  }

  MlpWorkspace dense_ws;
  MlpBatchWorkspace single_ws, batch_ws;
  for (std::size_t set = 0; set < sets.size(); ++set) {
    const std::vector<Row>& xs = sets[set];
    for (std::size_t batch = 1; batch <= xs.size(); ++batch) {
      std::vector<linalg::SparseRow> rows;
      for (std::size_t b = 0; b < batch; ++b)
        rows.push_back({xs[b].index, xs[b].value});
      const linalg::Matrix& y = m.forward_sparse(rows, w0_t, batch_ws);
      ASSERT_EQ(y.rows(), batch);
      ASSERT_EQ(y.cols(), m.output_size());
      for (std::size_t b = 0; b < batch; ++b) {
        const auto single =
            m.forward_sparse(std::span(&rows[b], 1), w0_t, single_ws).row(0);
        const auto dense = m.forward(xs[b].dense, dense_ws);
        const std::size_t bytes = m.output_size() * sizeof(double);
        EXPECT_EQ(std::memcmp(y.row(b).data(), single.data(), bytes), 0)
            << "set " << set << " row " << b << " of " << batch;
        EXPECT_EQ(std::memcmp(single.data(), dense.data(), bytes), 0)
            << "set " << set << " row " << b;
      }
    }
  }
}

TEST(Mlp, ForwardSparseOutputRunsMatchTheFullPass) {
  // Columns inside the runs carry the full pass's bytes, every other output
  // column is zero, and malformed runs are rejected.
  MlpConfig cfg;
  cfg.layer_sizes = {40, 16, 16, 23};
  cfg.seed = 59;
  const Mlp m(cfg);
  const linalg::Matrix w0_t = m.weights()[0].transposed();
  const std::vector<std::size_t> index = {2, 7, 31};
  const std::vector<double> value = {0.5, -0.25, 1.5};
  const std::vector<std::size_t> none;
  const std::vector<linalg::SparseRow> rows = {{index, value}, {none, {}}};
  MlpBatchWorkspace full_ws, ws;
  const linalg::Matrix full = m.forward_sparse(rows, w0_t, full_ws);
  const std::vector<OutputRun> runs = {{0, 1}, {4, 9}, {9, 10}, {17, 23}};
  // A full pass first: the runs pass must zero the columns it leaves out,
  // not keep what the workspace held.
  m.forward_sparse(rows, w0_t, ws);
  const linalg::Matrix& y = m.forward_sparse(rows, w0_t, ws, runs);
  ASSERT_EQ(y.rows(), rows.size());
  ASSERT_EQ(y.cols(), m.output_size());
  for (std::size_t b = 0; b < rows.size(); ++b)
    for (std::size_t j = 0; j < m.output_size(); ++j) {
      const bool in_run = std::any_of(runs.begin(), runs.end(), [&](auto r) {
        return r.begin <= j && j < r.end;
      });
      const double got = y(b, j);
      const double want = in_run ? full(b, j) : 0.0;
      EXPECT_EQ(std::memcmp(&got, &want, sizeof want), 0)
          << "row " << b << " column " << j;
    }
  for (const std::vector<OutputRun>& bad :
       {std::vector<OutputRun>{{4, 9}, {2, 3}}, {{3, 2}}, {{20, 24}},
        {{0, 5}, {4, 6}}})
    EXPECT_THROW(m.forward_sparse(rows, w0_t, ws, bad), std::invalid_argument);
}

TEST(Mlp, ForwardSparseBatchRejectsAMalformedRow) {
  MlpConfig cfg;
  cfg.layer_sizes = {6, 4, 2};
  const Mlp m(cfg);
  const linalg::Matrix w0_t = m.weights()[0].transposed();
  const std::vector<std::size_t> good = {1, 3};
  const std::vector<std::size_t> descending = {3, 1};
  const std::vector<double> value = {0.5, 0.25};
  MlpBatchWorkspace ws;
  for (std::size_t pos = 0; pos < 3; ++pos) {
    std::vector<linalg::SparseRow> rows(3, {good, value});
    rows[pos].index = descending;
    EXPECT_THROW(m.forward_sparse(rows, w0_t, ws), std::invalid_argument)
        << "bad row at " << pos;
  }
}

TEST(Mlp, ForwardSparseRejectsWrongTransposedShape) {
  MlpConfig cfg;
  cfg.layer_sizes = {6, 4, 2};
  const Mlp m(cfg);
  MlpBatchWorkspace ws;
  const std::vector<std::size_t> index = {1};
  const std::vector<double> value = {0.5};
  const linalg::SparseRow row{index, value};
  // The untransposed weights have the swapped shape.
  EXPECT_THROW(m.forward_sparse(std::span(&row, 1), m.weights()[0], ws),
               std::invalid_argument);
}

}  // namespace
}  // namespace figret::nn
