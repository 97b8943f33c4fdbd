// Sparse DemandMatrix unit tests plus sparse-vs-dense differential coverage
// of the demand pipeline: edge loads (serial and reference kernels), the LP,
// predictors, and statistics must agree whether a snapshot is stored dense
// or sparse.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "support/reference_kernels.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "te/pathset.h"
#include "traffic/demand.h"
#include "traffic/generators.h"
#include "traffic/predictor.h"
#include "util/rng.h"

namespace figret {
namespace {

using traffic::DemandMatrix;

TEST(SparseDemand, BuilderSortsSumsDuplicatesAndDropsZeros) {
  // n = 4 -> 12 pairs. Unsorted input, one duplicate key, one exact zero.
  const auto dm = DemandMatrix::sparse(4, {7, 2, 7, 5, 0}, {1.0, 3.0, 2.0, 0.0, 4.0});
  EXPECT_TRUE(dm.is_sparse());
  EXPECT_EQ(dm.num_nodes(), 4u);
  EXPECT_EQ(dm.size(), 12u);  // logical pair count, not nnz
  EXPECT_EQ(dm.nnz(), 3u);
  EXPECT_EQ(dm.stored(), 3u);
  EXPECT_DOUBLE_EQ(dm[0], 4.0);
  EXPECT_DOUBLE_EQ(dm[2], 3.0);
  EXPECT_DOUBLE_EQ(dm[7], 3.0);  // 1.0 + 2.0 summed
  EXPECT_DOUBLE_EQ(dm[5], 0.0);  // exact zero dropped
  EXPECT_DOUBLE_EQ(dm[11], 0.0);
  EXPECT_DOUBLE_EQ(dm.total(), 10.0);
  EXPECT_DOUBLE_EQ(dm.max_value(), 4.0);
}

TEST(SparseDemand, BuilderValidatesInput) {
  EXPECT_THROW(DemandMatrix::sparse(4, {12}, {1.0}), std::invalid_argument);
  EXPECT_THROW(DemandMatrix::sparse(4, {1, 2}, {1.0}), std::invalid_argument);
}

TEST(SparseDemand, DenseAccessorsThrowOnSparse) {
  auto dm = DemandMatrix::sparse(4, {3}, {2.0});
  EXPECT_THROW(dm.values(), std::logic_error);
  EXPECT_THROW(std::as_const(dm).values(), std::logic_error);
  EXPECT_THROW(dm[3] = 1.0, std::logic_error);
  EXPECT_THROW(dm.set(0, 1, 1.0), std::logic_error);
  EXPECT_DOUBLE_EQ(std::as_const(dm)[3], 2.0);  // const read path is fine
}

TEST(SparseDemand, RoundTripPreservesEveryPair) {
  util::Rng rng(42);
  DemandMatrix dense(7);
  for (std::size_t p = 0; p < dense.size(); ++p)
    if (rng.bernoulli(0.3)) dense[p] = rng.uniform(0.1, 5.0);
  const DemandMatrix sp = dense.sparsified();
  EXPECT_TRUE(sp.is_sparse());
  EXPECT_EQ(sp.nnz(), dense.nnz());
  const DemandMatrix back = sp.densified();
  EXPECT_FALSE(back.is_sparse());
  for (std::size_t p = 0; p < dense.size(); ++p) {
    EXPECT_EQ(sp[p], dense[p]) << "pair " << p;
    EXPECT_EQ(back[p], dense[p]) << "pair " << p;
  }
}

TEST(SparseDemand, CompactedPicksRepresentationByDensity) {
  DemandMatrix dense(6);  // 30 pairs
  dense[0] = 1.0;
  dense[17] = 2.0;
  EXPECT_TRUE(dense.compacted().is_sparse());  // density 2/30 << 0.25
  for (std::size_t p = 0; p < dense.size(); ++p) dense[p] = 1.0;
  EXPECT_FALSE(dense.compacted().is_sparse());  // density 1
  EXPECT_TRUE(dense.compacted(1.0).is_sparse());
}

TEST(SparseDemand, DotNormCosineMatchDenseComputation) {
  util::Rng rng(7);
  DemandMatrix a(8), b(8);
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (rng.bernoulli(0.25)) a[p] = rng.uniform(0.0, 3.0);
    if (rng.bernoulli(0.25)) b[p] = rng.uniform(0.0, 3.0);
  }
  double want_dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t p = 0; p < a.size(); ++p) {
    want_dot += a[p] * b[p];
    na += a[p] * a[p];
    nb += b[p] * b[p];
  }
  for (const auto& x : {a, a.sparsified()}) {
    for (const auto& y : {b, b.sparsified()}) {
      EXPECT_NEAR(traffic::dot(x, y), want_dot, 1e-12);
      EXPECT_NEAR(traffic::norm(x), std::sqrt(na), 1e-12);
      if (na > 0.0 && nb > 0.0) {
        EXPECT_NEAR(traffic::cosine_similarity(x, y),
                    want_dot / (std::sqrt(na) * std::sqrt(nb)), 1e-12);
      }
    }
  }
}

class SparseEdgeLoads : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = net::geant();
    ps_ = te::PathSet::build(graph_, net::all_pairs_k_shortest(graph_, 4));
  }

  DemandMatrix fuzz_demand(util::Rng& rng, double density) const {
    DemandMatrix dm(ps_.num_nodes());
    for (std::size_t p = 0; p < dm.size(); ++p)
      if (rng.bernoulli(density)) dm[p] = rng.uniform(0.01, 2.0);
    return dm;
  }

  net::Graph graph_;
  te::PathSet ps_;
};

TEST_F(SparseEdgeLoads, FusedKernelIsBitIdenticalToReferenceOnFuzzedDemands) {
  util::Rng rng(99);
  std::vector<double> fused, ref;
  for (int trial = 0; trial < 30; ++trial) {
    const double density = trial % 3 == 0 ? 0.02 : (trial % 3 == 1 ? 0.3 : 1.0);
    const DemandMatrix dense = fuzz_demand(rng, density);
    const DemandMatrix sp = dense.sparsified();
    const auto cfg = te::uniform_config(ps_);
    te::edge_loads_reference_into(ps_, dense, cfg, ref);
    // Pair-major fused kernel, dense input: bit-identical.
    te::edge_loads_into(ps_, dense, cfg, fused);
    EXPECT_EQ(fused, ref);
    // Sparse input: also bit-identical (same pairs visited in same order).
    te::edge_loads_into(ps_, sp, cfg, fused);
    EXPECT_EQ(fused, ref);
    // And the scoring wrappers agree.
    EXPECT_EQ(te::mlu(ps_, sp, cfg), te::mlu(ps_, dense, cfg));
  }
}

TEST_F(SparseEdgeLoads, OmniscientLpAcceptsSparseDemandsWithoutDensifying) {
  util::Rng rng(55);
  const DemandMatrix dense = fuzz_demand(rng, 0.15);
  const DemandMatrix sp = dense.sparsified();
  ASSERT_TRUE(sp.is_sparse());
  const auto dense_res = te::solve_mlu_lp(ps_, dense);
  const auto sparse_res = te::solve_mlu_lp(ps_, sp);
  ASSERT_TRUE(dense_res.optimal());
  ASSERT_TRUE(sparse_res.optimal());
  EXPECT_NEAR(sparse_res.mlu, dense_res.mlu, 1e-9);
}

TEST_F(SparseEdgeLoads, LpSchemesAdviseOnSparseHistory) {
  util::Rng rng(77);
  std::vector<DemandMatrix> history;
  for (int t = 0; t < 4; ++t)
    history.push_back(fuzz_demand(rng, 0.1).sparsified());

  te::DesensitizationTe pred = te::prediction_te(ps_);
  const auto cfg_pred = pred.advise(history);
  EXPECT_TRUE(te::valid_config(ps_, cfg_pred));

  te::DesensitizationTe des(ps_);
  const auto cfg_des = des.advise(history);
  EXPECT_TRUE(te::valid_config(ps_, cfg_des));

  // Dense history gives the same configs (representation must not matter).
  std::vector<DemandMatrix> dense_history;
  for (const auto& dm : history) dense_history.push_back(dm.densified());
  te::DesensitizationTe pred2 = te::prediction_te(ps_);
  te::DesensitizationTe des2(ps_);
  const auto cfg_pred2 = pred2.advise(dense_history);
  const auto cfg_des2 = des2.advise(dense_history);
  for (std::size_t p = 0; p < cfg_pred.size(); ++p) {
    EXPECT_NEAR(cfg_pred[p], cfg_pred2[p], 1e-12);
    EXPECT_NEAR(cfg_des[p], cfg_des2[p], 1e-12);
  }
}

TEST(SparsePredictors, PredictorsAcceptSparseHistory) {
  util::Rng rng(11);
  std::vector<DemandMatrix> dense_hist, sparse_hist;
  for (int t = 0; t < 5; ++t) {
    DemandMatrix dm(6);
    for (std::size_t p = 0; p < dm.size(); ++p)
      if (rng.bernoulli(0.3)) dm[p] = rng.uniform(0.1, 4.0);
    dense_hist.push_back(dm);
    sparse_hist.push_back(dm.sparsified());
  }
  traffic::MovingAveragePredictor avg;
  traffic::EwmaPredictor ewma(0.4);
  traffic::PeakPredictor peak;
  traffic::LinearTrendPredictor trend;
  traffic::Predictor* predictors[] = {&avg, &ewma, &peak, &trend};
  for (auto* pr : predictors) {
    const auto a = pr->predict(dense_hist);
    const auto b = pr->predict(sparse_hist);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p)
      EXPECT_NEAR(a[p], b[p], 1e-12) << "pair " << p;
  }
}

TEST(FabricTrace, GeneratesSparseSnapshotsWithStableNnz) {
  traffic::FabricOptions opt;
  opt.active_fraction = 0.05;
  const auto trace = traffic::fabric_trace(20, 12, 5, opt);
  ASSERT_EQ(trace.size(), 12u);
  const std::size_t expect_active =
      static_cast<std::size_t>(0.05 * static_cast<double>(traffic::num_pairs(20)));
  for (const auto& dm : trace.snapshots) {
    EXPECT_TRUE(dm.is_sparse());
    EXPECT_LE(dm.nnz(), expect_active);
    EXPECT_GE(dm.nnz(), expect_active / 2);
    EXPECT_NEAR(dm.total(), 1.0, 1e-9);  // normalized volume
  }
  // Determinism: same seed, same trace.
  const auto again = traffic::fabric_trace(20, 12, 5, opt);
  for (std::size_t t = 0; t < trace.size(); ++t) {
    ASSERT_EQ(again[t].nnz(), trace[t].nnz());
    again[t].for_each_active([&](std::size_t p, double v) {
      EXPECT_EQ(trace[t][p], v);
    });
  }
}

}  // namespace
}  // namespace figret
