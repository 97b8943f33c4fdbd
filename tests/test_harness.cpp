#include "te/harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "support/dense_simplex.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "te/oblivious.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

Harness make_harness(const PathSet& ps, std::size_t len = 80,
                     std::size_t stride = 1) {
  Harness::Options opt;
  opt.train_fraction = 0.75;
  opt.eval_stride = stride;
  opt.max_window = 12;
  return Harness(ps, traffic::dc_tor_trace(ps.num_nodes(), len, 23), opt);
}

TEST(Harness, SplitAndEvalIndices) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps, 80);
  EXPECT_EQ(h.test_begin(), 60u);
  EXPECT_EQ(h.eval_indices().size(), 20u);
  EXPECT_EQ(h.eval_indices().front(), 60u);
  EXPECT_EQ(h.train_trace().size(), 60u);
}

TEST(Harness, StrideSubsamplesConsistently) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps, 80, 4);
  EXPECT_EQ(h.eval_indices().size(), 5u);
  for (std::size_t i = 1; i < h.eval_indices().size(); ++i)
    EXPECT_EQ(h.eval_indices()[i] - h.eval_indices()[i - 1], 4u);
}

TEST(Harness, RejectsShortTraces) {
  const PathSet ps = mesh_pathset(4);
  Harness::Options opt;
  opt.max_window = 12;
  EXPECT_THROW(
      Harness(ps, traffic::dc_tor_trace(4, 10, 1), opt),
      std::invalid_argument);
}

TEST(Harness, OmniscientIsPositiveAndCached) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  const auto& omni = h.omniscient();
  EXPECT_EQ(omni.size(), h.eval_indices().size());
  for (double v : omni) EXPECT_GT(v, 0.0);
  // Second call returns the identical cached vector.
  EXPECT_EQ(&h.omniscient(), &omni);
}

TEST(Harness, NormalizedMluNeverBelowOne) {
  // Omniscient is optimal per snapshot, so every scheme's normalized MLU is
  // >= 1 (up to LP tolerance) — the invariant behind Fig 5's y-axis.
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  DesensitizationTe pred = prediction_te(ps);
  const SchemeEval ev = h.evaluate(pred);
  EXPECT_EQ(ev.name, "PredTE");
  ASSERT_EQ(ev.normalized.size(), h.eval_indices().size());
  for (double v : ev.normalized) EXPECT_GE(v, 1.0 - 1e-6);
  EXPECT_GT(ev.mean_advise_seconds, 0.0);
}

TEST(Harness, SevereCongestionCounter) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  DesensitizationTe pred = prediction_te(ps);
  const SchemeEval ev = h.evaluate(pred);
  std::size_t expected = 0;
  for (double v : ev.normalized)
    if (v > 2.0) ++expected;
  EXPECT_EQ(ev.severe_congestion, expected);
}

TEST(Harness, EvaluatesFixedConfigScheme) {
  // A scheme whose advise() returns one fixed configuration (oblivious
  // routing) is scored through the ordinary evaluate() path.
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  HoseRobustTe obl(ps);
  const SchemeEval ev = h.evaluate(obl);
  EXPECT_EQ(ev.name, "Oblivious");
  ASSERT_EQ(ev.raw_mlu.size(), h.eval_indices().size());
  for (std::size_t i = 0; i < ev.raw_mlu.size(); ++i) {
    EXPECT_EQ(ev.raw_mlu[i],
              mlu(ps, h.trace()[h.eval_indices()[i]], obl.result().config));
    EXPECT_GE(ev.normalized[i], 1.0 - 1e-6);
  }
}

TEST(Harness, FailureEvaluationUsesFaultAwareOracle) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  const auto failed = sample_safe_failures(ps, 1, 3);
  DesensitizationTe pred = prediction_te(ps);
  const SchemeEval ev = h.evaluate_under_failures(pred, failed);
  for (double v : ev.normalized) EXPECT_GE(v, 1.0 - 1e-6);
}

TEST(Harness, StatsSummarizeNormalizedSeries) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  DesensitizationTe pred = prediction_te(ps);
  const SchemeEval ev = h.evaluate(pred);
  const util::BoxStats s = ev.stats();
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
  EXPECT_NEAR(ev.average(), util::mean(ev.normalized), 1e-12);
}

TEST(Harness, ParallelEvaluationBitIdenticalToSerial) {
  // The acceptance property of the parallel engine: the thread pool changes
  // wall-clock, never results. Serial (threads = 1) and parallel (threads =
  // 4) harnesses over the same trace must produce bit-identical evaluations,
  // including the shared omniscient normalizer.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);

  Harness::Options serial_opt;
  serial_opt.max_window = 12;
  serial_opt.threads = 1;
  Harness serial(ps, trace, serial_opt);

  Harness::Options par_opt = serial_opt;
  par_opt.threads = 4;
  Harness parallel(ps, trace, par_opt);

  const auto& omni_s = serial.omniscient();
  const auto& omni_p = parallel.omniscient();
  ASSERT_EQ(omni_s.size(), omni_p.size());
  for (std::size_t i = 0; i < omni_s.size(); ++i)
    EXPECT_EQ(omni_s[i], omni_p[i]) << "omniscient slot " << i;

  DesensitizationTe pred_s = prediction_te(ps);
  DesensitizationTe pred_p = prediction_te(ps);
  const SchemeEval ev_s = serial.evaluate(pred_s);
  const SchemeEval ev_p = parallel.evaluate(pred_p);
  ASSERT_EQ(ev_s.normalized.size(), ev_p.normalized.size());
  for (std::size_t i = 0; i < ev_s.normalized.size(); ++i) {
    EXPECT_EQ(ev_s.raw_mlu[i], ev_p.raw_mlu[i]) << "raw slot " << i;
    EXPECT_EQ(ev_s.normalized[i], ev_p.normalized[i]) << "norm slot " << i;
  }
  EXPECT_EQ(ev_s.severe_congestion, ev_p.severe_congestion);

  // Scoring is the plain per-snapshot MLU of the advised config. PredTE
  // chains LP warm starts across advise() calls, so a reference instance
  // that advises the same windows in the same order reproduces the configs.
  const auto& idx = serial.eval_indices();
  const auto advised = [&](DesensitizationTe& scheme, std::size_t t) {
    const std::size_t window = scheme.history_window();
    return scheme.advise(std::span<const traffic::DemandMatrix>(
        trace.snapshots.data() + (t - window), window));
  };
  DesensitizationTe pred_ref = prediction_te(ps);
  for (std::size_t i = 0; i < idx.size(); ++i)
    EXPECT_EQ(ev_p.raw_mlu[i],
              mlu(ps, trace[idx[i]], advised(pred_ref, idx[i])))
        << "raw vs direct slot " << i;

  const auto failed = sample_safe_failures(ps, 1, 3);
  const SchemeEval f_s = serial.evaluate_under_failures(pred_s, failed);
  const SchemeEval f_p = parallel.evaluate_under_failures(pred_p, failed);
  ASSERT_EQ(f_s.normalized.size(), f_p.normalized.size());
  for (std::size_t i = 0; i < f_s.normalized.size(); ++i) {
    EXPECT_EQ(f_s.raw_mlu[i], f_p.raw_mlu[i]) << "failure raw slot " << i;
    EXPECT_EQ(f_s.normalized[i], f_p.normalized[i]) << "failure slot " << i;
  }

  // Under failures the advised config is rerouted around dead paths (§4.5)
  // before scoring. pred_ref continues the chain pred_p continued.
  const std::vector<bool> alive = surviving_paths(ps, failed);
  for (std::size_t i = 0; i < idx.size(); ++i)
    EXPECT_EQ(f_p.raw_mlu[i],
              mlu(ps, trace[idx[i]],
                  reroute(ps, advised(pred_ref, idx[i]), alive)))
        << "failure raw vs direct slot " << i;
}

TEST(Harness, OmniscientMatchesDirectChunkedReference) {
  // The chunk rule behind width-independence: chunk = warm_chunk clamped to
  // keep >= ~32 chunks, one fresh lp::WarmStart per chunk. A hand-rolled
  // serial sweep of that rule must equal omniscient() bit for bit at every
  // width. 280 snapshots give 70 eval indices, so chunks hold 2 solves.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 280, 23);
  Harness::Options opt;
  opt.max_window = 12;
  opt.warm_chunk = 8;

  const std::vector<std::size_t> idx = Harness(ps, trace, opt).eval_indices();
  const std::size_t n = idx.size();
  ASSERT_EQ(n, 70u);
  const std::size_t chunk = std::max<std::size_t>(
      1, std::min<std::size_t>(opt.warm_chunk, n / 32));
  ASSERT_EQ(chunk, 2u);
  std::vector<double> ref(n, 0.0);
  for (std::size_t c = 0; c * chunk < n; ++c) {
    lp::WarmStart warm;
    for (std::size_t i = c * chunk; i < std::min(n, (c + 1) * chunk); ++i) {
      const MluLpResult res =
          solve_mlu_lp(ps, trace[idx[i]], nullptr, nullptr, &opt.solver,
                       &warm);
      ASSERT_TRUE(res.optimal());
      ref[i] = res.mlu;
    }
  }

  for (std::size_t threads : {1u, 2u, 4u}) {
    opt.threads = threads;
    Harness h(ps, trace, opt);
    const std::vector<double>& got = h.omniscient();
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i], ref[i]) << "threads=" << threads << " slot " << i;
  }
}

TEST(Harness, SurfacesLpIterationLimit) {
  // A truncated omniscient solve must be an error, never a silent partial
  // normalizer: one pivot cannot reach optimality on these LPs.
  const PathSet ps = mesh_pathset(4);
  Harness::Options opt;
  opt.max_window = 12;
  opt.solver.simplex.max_iterations = 1;
  Harness h(ps, traffic::dc_tor_trace(4, 80, 23), opt);
  try {
    h.omniscient();
    FAIL() << "expected runtime_error for kIterationLimit";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("iteration limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(Harness, EnginesAgreeOnOmniscientNormalizer) {
  // Cold revised and warm-chained revised normalizers both match the dense
  // oracle solved directly on each evaluated snapshot's MLU LP.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);

  Harness::Options cold_opt;
  cold_opt.max_window = 12;
  cold_opt.warm_chunk = 0;  // every snapshot solves cold
  Harness cold(ps, trace, cold_opt);

  Harness::Options warm_opt;
  warm_opt.max_window = 12;
  warm_opt.warm_chunk = 5;
  Harness warm(ps, trace, warm_opt);

  const auto& idx = cold.eval_indices();
  const auto& c = cold.omniscient();
  const auto& w = warm.omniscient();
  ASSERT_EQ(idx.size(), c.size());
  ASSERT_EQ(idx.size(), w.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const lp::LpResult dense = lp::solve(build_mlu_lp(ps, trace[idx[i]]));
    ASSERT_TRUE(dense.optimal()) << "slot " << i;
    const double d = dense.objective;
    EXPECT_NEAR(d, c[i], 1e-6 * (1.0 + d)) << "slot " << i;
    EXPECT_NEAR(d, w[i], 1e-6 * (1.0 + d)) << "slot " << i;
  }
}

TEST(Harness, ConcurrentEvaluatesMatchSerial) {
  // Regression for the warm-start chain ownership bug: two threads calling
  // evaluate() on one shared Harness (omniscient not yet materialized, so
  // both racers hit the lazy LP sweep) must produce exactly the results of
  // serial evaluation. Per-worker warm chains plus the omniscient mutex make
  // lineage interleaving structurally impossible.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);
  Harness::Options opt;
  opt.max_window = 12;
  opt.threads = 2;

  // Serial reference.
  Harness ref(ps, trace, opt);
  DesensitizationTe ref_pred = prediction_te(ps);
  DesensitizationTe ref_des(ps);
  const SchemeEval want_pred = ref.evaluate(ref_pred);
  const SchemeEval want_des = ref.evaluate(ref_des);

  for (int round = 0; round < 3; ++round) {
    Harness h(ps, trace, opt);  // fresh: omniscient materializes under race
    DesensitizationTe pred = prediction_te(ps);
    DesensitizationTe des(ps);
    SchemeEval got_pred, got_des;
    std::thread t1([&] { got_pred = h.evaluate(pred); });
    std::thread t2([&] { got_des = h.evaluate(des); });
    t1.join();
    t2.join();

    ASSERT_EQ(got_pred.normalized.size(), want_pred.normalized.size());
    ASSERT_EQ(got_des.normalized.size(), want_des.normalized.size());
    for (std::size_t i = 0; i < want_pred.normalized.size(); ++i) {
      EXPECT_EQ(got_pred.raw_mlu[i], want_pred.raw_mlu[i]) << "slot " << i;
      EXPECT_EQ(got_pred.normalized[i], want_pred.normalized[i])
          << "slot " << i;
      EXPECT_EQ(got_des.raw_mlu[i], want_des.raw_mlu[i]) << "slot " << i;
      EXPECT_EQ(got_des.normalized[i], want_des.normalized[i])
          << "slot " << i;
    }
  }
}

TEST(Harness, WindowTooLargeThrows) {
  const PathSet ps = mesh_pathset(4);
  Harness h = make_harness(ps);
  DesensitizationOptions opt;
  opt.window = 50;  // exceeds max_window = 12
  DesensitizationTe des(ps, opt);
  EXPECT_THROW(h.evaluate(des), std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
