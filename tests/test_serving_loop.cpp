#include "te/serving_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/figret.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "te/retrain_monitor.h"
#include "te/wcmp.h"
#include "traffic/feed.h"
#include "traffic/generators.h"
#include "util/json.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

/// Deterministic, stateless advisor serving a fixed configuration — makes
/// streaming results exactly predictable regardless of scheduling.
class FixedAdvisor final : public TeScheme {
 public:
  FixedAdvisor(const PathSet& ps, TeConfig cfg, std::size_t window = 2)
      : cfg_(std::move(cfg)), window_(window) {
    (void)ps;
  }
  std::string name() const override { return "Fixed"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    return cfg_;
  }
  std::size_t history_window() const override { return window_; }

 private:
  TeConfig cfg_;
  std::size_t window_;
};

/// Advisor that sleeps, to force queue buildup for overflow tests.
class SleepyAdvisor final : public TeScheme {
 public:
  SleepyAdvisor(TeConfig cfg, std::chrono::milliseconds nap)
      : cfg_(std::move(cfg)), nap_(nap) {}
  std::string name() const override { return "Sleepy"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    std::this_thread::sleep_for(nap_);
    return cfg_;
  }
  std::size_t history_window() const override { return 1; }

 private:
  TeConfig cfg_;
  std::chrono::milliseconds nap_;
};

/// A deliberately lopsided but valid configuration (uniform would make WCMP
/// quantization a no-op and hide install-path bugs).
TeConfig skewed_config(const PathSet& ps) {
  TeConfig raw(ps.num_paths(), 0.0);
  for (std::size_t p = 0; p < ps.num_paths(); ++p)
    raw[p] = 1.0 + static_cast<double>(p % 5);
  return normalize_config(ps, raw);
}

TEST(ServingLoopStream, ServesEverySubmittedSnapshotExactly) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 23);
  const TeConfig cfg = skewed_config(ps);

  ServingLoop::Options opt;
  opt.workers = 3;
  opt.install = false;  // serve the advised ratios directly
  ServingLoop loop(ps, trace, opt);

  FixedAdvisor a(ps, cfg), b(ps, cfg), c(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b, &c};
  loop.start(advisors);

  std::vector<SnapshotResult> results;
  for (std::uint32_t t = 2; t < 80; ++t) {
    loop.submit(t);
    loop.drain(results);
  }
  loop.finish();
  loop.drain(results);

  ASSERT_EQ(results.size(), 78u);
  // Every index exactly once, every seq exactly once.
  std::vector<bool> seen_idx(80, false);
  std::vector<bool> seen_seq(78, false);
  for (const auto& r : results) {
    ASSERT_LT(r.trace_index, 80u);
    ASSERT_LT(r.seq, 78u);
    EXPECT_FALSE(seen_idx[r.trace_index]);
    EXPECT_FALSE(seen_seq[r.seq]);
    seen_idx[r.trace_index] = true;
    seen_seq[r.seq] = true;
    // Deterministic advisor + no install: the served MLU is exactly the
    // fixed config's MLU on that snapshot.
    EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], cfg))
        << "index " << r.trace_index;
    EXPECT_GE(r.serve_seconds, 0.0);
    EXPECT_GE(r.total_seconds, r.serve_seconds);
  }
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kServed], 78u);
  EXPECT_EQ(s[Counter::kOverflows], 0u);
}

TEST(ServingLoopStream, InstallServesQuantizedRatios) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 30, 11);
  const TeConfig cfg = skewed_config(ps);

  ServingLoop::Options opt;
  opt.workers = 1;
  opt.install = true;
  opt.wcmp_table_size = 16;
  ServingLoop loop(ps, trace, opt);

  FixedAdvisor a(ps, cfg);
  std::vector<TeScheme*> advisors{&a};
  loop.start(advisors);
  for (std::uint32_t t = 2; t < 30; ++t) loop.submit(t);
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  const TeConfig installed =
      ratios_from_wcmp(ps, quantize_wcmp(ps, cfg, 16));
  const double expected_err = quantization_error(ps, cfg, quantize_wcmp(ps, cfg, 16));
  ASSERT_EQ(results.size(), 28u);
  for (const auto& r : results) {
    EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], installed));
    EXPECT_EQ(r.quant_error, expected_err);
    EXPECT_GE(r.install_seconds, 0.0);
  }
}

/// Serves a fitted FIGRET model, but holds its first advise until the test
/// releases it, so the test can queue jobs behind it, and throws on the
/// snapshot `poisoned` (its history ends right before that trace index),
/// alone or inside a batch. Every advise call, lone or batched, first
/// sleeps for `delay`.
class GatedAdvisor final : public TeScheme {
 public:
  GatedAdvisor(FigretScheme& model, const traffic::TrafficTrace& trace,
               std::uint32_t poisoned)
      : model_(model), trace_(trace), poisoned_(poisoned) {}
  std::string name() const override { return "Gated"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix> history) override {
    TeConfig out;
    advise_into(history, out);
    return out;
  }
  void advise_into(std::span<const traffic::DemandMatrix> history,
                   TeConfig& out) override {
    hold();
    std::this_thread::sleep_for(delay);
    if (is_poisoned(history)) throw std::runtime_error("poisoned snapshot");
    model_.advise_into(history, out);
  }
  void advise_batch_into(
      std::span<const std::span<const traffic::DemandMatrix>> histories,
      std::span<TeConfig> outs) override {
    hold();
    std::this_thread::sleep_for(delay);
    batch_sizes.push_back(histories.size());
    for (const auto& h : histories)
      if (is_poisoned(h)) {
        ++batch_throws;
        throw std::runtime_error("poisoned snapshot in a batch");
      }
    model_.advise_batch_into(histories, outs);
  }
  std::size_t history_window() const override {
    return model_.history_window();
  }

  std::chrono::milliseconds delay{0};
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  // Written by the one worker; read after finish().
  std::vector<std::size_t> batch_sizes;
  std::size_t batch_throws = 0;

 private:
  void hold() {
    if (held_) return;
    held_ = true;
    holding.store(true);
    while (!release.load()) std::this_thread::yield();
  }
  bool is_poisoned(std::span<const traffic::DemandMatrix> h) const {
    return h.data() + h.size() == trace_.snapshots.data() + poisoned_;
  }

  FigretScheme& model_;
  const traffic::TrafficTrace& trace_;
  std::uint32_t poisoned_;
  bool held_ = false;
};

TEST(ServingLoopStream, QueuedJobsAreAdvisedInBatchesBitIdentically) {
  const PathSet ps = mesh_pathset(5);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(5, 90, 31);
  FigretOptions fopt;
  fopt.history = 3;
  fopt.hidden = {16, 16};
  fopt.epochs = 2;
  FigretScheme fig(ps, fopt);
  fig.fit(trace.slice(0, 40));

  // The single-advise reference: each index advised alone, served as
  // advised (install off).
  const std::uint32_t first = 40, end = 90, poisoned = 57;
  std::vector<double> reference(end, 0.0);
  for (std::uint32_t t = first; t < end; ++t)
    reference[t] = mlu(ps, trace[t],
                       fig.advise({trace.snapshots.data() + (t - 3), 3}));

  ServingLoop::Options opt;
  opt.workers = 1;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  GatedAdvisor gate(fig, trace, poisoned);
  std::vector<TeScheme*> advisors{&gate};
  loop.start(advisors);
  // The first job holds the worker while every other one is queued.
  loop.submit(first);
  while (!gate.holding.load()) std::this_thread::yield();
  for (std::uint32_t t = first + 1; t < end; ++t) loop.submit(t);
  gate.release.store(true);
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  ASSERT_EQ(results.size(), end - first);
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_GT(s[Counter::kBatchedSnapshots], 0u);
  EXPECT_TRUE(std::any_of(gate.batch_sizes.begin(), gate.batch_sizes.end(),
                          [](std::size_t n) { return n > 1; }));
  for (std::size_t n : gate.batch_sizes) EXPECT_LE(n, TeScheme::kMaxBatch);
  // The poisoned snapshot sank its batch; its batch-mates were re-advised
  // alone and served fresh, so only it degraded.
  EXPECT_EQ(gate.batch_throws, 1u);
  EXPECT_EQ(s[Counter::kInvalidOutputs], 1u);
  for (const SnapshotResult& r : results) {
    if (r.trace_index == poisoned) {
      EXPECT_NE(r.rung, FallbackRung::kFresh);
      continue;
    }
    EXPECT_EQ(r.rung, FallbackRung::kFresh) << "index " << r.trace_index;
    EXPECT_EQ(r.raw_mlu, reference[r.trace_index])
        << "index " << r.trace_index;
  }
}

TEST(ServingLoopStream, BatchedServiceTimesSumToTheWorkersBusyTime) {
  // Per-job service (total - queue) of one worker's jobs must be disjoint
  // intervals, so they sum to at most the wall time: a batched advise is
  // counted once, in the service of the batch's first job, and the later
  // jobs wait for it in their queue time.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 40, 37);
  FigretOptions fopt;
  fopt.history = 2;
  fopt.hidden = {8};
  fopt.epochs = 1;
  FigretScheme fig(ps, fopt);
  fig.fit(trace.slice(0, 20));

  ServingLoop::Options opt;
  opt.workers = 1;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  GatedAdvisor gate(fig, trace, /*poisoned=*/0);
  gate.delay = std::chrono::milliseconds(10);
  std::vector<TeScheme*> advisors{&gate};
  loop.start(advisors);
  const auto begin = std::chrono::steady_clock::now();
  const std::uint32_t first = 20, end = 33;
  loop.submit(first);
  while (!gate.holding.load()) std::this_thread::yield();
  for (std::uint32_t t = first + 1; t < end; ++t) loop.submit(t);
  gate.release.store(true);
  loop.finish();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  ASSERT_EQ(results.size(), end - first);
  ASSERT_TRUE(std::any_of(gate.batch_sizes.begin(), gate.batch_sizes.end(),
                          [](std::size_t n) { return n > 1; }));
  double busy = 0.0;
  for (const SnapshotResult& r : results) {
    EXPECT_GE(r.queue_seconds, 0.0);
    EXPECT_GE(r.total_seconds, r.queue_seconds);
    EXPECT_GE(r.infer_seconds, 0.010) << "index " << r.trace_index;
    busy += r.total_seconds - r.queue_seconds;
  }
  // Counting each batched advise once per job would add 10 ms per extra
  // job in a batch: at least 30 ms over the wall time here.
  EXPECT_LE(busy, wall);
}

TEST(ServingLoopStream, OracleNormalizesAndChainsWarmStarts) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 60, 23);
  const TeConfig cfg = skewed_config(ps);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.install = false;
  opt.oracle = true;
  ServingLoop loop(ps, trace, opt);

  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);
  for (std::uint32_t t = 2; t < 60; ++t) loop.submit(t);
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  ASSERT_EQ(results.size(), 58u);
  for (const auto& r : results) {
    EXPECT_GT(r.oracle_mlu, 0.0);
    // Omniscient is optimal, so normalization is >= 1 up to LP tolerance.
    EXPECT_GE(r.normalized, 1.0 - 1e-6);
    EXPECT_GE(r.lp_seconds, 0.0);
  }
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kOracleFailures], 0u);
  // Per-worker chains across 58 consecutive resolves must score warm hits.
  EXPECT_GT(s[Counter::kWarmHits] + s[Counter::kWarmMisses], 0u);
  EXPECT_GT(s[Counter::kWarmHits], 0u);
  // Each worker's first optimum is certificate-checked, and passes.
  EXPECT_EQ(s[Counter::kOracleCertificateFailures], 0u);
  // The ToR trace's zero-demand pairs change, so LPs reshape now and then.
  EXPECT_GE(s[Counter::kOracleRebuilds], 1u);
}

TEST(ServingLoopStream, OracleReassemblesOnlyWhenTheLpReshapes) {
  // GEANT WAN snapshots all share one LP pattern: each worker assembles its
  // oracle's standard form once, then rewrites it in place. A failure-mask
  // install or clear changes only bounds and right-hand sides, so no worker
  // reassembles across it.
  const net::Graph g = net::geant();
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace =
      traffic::wan_trace(g.num_nodes(), 160, 101);
  const TeConfig cfg = skewed_config(ps);
  const auto failed = sample_safe_failures(ps, 2, 3);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.oracle = true;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);
  // Serves `count` snapshots from `first` and waits for them; returns the
  // rebuilds so far.
  const auto serve = [&](std::uint32_t first, std::uint32_t count) {
    for (std::uint32_t t = first; t < first + count; ++t) loop.submit(t);
    while (loop.completed() < loop.submitted()) std::this_thread::yield();
    return loop.stats().snapshot()[Counter::kOracleRebuilds];
  };
  EXPECT_EQ(serve(2, 52), 2u);
  loop.install_failures(failed);
  EXPECT_EQ(serve(54, 52), 2u);
  loop.clear_failures();
  EXPECT_EQ(serve(106, 52), 2u);
  loop.finish();

  std::vector<SnapshotResult> results;
  loop.drain(results);
  ASSERT_EQ(results.size(), 156u);
  for (const auto& r : results) EXPECT_GE(r.normalized, 1.0 - 1e-6);
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kOracleFailures], 0u);
  EXPECT_EQ(s[Counter::kOracleCertificateFailures], 0u);
  // Every solve but each worker's first (cold: no basis yet) primes in its
  // kept pivot order, across the mask swaps too.
  EXPECT_EQ(s[Counter::kOracleInorderRefactors], results.size() - 2);
}

TEST(ServingLoopStream, NumericalOracleVerdictIsNotRetried) {
  // Demands of 1e-13 with the pivot tolerance disabled: every oracle solve
  // pivots a path variable in on a 1e-13 capacity-row entry, the basis goes
  // singular, and the solve reports kNumerical. The same LP would fail the
  // same way again, so the loop must record the failure without retrying.
  const PathSet ps = mesh_pathset(4);
  traffic::TrafficTrace trace;
  trace.num_nodes = 4;
  trace.snapshots.assign(12, traffic::DemandMatrix(4, 1e-13));
  const MluLpResult probe = [&] {
    lp::SolverOptions s;
    s.simplex.pivot_tolerance = 1e-20;
    return solve_mlu_lp(ps, trace[0], nullptr, nullptr, &s);
  }();
  ASSERT_EQ(probe.status, lp::Status::kNumerical);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.oracle = true;
  opt.oracle_retries = 3;
  opt.solver.simplex.pivot_tolerance = 1e-20;
  ServingLoop loop(ps, trace, opt);
  const TeConfig cfg = uniform_config(ps);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);
  for (std::uint32_t t = 2; t < 12; ++t) loop.submit(t);
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);

  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) EXPECT_EQ(r.lp_attempts, 1u);
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kOracleRetries], 0u);
  EXPECT_EQ(s[Counter::kOracleFailures], 10u);
  EXPECT_EQ(s.oracle_attempt_failures[static_cast<std::size_t>(
                lp::Status::kNumerical)],
            10u);
}

TEST(ServingLoopStream, MidStreamFailureReroutesSubsequentSnapshots) {
  // Satellite: §5.3-style failure injected mid-stream. Snapshots served
  // before the event score the healthy config; snapshots served after it
  // score the §4.5 reroute — exactly, because the advisor is deterministic.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 60, 23);
  const TeConfig cfg = skewed_config(ps);
  const auto failed = sample_safe_failures(ps, 1, 3);
  const std::vector<bool> alive = surviving_paths(ps, failed);
  const TeConfig rerouted = reroute(ps, cfg, alive);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);

  for (std::uint32_t t = 2; t < 30; ++t) loop.submit(t);
  // Quiesce so no in-flight snapshot straddles the failure event.
  while (loop.completed() < loop.submitted()) std::this_thread::yield();
  loop.install_failures(failed);
  for (std::uint32_t t = 30; t < 60; ++t) loop.submit(t);
  loop.finish();

  std::vector<SnapshotResult> results;
  loop.drain(results);
  ASSERT_EQ(results.size(), 58u);
  std::size_t healthy = 0, failed_served = 0;
  for (const auto& r : results) {
    if (r.trace_index < 30) {
      EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], cfg));
      ++healthy;
    } else {
      EXPECT_EQ(r.raw_mlu, mlu(ps, trace[r.trace_index], rerouted));
      ++failed_served;
    }
  }
  EXPECT_EQ(healthy, 28u);
  EXPECT_EQ(failed_served, 30u);
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kFailureEpochs], 1u);
  // Reroute is timed only under the mask; scoring times every snapshot.
  EXPECT_EQ(s[Stage::kReroute].count, failed_served);
  EXPECT_EQ(s[Stage::kScore].count, s[Counter::kServed]);

  // clear_failures() restores healthy serving on a restarted stream.
  loop.clear_failures();
  loop.start(advisors);
  loop.submit(10);
  loop.finish();
  results.clear();
  loop.drain(results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].raw_mlu, mlu(ps, trace[10], cfg));
}

TEST(ServingLoopStream, MaskChangesRequireAQuiescentLoop) {
  // A mask changes only between snapshots: while a submitted snapshot is in
  // service, install_failures and clear_failures throw and leave the mask
  // as it was.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 40, 23);
  FigretOptions fopt;
  fopt.history = 2;
  fopt.hidden = {8};
  fopt.epochs = 1;
  FigretScheme fig(ps, fopt);
  fig.fit(trace.slice(0, 20));
  const auto failed = sample_safe_failures(ps, 1, 3);

  ServingLoop::Options opt;
  opt.workers = 1;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  GatedAdvisor gate(fig, trace, 0);  // poisons no served snapshot
  std::vector<TeScheme*> advisors{&gate};
  loop.install_failures(failed);  // before start(): nothing is in service
  loop.start(advisors);
  loop.submit(25);
  EXPECT_THROW(loop.install_failures({}), std::logic_error);
  EXPECT_THROW(loop.clear_failures(), std::logic_error);
  gate.release.store(true);
  while (loop.completed() < loop.submitted()) std::this_thread::yield();
  loop.clear_failures();
  loop.submit(26);
  loop.finish();

  std::vector<SnapshotResult> results;
  loop.drain(results);
  ASSERT_EQ(results.size(), 2u);
  std::sort(results.begin(), results.end(),
            [](const SnapshotResult& x, const SnapshotResult& y) {
              return x.trace_index < y.trace_index;
            });
  const auto advised = [&](std::uint32_t t) {
    return fig.advise({trace.snapshots.data() + (t - 2), 2});
  };
  EXPECT_EQ(results[0].raw_mlu,
            mlu(ps, trace[25],
                reroute(ps, advised(25), surviving_paths(ps, failed))));
  EXPECT_EQ(results[1].raw_mlu, mlu(ps, trace[26], advised(26)));
  EXPECT_EQ(loop.stats().snapshot()[Counter::kFailureEpochs], 2u);
}

TEST(ServingLoopStream, RetrainMonitorWatchesTheStream) {
  // Satellite: the §6 retraining detectors consume streaming results. Feed a
  // drifted traffic regime through the loop and let the monitor watch the
  // served snapshots' demands — it must trip, and gracefully (the stream
  // itself keeps serving).
  const PathSet ps = mesh_pathset(4);
  traffic::TrafficTrace trace = traffic::wan_trace(4, 60, 23);
  // Drift: from t=30 on, traffic concentrates on one pair, unlike training.
  for (std::size_t t = 30; t < 60; ++t) {
    for (std::size_t p = 0; p < trace.snapshots[t].size(); ++p)
      trace.snapshots[t][p] = p == 0 ? 100.0 * (1.0 + trace.snapshots[t][p])
                                     : 0.01;
  }

  RetrainPolicy policy;
  policy.window = 16;
  policy.trigger_count = 8;
  RetrainMonitor monitor(policy);
  monitor.set_reference(trace.slice(0, 30));

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.install = false;
  ServingLoop loop(ps, trace, opt);
  const TeConfig cfg = uniform_config(ps);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);

  std::vector<SnapshotResult> results;
  bool tripped_during_healthy = false;
  const auto observe_drained = [&] {
    results.clear();
    loop.drain(results);
    for (const auto& r : results) {
      monitor.observe(trace[r.trace_index],
                      std::numeric_limits<double>::quiet_NaN());
      if (r.trace_index < 30 && monitor.should_retrain())
        tripped_during_healthy = true;
    }
  };
  for (std::uint32_t t = 2; t < 60; ++t) {
    if (t == 30) {
      // Quiesce at the regime boundary so every healthy snapshot is observed
      // (and judged) before the first drifted one enters the monitor window.
      while (loop.completed() < loop.submitted()) std::this_thread::yield();
      observe_drained();
    }
    loop.submit(t);
    observe_drained();
  }
  loop.finish();
  observe_drained();

  EXPECT_EQ(loop.stats().snapshot()[Counter::kServed], 58u);
  EXPECT_FALSE(tripped_during_healthy)
      << "healthy traffic must not trip the detector";
  EXPECT_TRUE(monitor.should_retrain())
      << "drifted in window: " << monitor.drifted_in_window();
}

TEST(ServingLoopStream, SloViolationsAreCounted) {
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 20, 5);
  const TeConfig cfg = uniform_config(ps);

  // Impossible SLO: everything violates.
  {
    ServingLoop::Options opt;
    opt.workers = 1;
    opt.slo_seconds = 1e-12;
    ServingLoop loop(ps, trace, opt);
    FixedAdvisor a(ps, cfg, 1);
    std::vector<TeScheme*> advisors{&a};
    loop.start(advisors);
    for (std::uint32_t t = 1; t < 20; ++t) loop.submit(t);
    loop.finish();
    const auto snap = loop.stats().snapshot();
    EXPECT_EQ(snap[Counter::kSloViolations], 19u);
    EXPECT_GT(snap[Stage::kServe].p99, 0.0);
  }
  // Generous SLO: nothing violates.
  {
    ServingLoop::Options opt;
    opt.workers = 1;
    opt.slo_seconds = 1000.0;
    ServingLoop loop(ps, trace, opt);
    FixedAdvisor a(ps, cfg, 1);
    std::vector<TeScheme*> advisors{&a};
    loop.start(advisors);
    for (std::uint32_t t = 1; t < 20; ++t) loop.submit(t);
    loop.finish();
    EXPECT_EQ(loop.stats().snapshot()[Counter::kSloViolations], 0u);
  }
}

TEST(ServingLoopStream, OverflowCountsRejectedSubmissions) {
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 40, 5);
  ServingLoop::Options opt;
  opt.workers = 1;
  opt.queue_capacity = 4;
  ServingLoop loop(ps, trace, opt);
  SleepyAdvisor slow(uniform_config(ps), std::chrono::milliseconds(5));
  std::vector<TeScheme*> advisors{&slow};
  loop.start(advisors);

  std::size_t rejected = 0;
  for (std::uint32_t t = 1; t < 40; ++t)
    if (!loop.try_submit(t)) ++rejected;
  loop.finish();

  EXPECT_GT(rejected, 0u) << "a 5ms advisor behind a 4-slot ring must spill";
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kOverflows], rejected);
  EXPECT_EQ(s[Counter::kServed] + rejected, 39u);
}

TEST(ServingLoopStream, FeedDrivesTheLoop) {
  // Integration: SnapshotFeed pacing -> ring -> workers, lossless mode.
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 50, 5);
  ServingLoop::Options opt;
  opt.workers = 2;
  opt.queue_capacity = 8;
  ServingLoop loop(ps, trace, opt);
  const TeConfig cfg = uniform_config(ps);
  FixedAdvisor a(ps, cfg, 1), b(ps, cfg, 1);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);

  traffic::SnapshotFeed::Options fopt;
  fopt.begin = 1;
  fopt.end = 50;
  fopt.rate = 0.0;
  fopt.drop_on_backpressure = false;
  traffic::SnapshotFeed feed(fopt);
  // The producer must drain results while feeding — with a tiny results ring
  // (2x queue_capacity = 16 slots) the workers would otherwise block on
  // publish and the lossless feed would retry forever.
  std::vector<SnapshotResult> results;
  feed.run([&](std::uint32_t idx) {
    loop.drain(results);
    return loop.try_submit(idx);
  });
  while (loop.completed() < loop.submitted()) {
    loop.drain(results);
    std::this_thread::yield();
  }
  loop.finish();
  loop.drain(results);

  EXPECT_EQ(feed.accepted(), 49u);
  EXPECT_EQ(loop.stats().snapshot()[Counter::kServed], 49u);
  EXPECT_EQ(results.size(), 49u);
}

/// A two-worker stream that touches every stage and most counters: install,
/// oracle, a tiny SLO, and a failure mask over the second half.
void run_busy_stream(ServingLoop& loop, const PathSet& ps) {
  const TeConfig cfg = skewed_config(ps);
  FixedAdvisor a(ps, cfg), b(ps, cfg);
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);
  for (std::uint32_t t = 2; t < 20; ++t) loop.submit(t);
  while (loop.completed() < loop.submitted()) std::this_thread::yield();
  loop.install_failures(sample_safe_failures(ps, 1, 3));
  for (std::uint32_t t = 20; t < 40; ++t) loop.submit(t);
  loop.finish();
}

ServingLoop::Options busy_options() {
  ServingLoop::Options opt;
  opt.workers = 2;
  opt.oracle = true;
  opt.slo_seconds = 1e-12;
  return opt;
}

TEST(ServingStatsTables, ResetZeroesEveryTable) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 40, 23);
  ServingLoop loop(ps, trace, busy_options());
  run_busy_stream(loop, ps);
  const ServingStats::Snapshot before = loop.stats().snapshot();
  ASSERT_EQ(before[Counter::kServed], 38u);
  for (std::size_t k = 0; k < kStageCount; ++k)
    ASSERT_GT(before.stages[k].count, 0u)
        << to_string(static_cast<Stage>(k));

  loop.stats().reset();
  const ServingStats::Snapshot s = loop.stats().snapshot();
  for (std::size_t k = 0; k < kCounterCount; ++k)
    EXPECT_EQ(s.counters[k], 0u) << to_string(static_cast<Counter>(k));
  for (const std::uint64_t v : s.rungs) EXPECT_EQ(v, 0u);
  for (const std::uint64_t v : s.warm_fallbacks) EXPECT_EQ(v, 0u);
  for (const std::uint64_t v : s.oracle_attempt_failures) EXPECT_EQ(v, 0u);
  for (std::size_t k = 0; k < kStageCount; ++k) {
    const ServingStats::StageSummary& st = s.stages[k];
    EXPECT_EQ(st.count, 0u) << to_string(static_cast<Stage>(k));
    EXPECT_EQ(st.p50, 0.0);
    EXPECT_EQ(st.p999, 0.0);
    EXPECT_EQ(st.max, 0.0);
  }
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1))
    ++n;
  return n;
}

/// The scalar that follows `key` in compact JSON text.
std::string scalar_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size();
  return text.substr(begin, text.find_first_of(",}", begin) - begin);
}

TEST(ServingStatsTables, JsonExportMirrorsTheSnapshot) {
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 40, 23);
  ServingLoop loop(ps, trace, busy_options());
  run_busy_stream(loop, ps);
  const ServingStats::Snapshot s = loop.stats().snapshot();
  const util::Json j = s.to_json();
  EXPECT_EQ(j.size(), 5u);  // four counter tables + "stages"
  const std::string text = j.dump(0);
  const auto num = [](auto v) { return util::Json(v).dump(0); };

  for (std::size_t k = 0; k < kCounterCount; ++k) {
    const std::string key = std::string("\"") +
                            to_string(static_cast<Counter>(k)) + "\":";
    EXPECT_EQ(occurrences(text, key), 1u) << key;
    EXPECT_EQ(scalar_after(text, key), num(s.counters[k])) << key;
  }
  for (std::size_t k = 0; k < kStageCount; ++k) {
    const ServingStats::StageSummary& st = s.stages[k];
    const std::string key =
        std::string("\"") + to_string(static_cast<Stage>(k)) + "\":";
    EXPECT_EQ(occurrences(text, key), 1u) << key;
    const std::string value = "{\"count\":" + num(st.count) +
                              ",\"p50_s\":" + num(st.p50) +
                              ",\"p99_s\":" + num(st.p99) +
                              ",\"p999_s\":" + num(st.p999) +
                              ",\"max_s\":" + num(st.max) + "}";
    EXPECT_NE(text.find(key + value), std::string::npos) << key << value;
  }
  const std::string fresh =
      std::string("\"") + to_string(FallbackRung::kFresh) + "\":";
  EXPECT_EQ(scalar_after(text, fresh), num(s.rungs[0]));
}

TEST(ServingLoopStream, ValidatesSubmissionsAndLifecycle) {
  const PathSet ps = mesh_pathset(3);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(3, 20, 5);
  ServingLoop::Options opt;
  opt.workers = 1;
  ServingLoop loop(ps, trace, opt);
  EXPECT_THROW(loop.submit(5), std::logic_error) << "submit before start";

  FixedAdvisor a(ps, uniform_config(ps), 4);
  std::vector<TeScheme*> advisors{&a};
  loop.start(advisors);
  EXPECT_THROW(loop.submit(3), std::out_of_range) << "inside history window";
  EXPECT_THROW(loop.submit(20), std::out_of_range) << "past trace end";
  EXPECT_THROW(loop.start(advisors), std::logic_error) << "double start";
  loop.submit(4);
  loop.finish();
  EXPECT_EQ(loop.stats().snapshot()[Counter::kServed], 1u);

  // Wrong advisor count.
  ServingLoop loop2(ps, trace, opt);
  std::vector<TeScheme*> none;
  EXPECT_THROW(loop2.start(none), std::invalid_argument);
}

}  // namespace
}  // namespace figret::te
