#include "te/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/lp_schemes.h"
#include "te/serving_loop.h"
#include "traffic/generators.h"

namespace figret::te {
namespace {

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

/// Pure advisor: output depends only on the history slice, never on call
/// order — the class of scheme the soak's bit-reproducibility contract
/// covers (LP-backed schemes chain per-worker warm state and are exempt).
class FixedAdvisor final : public TeScheme {
 public:
  explicit FixedAdvisor(TeConfig cfg, std::size_t window = 2)
      : cfg_(std::move(cfg)), window_(window) {}
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

TeConfig skewed_config(const PathSet& ps) {
  TeConfig raw(ps.num_paths(), 0.0);
  for (std::size_t p = 0; p < ps.num_paths(); ++p)
    raw[p] = 1.0 + static_cast<double>(p % 5);
  return normalize_config(ps, raw);
}

ChaosOptions soak_options(std::uint64_t seed) {
  ChaosOptions opt;
  opt.seed = seed;
  opt.failure_rate = 0.15;
  opt.mean_repair_epochs = 3.0;
  opt.max_repair_epochs = 8;
  opt.overrun_rate = 0.2;
  opt.stall_rate = 0.1;
  opt.stall_seconds = 0.0001;
  opt.corrupt_output_rate = 0.2;
  opt.corrupt_demand_rate = 0.1;
  opt.burst_rate = 0.1;
  return opt;
}

// --- spec parser -----------------------------------------------------------

TEST(ChaosSpec, ParsesKeyValueList) {
  const ChaosOptions opt = parse_chaos_spec(
      "seed=9,fail=0.25,repair=4,maxrepair=12,maxfail=3,overrun=0.5,"
      "stall=0.125,stallms=2,corrupt=0.75,demand=0.0625,burst=1");
  EXPECT_EQ(opt.seed, 9u);
  EXPECT_DOUBLE_EQ(opt.failure_rate, 0.25);
  EXPECT_DOUBLE_EQ(opt.mean_repair_epochs, 4.0);
  EXPECT_EQ(opt.max_repair_epochs, 12u);
  EXPECT_EQ(opt.max_concurrent_failures, 3u);
  EXPECT_DOUBLE_EQ(opt.overrun_rate, 0.5);
  EXPECT_DOUBLE_EQ(opt.stall_rate, 0.125);
  EXPECT_DOUBLE_EQ(opt.stall_seconds, 0.002);
  EXPECT_DOUBLE_EQ(opt.corrupt_output_rate, 0.75);
  EXPECT_DOUBLE_EQ(opt.corrupt_demand_rate, 0.0625);
  EXPECT_DOUBLE_EQ(opt.burst_rate, 1.0);
}

TEST(ChaosSpec, IntensityShorthand) {
  const ChaosOptions opt = parse_chaos_spec("intensity=0.4");
  EXPECT_DOUBLE_EQ(opt.failure_rate, 0.2);
  EXPECT_DOUBLE_EQ(opt.overrun_rate, 0.2);
  EXPECT_DOUBLE_EQ(opt.corrupt_output_rate, 0.2);
  EXPECT_DOUBLE_EQ(opt.stall_rate, 0.1);
  EXPECT_DOUBLE_EQ(opt.corrupt_demand_rate, 0.1);
  EXPECT_DOUBLE_EQ(opt.burst_rate, 0.05);
}

TEST(ChaosSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_chaos_spec("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("fail"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("fail=abc"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("fail=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("fail=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("fail=nan"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("seed=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_chaos_spec("repair=0.5"), std::invalid_argument);
}

TEST(ChaosSpec, EmptySpecIsDefaults) {
  const ChaosOptions opt = parse_chaos_spec("");
  EXPECT_DOUBLE_EQ(opt.failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(opt.corrupt_output_rate, 0.0);
}

// --- failure domains -------------------------------------------------------

TEST(FailureDomains, LinkDomainsPairArcWithReverse) {
  const net::Graph g = net::full_mesh(4);
  const auto domains = net::link_domains(g);
  // A full mesh has n*(n-1)/2 links, each contributing both arcs.
  EXPECT_EQ(domains.size(), 6u);
  for (const auto& d : domains) {
    ASSERT_EQ(d.edges.size(), 2u);
    const net::Edge& a = g.edge(d.edges[0]);
    const net::Edge& b = g.edge(d.edges[1]);
    EXPECT_EQ(a.src, b.dst);
    EXPECT_EQ(a.dst, b.src);
  }
}

TEST(FailureDomains, NodeDomainsCoverTouchingArcs) {
  const net::Graph g = net::full_mesh(4);
  const auto domains = net::node_domains(g);
  ASSERT_EQ(domains.size(), 4u);
  for (std::size_t v = 0; v < 4; ++v) {
    // Node v touches 3 outgoing + 3 incoming arcs in a 4-mesh.
    EXPECT_EQ(domains[v].edges.size(), 6u) << "node " << v;
    for (const net::EdgeId e : domains[v].edges) {
      const net::Edge& edge = g.edge(e);
      EXPECT_TRUE(edge.src == v || edge.dst == v);
    }
  }
}

// --- schedule --------------------------------------------------------------

TEST(ChaosEngine, ScheduleIsDeterministicForSeed) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const ChaosOptions opt = soak_options(11);
  const ChaosEngine a(ps, net::node_domains(g), opt, 10, 120);
  const ChaosEngine b(ps, net::node_domains(g), opt, 10, 120);
  for (std::uint32_t t = 10; t < 120; ++t) {
    const EpochPlan& pa = a.plan(t);
    const EpochPlan& pb = b.plan(t);
    EXPECT_EQ(pa.mask_id, pb.mask_id);
    EXPECT_EQ(pa.corruption, pb.corruption);
    EXPECT_EQ(pa.overrun, pb.overrun);
    EXPECT_EQ(pa.stall, pb.stall);
    EXPECT_EQ(pa.corrupt_demand, pb.corrupt_demand);
    EXPECT_EQ(pa.burst, pb.burst);
    EXPECT_EQ(a.failed_edges(t), b.failed_edges(t));
    EXPECT_EQ(a.last_clean_before(t), b.last_clean_before(t));
  }
  EXPECT_EQ(a.summary().failure_events, b.summary().failure_events);
}

TEST(ChaosEngine, FaultClassSubstreamsAreIndependent) {
  // Raising the corruption rate must not reshuffle the failure schedule —
  // each fault class draws from its own substream of the seed.
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  ChaosOptions lo = soak_options(5);
  lo.corrupt_output_rate = 0.0;
  ChaosOptions hi = lo;
  hi.corrupt_output_rate = 0.9;
  const ChaosEngine a(ps, net::node_domains(g), lo, 10, 150);
  const ChaosEngine b(ps, net::node_domains(g), hi, 10, 150);
  for (std::uint32_t t = 10; t < 150; ++t) {
    EXPECT_EQ(a.plan(t).mask_id, b.plan(t).mask_id) << "epoch " << t;
    EXPECT_EQ(a.plan(t).overrun, b.plan(t).overrun) << "epoch " << t;
  }
  EXPECT_EQ(a.summary().failure_events, b.summary().failure_events);
  EXPECT_GT(b.summary().corrupt_outputs, a.summary().corrupt_outputs);
}

TEST(ChaosEngine, RepairTimesAreBounded) {
  // Exponential repair draws are clamped to [1, max_repair_epochs]. With one
  // concurrent failure, spells never overlap (a new arrival can chain onto a
  // repair but each event still occupies its own bounded window), so the
  // schedule-wide invariant is: failure_events <= masked_epochs <=
  // failure_events * max_repair_epochs.
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  ChaosOptions opt;
  opt.seed = 3;
  opt.failure_rate = 0.3;
  opt.mean_repair_epochs = 2.0;
  opt.max_repair_epochs = 5;
  opt.max_concurrent_failures = 1;
  const ChaosEngine eng(ps, net::node_domains(g), opt, 0, 400);
  const auto& sum = eng.summary();
  ASSERT_GT(sum.failure_events, 0u);
  EXPECT_GE(sum.masked_epochs, sum.failure_events);
  EXPECT_LE(sum.masked_epochs, sum.failure_events * opt.max_repair_epochs);
  // Cross-check the summary against the plans themselves.
  std::size_t masked = 0;
  for (std::uint32_t t = 0; t < 400; ++t)
    if (eng.plan(t).mask_id != 0) ++masked;
  EXPECT_EQ(masked, sum.masked_epochs);
}

TEST(ChaosEngine, LastCleanBeforeIsConsistent) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const ChaosEngine eng(ps, net::node_domains(g), soak_options(17), 10, 200);
  std::uint32_t expect = ChaosEngine::kNoEpoch;
  for (std::uint32_t t = 10; t < 200; ++t) {
    EXPECT_EQ(eng.last_clean_before(t), expect) << "epoch " << t;
    if (eng.plan(t).clean()) expect = t;
  }
}

TEST(ChaosEngine, RejectsBadRanges) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  EXPECT_THROW(ChaosEngine(ps, net::node_domains(g), {}, 10, 10),
               std::invalid_argument);
  const ChaosEngine eng(ps, net::node_domains(g), {}, 10, 20);
  EXPECT_THROW(eng.plan(9), std::out_of_range);
  EXPECT_THROW(eng.plan(20), std::out_of_range);
}

// --- corruption + validation ----------------------------------------------

TEST(ChaosCorruption, ConfigServableRejectsNonFiniteAndNegative) {
  EXPECT_TRUE(config_servable({0.0, 0.5, 1.0}));
  EXPECT_FALSE(config_servable({0.5, std::nan("")}));
  EXPECT_FALSE(
      config_servable({0.5, std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(config_servable({0.5, -0.1}));
}

TEST(ChaosCorruption, CorruptConfigMatchesScheduledFlavor) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  ChaosOptions opt;
  opt.seed = 2;
  opt.corrupt_output_rate = 1.0;  // every epoch corrupts, flavors cycle
  const ChaosEngine eng(ps, net::node_domains(g), opt, 10, 40);
  bool saw_nan = false, saw_inf = false, saw_neg = false;
  for (std::uint32_t t = 10; t < 40; ++t) {
    ASSERT_NE(eng.plan(t).corruption, Corruption::kNone);
    TeConfig cfg = uniform_config(ps);
    eng.corrupt_config(t, cfg);
    EXPECT_FALSE(config_servable(cfg)) << "epoch " << t;
    // Deterministic in (seed, index): a second application to a fresh copy
    // lands on identical positions and values.
    TeConfig again = uniform_config(ps);
    eng.corrupt_config(t, again);
    for (std::size_t p = 0; p < cfg.size(); ++p) {
      const bool both_nan = std::isnan(cfg[p]) && std::isnan(again[p]);
      EXPECT_TRUE(both_nan || cfg[p] == again[p]);
    }
    switch (eng.plan(t).corruption) {
      case Corruption::kNan:
        saw_nan = true;
        break;
      case Corruption::kInf:
        saw_inf = true;
        break;
      case Corruption::kNegative:
        saw_neg = true;
        break;
      case Corruption::kNone:
        break;
    }
  }
  EXPECT_TRUE(saw_nan && saw_inf && saw_neg);
}

TEST(ChaosCorruption, FingerprintSeparatesRungAndValues) {
  const TeConfig a{0.5, 0.25, 0.25};
  TeConfig b = a;
  EXPECT_EQ(config_fingerprint(a, FallbackRung::kFresh),
            config_fingerprint(b, FallbackRung::kFresh));
  EXPECT_NE(config_fingerprint(a, FallbackRung::kFresh),
            config_fingerprint(a, FallbackRung::kLastGood));
  b[1] = 0.26;
  EXPECT_NE(config_fingerprint(a, FallbackRung::kFresh),
            config_fingerprint(b, FallbackRung::kFresh));
}

// --- LP deadline -----------------------------------------------------------

TEST(LpDeadline, PreExpiredBudgetReturnsTypedStatus) {
  // time_limit_seconds < 0 is the chaos injection hook: the solver returns
  // kDeadline before its first pivot instead of throwing.
  const PathSet ps = mesh_pathset(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 8, 3);
  lp::SolverOptions solver;
  solver.simplex.time_limit_seconds = -1.0;
  const MluLpResult res = solve_mlu_lp(ps, trace[4], nullptr, nullptr,
                                       &solver, nullptr);
  EXPECT_EQ(res.status, lp::Status::kDeadline);
  EXPECT_FALSE(res.optimal());
  // And a sane budget still solves to optimality.
  solver.simplex.time_limit_seconds = 30.0;
  const MluLpResult ok = solve_mlu_lp(ps, trace[4], nullptr, nullptr,
                                      &solver, nullptr);
  EXPECT_EQ(ok.status, lp::Status::kOptimal);
}

// --- ladder ----------------------------------------------------------------

TEST(ChaosLadder, RungsFollowTheSchedule) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 120, 5);
  ChaosOptions copt;
  copt.seed = 21;
  copt.corrupt_output_rate = 0.4;
  const ChaosEngine chaos(ps, net::node_domains(g), copt, 10, 120);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.chaos = &chaos;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a0(skewed_config(ps)), a1(skewed_config(ps));
  std::vector<TeScheme*> advisors{&a0, &a1};
  const ChaosRunReport rep = run_chaos_serving(loop, chaos, advisors);

  ASSERT_EQ(rep.served, 110u);
  EXPECT_TRUE(rep.all_finite);
  EXPECT_GT(rep.rungs[1] + rep.rungs[2], 0u);
  // Per-epoch: a clean plan serves fresh; a corrupted output steps down to
  // last-good when a clean donor epoch >= the window exists, else uniform.
  EXPECT_EQ(rep.rungs[0] + rep.rungs[1] + rep.rungs[2], rep.served);
  std::uint64_t expect_fresh = 0, expect_lastgood = 0, expect_uniform = 0;
  for (std::uint32_t t = 10; t < 120; ++t) {
    if (chaos.plan(t).corruption == Corruption::kNone) {
      ++expect_fresh;
    } else {
      const std::uint32_t lg = chaos.last_clean_before(t);
      if (lg != ChaosEngine::kNoEpoch && lg >= 2)
        ++expect_lastgood;
      else
        ++expect_uniform;
    }
  }
  EXPECT_EQ(rep.rungs[0], expect_fresh);
  EXPECT_EQ(rep.rungs[1], expect_lastgood);
  EXPECT_EQ(rep.rungs[2], expect_uniform);
  EXPECT_EQ(rep.stats[Counter::kInvalidOutputs],
            expect_lastgood + expect_uniform);
}

TEST(ChaosLadder, UniformFloorWhenLastGoodDisabled) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 5);
  ChaosOptions copt;
  copt.seed = 21;
  copt.corrupt_output_rate = 0.5;
  const ChaosEngine chaos(ps, net::node_domains(g), copt, 10, 80);

  ServingLoop::Options opt;
  opt.workers = 1;
  opt.fallback_last_good = false;
  opt.chaos = &chaos;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a0(skewed_config(ps));
  std::vector<TeScheme*> advisors{&a0};
  const ChaosRunReport rep = run_chaos_serving(loop, chaos, advisors);
  EXPECT_EQ(rep.rungs[1], 0u);
  EXPECT_EQ(rep.rungs[2], chaos.summary().corrupt_outputs);
  EXPECT_TRUE(rep.all_finite);
}

TEST(ChaosLadder, ThrowingAdvisorIsDegradedNotFatal) {
  // With validation on, an advisor exploding on corrupted demand serves a
  // lower rung; finish() must not rethrow.
  class BrittleAdvisor final : public TeScheme {
   public:
    explicit BrittleAdvisor(TeConfig cfg) : cfg_(std::move(cfg)) {}
    std::string name() const override { return "Brittle"; }
    void fit(const traffic::TrafficTrace&) override {}
    TeConfig advise(std::span<const traffic::DemandMatrix> h) override {
      const traffic::DemandMatrix& last = h[h.size() - 1];
      for (std::size_t p = 0; p < last.size(); ++p)
        if (!std::isfinite(last[p]))
          throw std::runtime_error("non-finite demand");
      return cfg_;
    }
    std::size_t history_window() const override { return 2; }

   private:
    TeConfig cfg_;
  };

  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 80, 5);
  ChaosOptions copt;
  copt.seed = 4;
  copt.corrupt_demand_rate = 0.5;
  const ChaosEngine chaos(ps, net::node_domains(g), copt, 10, 80);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.chaos = &chaos;
  ServingLoop loop(ps, trace, opt);
  BrittleAdvisor a0(skewed_config(ps)), a1(skewed_config(ps));
  std::vector<TeScheme*> advisors{&a0, &a1};
  ChaosRunReport rep;
  ASSERT_NO_THROW(rep = run_chaos_serving(loop, chaos, advisors));
  EXPECT_EQ(rep.served, 70u);
  EXPECT_TRUE(rep.all_finite);
  EXPECT_EQ(rep.stats[Counter::kInvalidOutputs],
            chaos.summary().corrupt_demands);
  EXPECT_GT(rep.rungs[1] + rep.rungs[2], 0u);
}

// --- oracle retry / backoff ------------------------------------------------

TEST(ChaosOracle, InjectedOverrunsRecoverViaRetryWithoutColdFallback) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 100, 9);
  ChaosOptions copt;
  copt.seed = 13;
  copt.overrun_rate = 0.3;
  const ChaosEngine chaos(ps, net::node_domains(g), copt, 10, 100);
  ASSERT_GT(chaos.summary().overruns, 0u);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.oracle = true;
  opt.oracle_retries = 2;
  opt.oracle_backoff_seconds = 0.00005;
  opt.chaos = &chaos;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a0(skewed_config(ps)), a1(skewed_config(ps));
  std::vector<TeScheme*> advisors{&a0, &a1};
  const ChaosRunReport rep = run_chaos_serving(loop, chaos, advisors);

  // Every injected overrun fails exactly the first attempt with kDeadline
  // and recovers on retry: per-reason counters prove the typed path, zero
  // oracle_failures proves no snapshot lost its normalizer.
  const auto overruns =
      static_cast<std::uint64_t>(chaos.summary().overruns);
  EXPECT_EQ(rep.stats[Counter::kOracleRetries], overruns);
  EXPECT_EQ(rep.stats[Counter::kOracleRetrySuccesses], overruns);
  EXPECT_EQ(rep.stats.oracle_attempt_failures[static_cast<std::size_t>(
                lp::Status::kDeadline)],
            overruns);
  EXPECT_EQ(rep.stats[Counter::kOracleFailures], 0u);
  for (std::size_t k = 0; k < lp::kStatusCount; ++k) {
    if (k == static_cast<std::size_t>(lp::Status::kDeadline)) continue;
    EXPECT_EQ(rep.stats.oracle_attempt_failures[k], 0u) << "status " << k;
  }
  // A deadline on a warm chain must not poison it into cold restarts: the
  // injection pre-expires the budget before any pivot, so the basis stays
  // healthy and the retry re-enters warm.
  EXPECT_GT(rep.stats[Counter::kWarmHits], 0u);
}

// --- dropped demand (§4.5 all-paths-dead) ----------------------------------

TEST(ChaosSoak, IsolatedNodeDemandIsPricedAsDropped) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 60, 7);

  ServingLoop::Options opt;
  opt.workers = 1;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a0(skewed_config(ps));
  std::vector<TeScheme*> advisors{&a0};
  loop.start(advisors);
  // Fail every arc touching node 0: all pairs with endpoint 0 go dark.
  loop.install_failures(net::node_domains(g)[0].edges);
  for (std::uint32_t t = 10; t < 20; ++t) loop.submit(t);
  while (loop.completed() < loop.submitted()) std::this_thread::yield();
  loop.finish();
  std::vector<SnapshotResult> results;
  loop.drain(results);
  ASSERT_EQ(results.size(), 10u);
  for (const SnapshotResult& r : results) {
    EXPECT_GT(r.dropped_demand, 0.0) << "index " << r.trace_index;
    EXPECT_TRUE(std::isfinite(r.raw_mlu));
  }
  EXPECT_EQ(loop.stats().snapshot()[Counter::kDroppedPairSnapshots], 10u);
}

// --- the soak: reproducibility + recovery bound ----------------------------

TEST(ChaosSoak, BitReproducibleAcrossWorkerCounts) {
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 150, 31);
  const ChaosOptions copt = soak_options(77);
  const ChaosEngine chaos(ps, net::node_domains(g), copt, 10, 150);

  std::uint64_t ref_hash = 0;
  std::array<std::uint64_t, kFallbackRungCount> ref_rungs{};
  bool first = true;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ServingLoop::Options opt;
    opt.workers = workers;
    opt.oracle = true;
    opt.oracle_backoff_seconds = 0.00002;
    opt.chaos = &chaos;
    ServingLoop loop(ps, trace, opt);
    std::vector<std::unique_ptr<FixedAdvisor>> advisors;
    std::vector<TeScheme*> ptrs;
    for (std::size_t i = 0; i < workers; ++i) {
      advisors.push_back(std::make_unique<FixedAdvisor>(skewed_config(ps)));
      ptrs.push_back(advisors.back().get());
    }
    const ChaosRunReport rep = run_chaos_serving(loop, chaos, ptrs);
    ASSERT_EQ(rep.served, 140u) << "workers " << workers;
    EXPECT_TRUE(rep.all_finite);
    // The report's rung totals, counted from the drained results, agree
    // with the loop's own rung family and served counter.
    EXPECT_EQ(rep.rungs, rep.stats.rungs) << "workers " << workers;
    EXPECT_EQ(rep.served, rep.stats[Counter::kServed])
        << "workers " << workers;
    if (first) {
      ref_hash = rep.determinism_hash;
      ref_rungs = rep.rungs;
      first = false;
    } else {
      EXPECT_EQ(rep.determinism_hash, ref_hash) << "workers " << workers;
      EXPECT_EQ(rep.rungs, ref_rungs) << "workers " << workers;
    }
  }
}

TEST(ChaosSoak, RecoveryBoundedByScheduledDegradation) {
  // The loop must never stay degraded longer than the schedule forces it
  // to: max consecutive degraded epochs <= the longest scheduled streak of
  // (masked || corrupted-output) epochs.
  const PathSet ps = mesh_pathset(4);
  const net::Graph g = net::full_mesh(4);
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(4, 200, 19);
  const ChaosOptions copt = soak_options(101);
  const ChaosEngine chaos(ps, net::node_domains(g), copt, 10, 200);

  std::uint64_t scheduled = 0, streak = 0;
  for (std::uint32_t t = 10; t < 200; ++t) {
    const EpochPlan& p = chaos.plan(t);
    if (p.mask_id != 0 || p.corruption != Corruption::kNone) {
      ++streak;
      scheduled = std::max(scheduled, streak);
    } else {
      streak = 0;
    }
  }

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.chaos = &chaos;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a0(skewed_config(ps)), a1(skewed_config(ps));
  std::vector<TeScheme*> advisors{&a0, &a1};
  const ChaosRunReport rep = run_chaos_serving(loop, chaos, advisors);
  EXPECT_TRUE(rep.all_finite);
  EXPECT_LE(rep.max_recovery_epochs, scheduled);
  EXPECT_GT(rep.degraded_epochs, 0u);
}

}  // namespace
}  // namespace figret::te
