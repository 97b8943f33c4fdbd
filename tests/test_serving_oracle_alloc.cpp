// The serving loop's oracle path allocates nothing in steady state: after
// one warm-up pass over the GEANT WAN trace, a second pass with the
// per-snapshot warm-LP oracle on makes zero heap allocations. Each worker's
// lp::WarmStart keeps the LP's standard form, LU and scratch, and its
// te::MluLpScratch keeps the LP, solution and result buffers. Which snapshots
// a worker serves depends on timing, so the LU's rarer paths are pinned
// directly as well: an LU that has refactored in order once allocates
// nothing when it first derives the patterns of a kept order.
//
// Failure masks are in the steady state too: the counted pass installs and
// clears two link-failure sets at quiescent points. The loop rewrites its
// one mask in place, and the oracle's LP changes only bounds.
//
// This binary replaces the global operator new with a counting one, so it
// stays separate from the other serving suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "lp/lu.h"
#include "lp/sparse.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/failover.h"
#include "te/serving_loop.h"
#include "traffic/generators.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace figret::te {
namespace {

/// Serves one fixed configuration, copying it into the caller's buffer.
class FixedAdvisor final : public TeScheme {
 public:
  explicit FixedAdvisor(TeConfig cfg) : cfg_(std::move(cfg)) {}
  std::string name() const override { return "Fixed"; }
  void fit(const traffic::TrafficTrace&) override {}
  TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    return cfg_;
  }
  void advise_into(std::span<const traffic::DemandMatrix>,
                   TeConfig& out) override {
    out.assign(cfg_.begin(), cfg_.end());
  }
  std::size_t history_window() const override { return 2; }

 private:
  TeConfig cfg_;
};

TEST(ServingOracleAlloc, FirstDerivedInOrderRefactorAllocatesNothing) {
  // A diagonal basis factors with no fill and no drop, so its in-order
  // refactors adopt factorize()'s patterns. An order carried in from
  // elsewhere (here the reverse, as valid for a diagonal) makes the next
  // refactor derive its patterns, for the first time in this LU.
  constexpr std::size_t m = 64;
  const auto matrix = [&](double scale) {
    std::vector<lp::Triplet> trip;
    for (std::uint32_t i = 0; i < m; ++i)
      trip.push_back({i, i, scale * (1.0 + i)});
    return lp::SparseMatrix::from_triplets(m, m, std::move(trip));
  };
  const lp::SparseMatrix a = matrix(1.0), b = matrix(2.0);
  std::vector<std::uint32_t> basis(m);
  for (std::uint32_t i = 0; i < m; ++i) basis[i] = i;
  const lp::LuFactorization::Options opt;
  using Refactor = lp::LuFactorization::Refactor;

  lp::LuFactorization lu;
  ASSERT_TRUE(lu.factorize(a, basis, opt));
  ASSERT_EQ(lu.refactor(b, basis, opt), Refactor::kInOrder);
  lp::PivotOrder reversed = lu.kept_order();
  std::reverse(reversed.slot.begin(), reversed.slot.end());
  std::reverse(reversed.row.begin(), reversed.row.end());

  g_allocs.store(0);
  g_counting.store(true);
  lu.keep_order(basis, reversed);
  const Refactor how = lu.refactor(a, basis, opt);
  g_counting.store(false);

  EXPECT_EQ(how, Refactor::kInOrder);
  EXPECT_EQ(g_allocs.load(), 0u);
  EXPECT_EQ(lu.kept_order(), reversed);
}

TEST(ServingOracleAlloc, SteadyStateOraclePassAllocatesNothing) {
  const net::Graph g = net::geant();
  const PathSet ps = PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace =
      traffic::wan_trace(g.num_nodes(), 120, 101);

  ServingLoop::Options opt;
  opt.workers = 2;
  opt.oracle = true;
  ServingLoop loop(ps, trace, opt);
  FixedAdvisor a(uniform_config(ps)), b(uniform_config(ps));
  std::vector<TeScheme*> advisors{&a, &b};
  loop.start(advisors);
  std::vector<SnapshotResult> results;
  results.reserve(2 * trace.size());
  const std::vector<net::EdgeId> cut_a = sample_safe_failures(ps, 2, 5);
  const std::vector<net::EdgeId> cut_b = sample_safe_failures(ps, 3, 9);

  // Serves trace indices [from, to) and waits until the loop is quiescent.
  const auto segment = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t t = from; t < to; ++t) loop.submit(t);
    while (loop.completed() < loop.submitted()) std::this_thread::yield();
  };
  // Warm-up: every buffer grows to its steady-state size, with one masked
  // segment among the healthy ones.
  segment(2, 60);
  loop.install_failures(cut_a);
  segment(60, 90);
  loop.clear_failures();
  segment(90, 120);
  loop.drain(results);
  g_allocs.store(0);
  g_counting.store(true);
  loop.install_failures(cut_a);
  segment(2, 30);
  loop.clear_failures();
  segment(30, 60);
  loop.install_failures(cut_b);
  segment(60, 90);
  loop.clear_failures();
  segment(90, 120);
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();
  loop.finish();
  loop.drain(results);

  EXPECT_EQ(allocs, 0u);
  ASSERT_EQ(results.size(), 2 * (trace.size() - 2));
  for (const SnapshotResult& r : results) {
    EXPECT_GT(r.oracle_mlu, 0.0);
    EXPECT_GE(r.normalized, 1.0 - 1e-6);
  }
  const ServingStats::Snapshot s = loop.stats().snapshot();
  EXPECT_EQ(s[Counter::kOracleFailures], 0u);
  EXPECT_EQ(s[Counter::kOracleCertificateFailures], 0u);
  EXPECT_EQ(s[Counter::kFailureEpochs], 6u);
}

}  // namespace
}  // namespace figret::te
