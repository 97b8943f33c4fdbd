// The serving loop's oracle path allocates nothing in steady state: after
// one warm-up pass over the GEANT WAN trace, a second pass with the
// per-snapshot warm-LP oracle on makes zero heap allocations. Each worker's
// lp::WarmStart keeps the LP's standard form, LU and scratch, and its
// te::MluLpScratch keeps the LP, solution and result buffers.
//
// This binary replaces the global operator new with a counting one, so it
// stays separate from the other serving suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
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

  const auto pass = [&] {
    for (std::uint32_t t = 2; t < trace.size(); ++t) loop.submit(t);
    while (loop.completed() < loop.submitted()) std::this_thread::yield();
  };
  pass();  // warm-up: every buffer grows to its steady-state size
  loop.drain(results);
  g_allocs.store(0);
  g_counting.store(true);
  pass();
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
}

}  // namespace
}  // namespace figret::te
