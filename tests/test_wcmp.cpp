#include "te/wcmp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "net/topology.h"
#include "net/yen.h"
#include "te/mlu.h"
#include "te/serving_loop.h"
#include "traffic/generators.h"
#include "util/rng.h"

// A counting operator new for the serving-loop case below; it counts only
// while g_counting is set.
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

PathSet mesh_pathset(std::size_t n) {
  const net::Graph g = net::full_mesh(n);
  return PathSet::build(g, net::all_pairs_k_shortest(g, 3));
}

TEST(Wcmp, WeightsSumToTableSizePerPair) {
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(3);
  TeConfig raw(ps.num_paths());
  for (auto& v : raw) v = rng.uniform(0.0, 1.0);
  const TeConfig cfg = normalize_config(ps, raw);
  const WcmpWeights w = quantize_wcmp(ps, cfg, 16);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    std::uint64_t sum = 0;
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      sum += w[p];
    EXPECT_EQ(sum, 16u);
  }
}

TEST(Wcmp, ExactQuartersQuantizeExactly) {
  const PathSet ps = mesh_pathset(4);
  TeConfig cfg(ps.num_paths(), 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    cfg[ps.pair_begin(pr)] = 0.5;
    cfg[ps.pair_begin(pr) + 1] = 0.25;
    cfg[ps.pair_begin(pr) + 2] = 0.25;
  }
  const WcmpWeights w = quantize_wcmp(ps, cfg, 4);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    EXPECT_EQ(w[ps.pair_begin(pr)], 2u);
    EXPECT_EQ(w[ps.pair_begin(pr) + 1], 1u);
    EXPECT_EQ(w[ps.pair_begin(pr) + 2], 1u);
  }
  EXPECT_DOUBLE_EQ(quantization_error(ps, cfg, w), 0.0);
}

TEST(Wcmp, ZeroRatioPathsGetZeroWeight) {
  const PathSet ps = mesh_pathset(4);
  TeConfig cfg(ps.num_paths(), 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    cfg[ps.pair_begin(pr)] = 1.0;
  const WcmpWeights w = quantize_wcmp(ps, cfg, 8);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    EXPECT_EQ(w[ps.pair_begin(pr)], 8u);
    EXPECT_EQ(w[ps.pair_begin(pr) + 1], 0u);
    EXPECT_EQ(w[ps.pair_begin(pr) + 2], 0u);
  }
}

TEST(Wcmp, AllZeroGroupFallsBackToUniform) {
  const PathSet ps = mesh_pathset(4);
  const TeConfig cfg(ps.num_paths(), 0.0);
  const WcmpWeights w = quantize_wcmp(ps, cfg, 9);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
      EXPECT_EQ(w[p], 3u);
  }
}

TEST(Wcmp, RoundTripRatiosAreValid) {
  const PathSet ps = mesh_pathset(5);
  util::Rng rng(7);
  TeConfig raw(ps.num_paths());
  for (auto& v : raw) v = rng.uniform(0.0, 1.0);
  const TeConfig cfg = normalize_config(ps, raw);
  const TeConfig realized = ratios_from_wcmp(ps, quantize_wcmp(ps, cfg, 32));
  EXPECT_TRUE(valid_config(ps, realized));
}

class WcmpErrorBound : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WcmpErrorBound, ErrorShrinksWithTableSize) {
  // Largest-remainder rounding keeps each realized ratio within 1/table_size
  // of the ideal ratio.
  const std::uint32_t table = GetParam();
  const PathSet ps = mesh_pathset(4);
  util::Rng rng(11);
  TeConfig raw(ps.num_paths());
  for (auto& v : raw) v = rng.uniform(0.0, 1.0);
  const TeConfig cfg = normalize_config(ps, raw);
  const WcmpWeights w = quantize_wcmp(ps, cfg, table);
  EXPECT_LE(quantization_error(ps, cfg, w),
            1.0 / static_cast<double>(table) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(TableSizes, WcmpErrorBound,
                         ::testing::Values(4u, 8u, 16u, 64u, 256u));

TEST(Wcmp, MluDegradationBoundedByQuantization) {
  // The MLU of the realized (quantized) configuration approaches the ideal
  // configuration's MLU as the WCMP table grows.
  const PathSet ps = mesh_pathset(5);
  util::Rng rng(13);
  TeConfig raw(ps.num_paths());
  for (auto& v : raw) v = rng.uniform(0.1, 1.0);
  const TeConfig cfg = normalize_config(ps, raw);
  traffic::DemandMatrix dm(5);
  for (std::size_t p = 0; p < dm.size(); ++p) dm[p] = rng.uniform(0.1, 1.0);

  const double ideal = mlu(ps, dm, cfg);
  double prev_gap = 1e300;
  for (const std::uint32_t table : {4u, 16u, 64u, 256u}) {
    const TeConfig realized =
        ratios_from_wcmp(ps, quantize_wcmp(ps, cfg, table));
    const double gap = std::abs(mlu(ps, dm, realized) - ideal);
    EXPECT_LE(gap, prev_gap + 1e-9);
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 0.01 * std::max(ideal, 1e-9));
}

TEST(Wcmp, InputValidation) {
  const PathSet ps = mesh_pathset(4);
  const TeConfig cfg = uniform_config(ps);
  EXPECT_THROW(quantize_wcmp(ps, cfg, 0), std::invalid_argument);
  EXPECT_THROW(quantize_wcmp(ps, TeConfig(3, 0.0), 8), std::invalid_argument);
  EXPECT_THROW(ratios_from_wcmp(ps, WcmpWeights(3, 1)), std::invalid_argument);
  EXPECT_THROW(ratios_from_wcmp(ps, WcmpWeights(ps.num_paths(), 0)),
               std::invalid_argument);
}

// The full install the serving loop ran before WcmpInstall: quantize every
// pair, realize the weights, and take the largest per-path error.
struct FullInstall {
  WcmpWeights weights;
  TeConfig realized;
  double error = 0.0;
};

FullInstall full_install(const PathSet& ps, const TeConfig& cfg,
                         std::uint32_t table) {
  FullInstall f;
  WcmpScratch scratch;
  quantize_wcmp_into(ps, cfg, table, f.weights, scratch);
  ratios_from_wcmp_into(ps, f.weights, f.realized);
  for (std::size_t p = 0; p < f.realized.size(); ++p)
    f.error = std::max(f.error, std::abs(f.realized[p] - cfg[p]));
  return f;
}

bool same_bits(const TeConfig& a, const TeConfig& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(WcmpInstall, MatchesTheFullInstallOverAChangingSequence) {
  const PathSet ps = mesh_pathset(5);
  util::Rng rng(17);
  const auto random_config = [&] {
    TeConfig raw(ps.num_paths());
    for (auto& v : raw) v = rng.uniform(0.0, 1.0);
    return normalize_config(ps, raw);
  };
  // Each step changes some pairs and repeats the others bit for bit.
  std::vector<TeConfig> seq{random_config()};
  for (std::size_t step = 0; step < 12; ++step) {
    TeConfig next = seq.back();
    const TeConfig fresh = random_config();
    for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
      if (rng.bernoulli(0.3))
        for (std::size_t p = ps.pair_begin(pr); p < ps.pair_end(pr); ++p)
          next[p] = fresh[p];
    seq.push_back(std::move(next));
  }
  // Steps that move only a pair's last path.
  for (std::size_t step = 0; step < 3; ++step) {
    TeConfig next = seq.back();
    for (std::size_t pr = step; pr < ps.num_pairs(); pr += 3)
      next[ps.pair_end(pr) - 1] = rng.uniform(0.0, 1.0);
    seq.push_back(std::move(next));
  }
  // A pair whose zero ratio flips sign: equal values, different bits.
  TeConfig signed_zero = seq.back();
  const std::size_t pr0 = 3;
  signed_zero[ps.pair_begin(pr0)] = 0.0;
  signed_zero[ps.pair_begin(pr0) + 1] = 0.25;
  signed_zero[ps.pair_begin(pr0) + 2] = 0.75;
  seq.push_back(signed_zero);
  signed_zero[ps.pair_begin(pr0)] = -0.0;
  seq.push_back(signed_zero);
  signed_zero[ps.pair_begin(pr0)] = 0.0;
  seq.push_back(signed_zero);
  seq.push_back(uniform_config(ps));
  seq.push_back(seq.front());

  WcmpInstall state;
  state.reset(ps);
  for (const std::uint32_t table : {16u, 16u, 7u}) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const FullInstall want = full_install(ps, seq[i], table);
      const double error = install_wcmp_into(ps, seq[i], table, state);
      EXPECT_EQ(state.weights, want.weights) << "table " << table << " step " << i;
      EXPECT_TRUE(same_bits(state.realized, want.realized))
          << "table " << table << " step " << i;
      EXPECT_EQ(std::memcmp(&error, &want.error, sizeof error), 0)
          << "table " << table << " step " << i;
    }
  }
}

TEST(WcmpInstall, RejectsBadInputAndKeepsItsState) {
  const PathSet ps = mesh_pathset(4);
  const TeConfig cfg = uniform_config(ps);
  WcmpInstall state;
  install_wcmp_into(ps, cfg, 8, state);
  const WcmpWeights before = state.weights;
  EXPECT_THROW(install_wcmp_into(ps, TeConfig(3, 0.5), 8, state),
               std::invalid_argument);
  EXPECT_THROW(install_wcmp_into(ps, TeConfig(ps.num_paths() + 1, 0.5), 8,
                                 state),
               std::invalid_argument);
  EXPECT_THROW(install_wcmp_into(ps, cfg, 0, state), std::invalid_argument);
  EXPECT_EQ(state.weights, before);
  EXPECT_EQ(state.table_size, 8u);
}

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

 private:
  TeConfig cfg_;
};

TEST(WcmpInstall, ServingLoopFirstSnapshotAfterStartAllocatesNothing) {
  // start() sizes each worker's install state (and its other buffers), so
  // the first snapshot served allocates nothing — with an advisor that
  // allocates nothing itself — and reports the full install's error.
  const PathSet ps = mesh_pathset(5);
  const auto trace = traffic::dc_tor_trace(5, 6, 3);
  util::Rng rng(5);
  TeConfig raw(ps.num_paths());
  for (auto& v : raw) v = rng.uniform(0.0, 1.0);
  const TeConfig cfg = normalize_config(ps, raw);
  FixedAdvisor advisor(cfg);
  TeScheme* const advisors[] = {&advisor};
  ServingLoop::Options opt;
  opt.workers = 1;
  ServingLoop loop(ps, trace, opt);
  std::vector<SnapshotResult> results;
  results.reserve(8);
  for (int pass = 0; pass < 2; ++pass) {
    loop.start(advisors);
    g_allocs.store(0);
    g_counting.store(true);
    loop.submit(2);
    while (loop.completed() < loop.submitted()) std::this_thread::yield();
    g_counting.store(false);
    const std::uint64_t allocs = g_allocs.load();
    loop.finish();
    EXPECT_EQ(allocs, 0u) << "pass " << pass;
  }
  loop.drain(results);
  ASSERT_EQ(results.size(), 2u);
  const double want = full_install(ps, cfg, opt.wcmp_table_size).error;
  for (const SnapshotResult& r : results)
    EXPECT_EQ(std::memcmp(&r.quant_error, &want, sizeof want), 0);
}

}  // namespace
}  // namespace figret::te
