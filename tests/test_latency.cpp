#include "util/latency.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace figret::util {
namespace {

TEST(LatencyHistogram, EmptyReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_seconds(), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.percentile(99), 0.0);
}

TEST(LatencyHistogram, SmallNanosAreExact) {
  // The first tier stores nanoseconds 0..15 exactly.
  LatencyHistogram h;
  for (std::uint64_t n = 0; n < 16; ++n) h.record_nanos(n);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_NEAR(h.max_seconds(), 15e-9, 1e-15);
  EXPECT_NEAR(h.percentile(0), 0.0, 1e-15);
  EXPECT_NEAR(h.percentile(100), 15e-9, 1e-15);
}

TEST(LatencyHistogram, RelativeErrorBounded) {
  // Log-linear with 16 sub-buckets: reconstruction error <= ~6% per value.
  LatencyHistogram h;
  const std::vector<std::uint64_t> values = {
      17, 100, 999, 5000, 123456, 7890123, 999999999, 42000000000ull};
  for (std::uint64_t v : values) {
    h.reset();
    h.record_nanos(v);
    const double got = h.percentile(50) * 1e9;
    EXPECT_NEAR(got, static_cast<double>(v), 0.07 * static_cast<double>(v))
        << "value " << v;
  }
}

TEST(LatencyHistogram, PercentilesAreMonotone) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(1e-6 * i);  // 1us .. 1ms
  double prev = 0.0;
  for (double q : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // p50 of a uniform 1us..1ms sweep is ~500us, up to bucket error.
  EXPECT_NEAR(h.percentile(50), 500e-6, 50e-6);
  EXPECT_NEAR(h.mean_seconds(), 500.5e-6, 50e-6);
}

TEST(LatencyHistogram, PercentileNeverExceedsMax) {
  // A lone sample sits below its bucket's midpoint (100 ns -> midpoint
  // 102 ns, 300 us -> 303.1 us); every percentile reports the max instead.
  LatencyHistogram h;
  h.record_nanos(100);
  EXPECT_EQ(h.percentile(50), h.max_seconds());
  EXPECT_EQ(h.percentile(99.9), h.max_seconds());
  h.reset();
  h.record_nanos(300000);
  EXPECT_EQ(h.percentile(99), h.max_seconds());
  EXPECT_EQ(h.max_seconds(), 300000 * 1e-9);
}

TEST(LatencyHistogram, RecordSecondsMatchesNanos) {
  LatencyHistogram a, b;
  a.record(1.5e-3);
  b.record_nanos(1500000);
  EXPECT_EQ(a.percentile(50), b.percentile(50));
  a.record(-1.0);  // negative clamps to zero, never UB
  EXPECT_EQ(a.count(), 2u);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(0.25);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99), 0.0);
  EXPECT_EQ(h.max_seconds(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordersLoseNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i)
        h.record_nanos(static_cast<std::uint64_t>(i));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.max_seconds(), kPerThread * 1e-9, 0.07 * kPerThread * 1e-9);
}

}  // namespace
}  // namespace figret::util
