#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace figret::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingletonRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SingleThreadPoolHasNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  // With no workers the calling thread runs everything, in index order.
  pool.parallel_for(0, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SlotAssemblyIsDeterministic) {
  // The determinism contract: per-index results land in per-index slots, so
  // the assembled output is independent of the schedule.
  auto compute = [](std::size_t threads) {
    std::vector<double> out(1000, 0.0);
    parallel_for(
        0, out.size(),
        [&](std::size_t i) {
          double acc = 0.0;
          for (std::size_t k = 1; k <= 50; ++k)
            acc += 1.0 / static_cast<double>(i * 50 + k);
          out[i] = acc;
        },
        threads);
    return out;
  };
  const std::vector<double> serial = compute(1);
  const std::vector<double> parallel4 = compute(4);
  ASSERT_EQ(serial.size(), parallel4.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel4[i]) << "slot " << i;
}

TEST(ThreadPool, ReusableAcrossLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> out(64, -1);
    pool.parallel_for(0, out.size(),
                      [&](std::size_t i) { out[i] = static_cast<int>(i); });
    const long sum = std::accumulate(out.begin(), out.end(), 0L);
    EXPECT_EQ(sum, 64L * 63L / 2L) << "round " << round;
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must survive a throwing loop and stay usable.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A pool task may itself issue a parallel_for (a loop body that calls
  // into pooled code); the caller-participates design must make progress
  // even when every worker is busy.
  std::atomic<int> total{0};
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { total++; }, 0);
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelForRanges, CoversEveryIndexOnceInFixedRanges) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u})
    for (const std::size_t chunk : {0u, 1u, 3u, 64u, 5000u}) {
      std::vector<int> seen(n, 0);
      std::mutex mu;
      std::vector<std::pair<std::size_t, std::size_t>> ranges;
      parallel_for_ranges(n, chunk, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++seen[i];
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(b, e);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << i;
      // The cut depends on n and chunk only: [0, c), [c, 2c), ...
      const std::size_t per = chunk == 0 ? 1 : chunk;
      std::sort(ranges.begin(), ranges.end());
      ASSERT_EQ(ranges.size(), (n + per - 1) / per) << n << "/" << chunk;
      for (std::size_t r = 0; r < ranges.size(); ++r) {
        EXPECT_EQ(ranges[r].first, r * per);
        EXPECT_EQ(ranges[r].second, std::min(n, (r + 1) * per));
      }
    }
}

TEST(DefaultThreads, AtLeastOne) { EXPECT_GE(default_threads(), 1u); }

}  // namespace
}  // namespace figret::util
