#include "util/latency.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace figret::util {

std::size_t LatencyHistogram::bucket_of(std::uint64_t nanos) noexcept {
  // Buckets 0..15 store nanoseconds 0..15 exactly. Tier t (t >= 0) holds
  // [16 * 2^t, 32 * 2^t) in buckets 16*(t+1) .. 16*(t+1)+15; within a tier
  // the 4 bits below the leading one index the linear sub-bucket, bounding
  // relative reconstruction error by 1/32.
  if (nanos < kSubBuckets) return static_cast<std::size_t>(nanos);
  const std::size_t tier = static_cast<std::size_t>(std::bit_width(nanos)) - 5;
  if (tier >= kTiers) return kBuckets - 1;  // saturate: > ~9000s latencies
  const std::size_t sub =
      static_cast<std::size_t>((nanos >> tier) & (kSubBuckets - 1));
  return kSubBuckets * (tier + 1) + sub;
}

std::uint64_t LatencyHistogram::bucket_midpoint_nanos(
    std::size_t bucket) noexcept {
  if (bucket < kSubBuckets) return static_cast<std::uint64_t>(bucket);
  const std::size_t tier = bucket / kSubBuckets - 1;
  const std::size_t sub = bucket % kSubBuckets;
  const std::uint64_t lo = (std::uint64_t{kSubBuckets} + sub) << tier;
  return lo + (std::uint64_t{1} << tier) / 2;
}

void LatencyHistogram::record(double seconds) noexcept {
  if (!(seconds > 0.0)) {
    record_nanos(0);
    return;
  }
  record_nanos(static_cast<std::uint64_t>(seconds * 1e9));
}

void LatencyHistogram::record_nanos(std::uint64_t nanos) noexcept {
  buckets_[bucket_of(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t prev = max_nanos_.load(std::memory_order_relaxed);
  while (prev < nanos && !max_nanos_.compare_exchange_weak(
                             prev, nanos, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::max_seconds() const noexcept {
  return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) * 1e-9;
}

double LatencyHistogram::total_seconds() const noexcept {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
}

double LatencyHistogram::mean_seconds() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : total_seconds() / static_cast<double>(n);
}

double LatencyHistogram::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 100.0) q = 100.0;
  // Rank of the target observation (1-based, nearest-rank definition).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    // A bucket midpoint can lie above every recorded value; never report a
    // percentile larger than the max.
    if (seen >= target)
      return std::min(static_cast<double>(bucket_midpoint_nanos(b)) * 1e-9,
                      max_seconds());
  }
  return max_seconds();
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
  max_nanos_.store(0, std::memory_order_relaxed);
}

}  // namespace figret::util
