// Lock-free latency histogram for the serving-loop SLO metrics.
//
// HDR-style log-linear buckets over nanoseconds: 16 linear sub-buckets per
// power-of-two tier, giving <= ~6% relative error per recorded value — tight
// enough for p50/p99/p999 reporting while record() stays a single relaxed
// fetch_add (workers never contend on a lock, and a reader taking a
// percentile never blocks a writer).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace figret::util {

class LatencyHistogram {
 public:
  /// Values of 2^43 ns (~2.4 h) and above clamp into the last bucket.
  static constexpr std::size_t kSubBuckets = 16;
  static constexpr std::size_t kTiers = 39;
  static constexpr std::size_t kBuckets = kSubBuckets * (kTiers + 1);

  /// Thread-safe, wait-free. Negative durations count as zero.
  void record(double seconds) noexcept;
  void record_nanos(std::uint64_t nanos) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double max_seconds() const noexcept;
  double total_seconds() const noexcept;
  double mean_seconds() const noexcept;

  /// Approximate percentile (q in [0, 100]), from a racy single pass over
  /// the buckets — exact once writers quiesce. Never above max_seconds();
  /// 0 when empty.
  double percentile(double q) const noexcept;

  void reset() noexcept;

 private:
  static std::size_t bucket_of(std::uint64_t nanos) noexcept;
  static std::uint64_t bucket_midpoint_nanos(std::size_t bucket) noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};
  std::atomic<std::uint64_t> max_nanos_{0};
};

}  // namespace figret::util
