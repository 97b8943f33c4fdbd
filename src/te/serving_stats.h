// Observability for the streaming TE serving loop, kept as lock-free tables
// indexed by enums: Counter, three labelled families (rung, warm-start
// fallback reason, failed oracle attempt status) and one latency histogram
// per Stage. Each slot is named once, by its enum's to_string, so a new
// counter is one enum entry plus one name.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>

#include "lp/problem.h"
#include "lp/warm_start.h"
#include "util/json.h"
#include "util/latency.h"

namespace figret::te {

template <std::size_t N>
using AtomicTable = std::array<std::atomic<std::uint64_t>, N>;

/// The serving loop's graceful-degradation ladder. Every served snapshot
/// comes from exactly one rung:
///  * kFresh — this epoch's advise passed output validation;
///  * kLastGood — the advise was rejected (non-finite / negative weights),
///    the most recent known-good config is re-served and renormalized over
///    the surviving paths on install;
///  * kUniform — no known-good config either: uniform ECMP over surviving
///    paths, the unconditional floor that needs no model and no history.
enum class FallbackRung : std::uint8_t { kFresh, kLastGood, kUniform };
inline constexpr std::size_t kFallbackRungCount = 3;
const char* to_string(FallbackRung rung) noexcept;

enum class Counter : std::uint8_t {
  kServed,
  kSloViolations,       // serve latency above Options::slo_seconds
  kOverflows,           // try_submit rejected: the snapshot ring was full
  kResultBackpressure,  // spins on a full completion ring
  kOracleFailures,      // resolves that never reached optimality (still served)
  kWarmHits,            // warm-start chain outcomes, folded in on finish()
  kWarmMisses,
  kFailureEpochs,         // failure masks installed or cleared mid-stream
  kInvalidOutputs,        // advised configs rejected by output validation
  kDroppedPairSnapshots,  // snapshots with a pair whose every path was dead
  kOracleRetries,         // oracle attempts beyond the first
  kOracleRetrySuccesses,  // snapshots whose oracle recovered on a retry
  kChaosStalls,           // chaos-injected worker stalls (te/chaos.h)
  kBatchedSnapshots,      // snapshots advised in a batch of two or more
  kOracleRebuilds,        // oracle solves that reassembled the LP's form
  kOracleCertificateFailures,  // sampled oracle optima failing the duality
                               // certificate (lp/certificates.h)
  kOracleInorderRefactors,  // oracle warm primes refactorized in the kept
                            // pivot order (lp/lu.h)
};
inline constexpr std::size_t kCounterCount = 17;
const char* to_string(Counter counter) noexcept;

/// Timed stages of a served snapshot; a stage records only when it ran.
enum class Stage : std::uint8_t {
  kQueue,    // submit -> worker dequeue
  kInfer,    // scheme advise
  kLp,       // omniscient warm-LP resolve (Options::oracle)
  kInstall,  // WCMP quantization + realized ratios (Options::install)
  kReroute,  // §4.5 reroute, while a failure mask is installed
  kScore,    // MLU of the served config
  kServe,    // submit -> installed (the SLO quantity)
  kE2e,      // submit -> result published
};
inline constexpr std::size_t kStageCount = 8;
const char* to_string(Stage stage) noexcept;

class ServingStats {
 public:
  ServingStats() = default;
  ServingStats(const ServingStats&) = delete;
  ServingStats& operator=(const ServingStats&) = delete;

  void add(Counter c, std::uint64_t n = 1) noexcept { bump(counters_, c, n); }
  /// One served snapshot on `rung` (the rungs sum to kServed).
  void add(FallbackRung rung) noexcept { bump(rungs_, rung, 1); }
  /// `n` warm misses for `reason` (kWarmMisses broken down).
  void add(lp::WarmFallback reason, std::uint64_t n) noexcept {
    bump(warm_fallbacks_, reason, n);
  }
  /// One failed oracle attempt that ended in `status`.
  void add(lp::Status status) noexcept {
    bump(oracle_attempt_failures_, status, 1);
  }
  void record(Stage stage, double seconds) noexcept {
    stages_[static_cast<std::size_t>(stage)].record(seconds);
  }

  void reset() noexcept;

  struct StageSummary {
    std::uint64_t count = 0;
    double p50 = 0.0, p99 = 0.0, p999 = 0.0, max = 0.0;  // seconds
  };

  /// Plain-value copy of every table (racy while workers run; exact after
  /// finish()).
  struct Snapshot {
    std::array<std::uint64_t, kCounterCount> counters{};
    std::array<std::uint64_t, kFallbackRungCount> rungs{};
    std::array<std::uint64_t, lp::kWarmFallbackCount> warm_fallbacks{};
    std::array<std::uint64_t, lp::kStatusCount> oracle_attempt_failures{};
    std::array<StageSummary, kStageCount> stages{};

    std::uint64_t operator[](Counter c) const noexcept {
      return counters[static_cast<std::size_t>(c)];
    }
    const StageSummary& operator[](Stage s) const noexcept {
      return stages[static_cast<std::size_t>(s)];
    }
    /// {"counters", "rungs", "warm_fallbacks", "oracle_attempt_failures"}
    /// as {name: n} objects, then "stages": {name: {"count", "p50_s",
    /// "p99_s", "p999_s", "max_s"}}.
    util::Json to_json() const;
  };
  Snapshot snapshot() const;

  /// Stage latency table, then one line per table listing its nonzero
  /// slots (used by `figret_cli serve`).
  void print(std::ostream& os) const;

 private:
  // One relaxed fetch_add: the whole recording cost of a counter.
  template <std::size_t N, class Key>
  static void bump(AtomicTable<N>& table, Key key, std::uint64_t n) noexcept {
    table[static_cast<std::size_t>(key)].fetch_add(n,
                                                   std::memory_order_relaxed);
  }

  AtomicTable<kCounterCount> counters_{};
  AtomicTable<kFallbackRungCount> rungs_{};
  AtomicTable<lp::kWarmFallbackCount> warm_fallbacks_{};
  AtomicTable<lp::kStatusCount> oracle_attempt_failures_{};
  std::array<util::LatencyHistogram, kStageCount> stages_;
};

}  // namespace figret::te
