// Deterministic, seed-driven chaos engine for the serving loop.
//
// A ChaosEngine precomputes a structured fault schedule over a trace-index
// range before the run starts: correlated failure bursts at
// net::FailureDomain granularity with (clamped) exponential repair times,
// oracle-solver deadline overruns, worker stalls, ring backpressure storms,
// NaN/Inf/negative model outputs, and corrupted demand snapshots. Every
// event is keyed to the *trace index*, never to a worker or the wall clock,
// so a run under chaos is bit-reproducible for a fixed seed at any worker
// count — the property the chaos soak asserts.
//
// The matching consumer is te::ServingLoop's graceful-degradation ladder
// (Options::chaos): stalls sleep inside the worker, corrupt outputs are
// rejected by install-time validation and served from a lower rung
// (last-good, then uniform ECMP), overruns pre-expire the oracle's deadline
// so the bounded backoff+retry path is exercised deterministically, and
// failure masks are swapped by the run_chaos_serving driver at epoch
// boundaries.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "te/pathset.h"
#include "te/scheme.h"
#include "te/serving_stats.h"
#include "traffic/demand.h"

namespace figret::te {

class ServingLoop;  // te/serving_loop.h (which includes this header)

/// Output-corruption flavor injected into an advised configuration.
enum class Corruption : std::uint8_t {
  kNone = 0,
  kNan,       // a few weights become quiet NaN
  kInf,       // a few weights become +infinity
  kNegative,  // a few weights flip negative
};

/// Schedule knobs. All rates are per-epoch Bernoulli probabilities in
/// [0, 1]; every stream draws from its own substream of `seed`, so raising
/// one rate never reshuffles another fault class's schedule.
struct ChaosOptions {
  std::uint64_t seed = 1;
  /// Probability a new failure domain goes down this epoch (while fewer
  /// than `max_concurrent_failures` are already down).
  double failure_rate = 0.0;
  /// Mean of the exponential repair time, in epochs; draws are clamped to
  /// [1, max_repair_epochs] so time-to-recover is provably bounded.
  double mean_repair_epochs = 6.0;
  std::size_t max_repair_epochs = 32;
  std::size_t max_concurrent_failures = 2;
  /// Oracle-solver deadline overrun: the first resolve attempt of the epoch
  /// returns lp::Status::kDeadline before its first pivot.
  double overrun_rate = 0.0;
  /// Worker stall: the serving worker sleeps `stall_seconds` mid-snapshot.
  double stall_rate = 0.0;
  double stall_seconds = 0.0005;
  /// NaN/Inf/negative weights written into the advised config.
  double corrupt_output_rate = 0.0;
  /// The advisor sees a corrupted copy of the newest history snapshot.
  double corrupt_demand_rate = 0.0;
  /// Ring backpressure storm: the driver stops draining results for the
  /// epoch, letting the results ring fill and workers spin on publish.
  double burst_rate = 0.0;
};

/// Parses a `--chaos` spec: comma-separated key=value pairs. Keys: `seed`,
/// `fail`, `repair`, `maxrepair`, `maxfail`, `overrun`, `stall`, `stallms`,
/// `corrupt`, `demand`, `burst`, and the shorthand `intensity=x` which sets
/// fail=x/2, overrun=x/2, corrupt=x/2, stall=x/4, demand=x/4, burst=x/8.
/// Throws std::invalid_argument on unknown keys or unparsable values.
ChaosOptions parse_chaos_spec(const std::string& spec);

/// The faults scheduled for one epoch (== one trace index).
struct EpochPlan {
  /// Index into the engine's mask table; 0 means "all paths alive".
  std::uint32_t mask_id = 0;
  Corruption corruption = Corruption::kNone;
  bool overrun = false;
  bool stall = false;
  bool corrupt_demand = false;
  bool burst = false;

  /// Clean inputs and outputs: a config advised at this epoch is a valid
  /// "last-good" candidate for later degraded epochs.
  bool clean() const noexcept {
    return corruption == Corruption::kNone && !corrupt_demand;
  }
};

class ChaosEngine {
 public:
  static constexpr std::uint32_t kNoEpoch = 0xffffffffu;

  /// Totals over the precomputed schedule (deterministic given the seed).
  struct ScheduleSummary {
    std::size_t failure_events = 0;   // domain-down transitions
    std::size_t masked_epochs = 0;    // epochs served under a failure mask
    std::size_t mask_changes = 0;     // epochs whose mask differs from t-1
    std::size_t overruns = 0;
    std::size_t stalls = 0;
    std::size_t corrupt_outputs = 0;
    std::size_t corrupt_demands = 0;
    std::size_t bursts = 0;
  };

  /// Precomputes the schedule for trace indices [begin, end). `domains` are
  /// the failure-burst units (net::link_domains / node_domains / pod SRLGs);
  /// empty domains (or failure_rate 0) disable the failure stream. Borrows
  /// nothing: the engine is self-contained and immutable after construction,
  /// so any number of workers may consult it concurrently.
  ChaosEngine(const PathSet& ps, std::vector<net::FailureDomain> domains,
              const ChaosOptions& opt, std::uint32_t begin, std::uint32_t end);

  std::uint32_t begin() const noexcept { return begin_; }
  std::uint32_t end() const noexcept { return end_; }
  const ChaosOptions& options() const noexcept { return opt_; }
  const ScheduleSummary& summary() const noexcept { return summary_; }

  /// The plan for trace index `index` (must be in [begin, end)).
  const EpochPlan& plan(std::uint32_t index) const;

  /// Failed arc ids of the plan's mask (empty for mask_id 0).
  const std::vector<net::EdgeId>& failed_edges(std::uint32_t index) const;

  /// The most recent index in [begin, index) whose plan is clean()
  /// (kNoEpoch when there is none). Precomputed, O(1): this is what makes
  /// the last-good fallback rung identical across worker counts — every
  /// worker resolves the same degraded epoch to the same donor epoch.
  std::uint32_t last_clean_before(std::uint32_t index) const;

  /// Applies the epoch's output corruption to `cfg` in place (no-op for
  /// Corruption::kNone). Positions and values derive only from (seed,
  /// index), never from the caller.
  void corrupt_config(std::uint32_t index, TeConfig& cfg) const;

  /// Writes a corrupted copy of `src` (the newest history snapshot) into
  /// `out`: a few entries become NaN, a few are amplified ~1e6x.
  /// Deterministic in (seed, index).
  void corrupt_demand_into(std::uint32_t index,
                           const traffic::DemandMatrix& src,
                           traffic::DemandMatrix& out) const;

  double stall_seconds() const noexcept { return opt_.stall_seconds; }

 private:
  ChaosOptions opt_;
  std::uint32_t begin_ = 0;
  std::uint32_t end_ = 0;
  std::size_t num_pairs_ = 0;
  std::vector<EpochPlan> plans_;          // [begin, end)
  std::vector<std::uint32_t> last_clean_;  // parallel to plans_
  /// Mask table: mask_edges_[0] is empty (all alive); further entries are
  /// the distinct failed-edge sets the schedule walks through.
  std::vector<std::vector<net::EdgeId>> mask_edges_;
  ScheduleSummary summary_;
};

/// Install-time output validation (rung gate of the degradation ladder):
/// every weight finite and non-negative. Weights need not sum to 1 per pair
/// — WCMP quantization renormalizes — but NaN/Inf/negative values would
/// poison the quantizer and the switch tables.
bool config_servable(const TeConfig& cfg) noexcept;

/// FNV-1a over the served config's double bits plus the rung: the
/// cross-worker bit-reproducibility probe carried on every SnapshotResult
/// of a chaos run.
std::uint64_t config_fingerprint(const TeConfig& cfg,
                                 FallbackRung rung) noexcept;

/// What a chaos soak produced, aggregated deterministically in trace-index
/// order from the drained results.
struct ChaosRunReport {
  std::uint64_t served = 0;
  std::array<std::uint64_t, kFallbackRungCount> rungs{};
  /// Epochs in degraded mode: served below rung 0, or under an active
  /// failure mask.
  std::uint64_t degraded_epochs = 0;
  /// Longest run of consecutive degraded epochs — the time-to-recover bound
  /// the CI gate asserts.
  std::uint64_t max_recovery_epochs = 0;
  double mlu_healthy_mean = 0.0;
  double mlu_degraded_mean = 0.0;  // MLU under degradation
  double dropped_demand_total = 0.0;
  /// FNV-1a over (index, rung, config_fingerprint) in index order: equal
  /// across worker counts for the same seed, by construction.
  std::uint64_t determinism_hash = 0;
  /// Loop counters and stage latencies at finish (ServingStats tables).
  ServingStats::Snapshot stats;
  /// True when every result carried finite served weights and MLU.
  bool all_finite = true;
};

/// Drives one chaos soak: starts `loop` with `advisors`, walks the engine's
/// [begin, end) range submitting each index once, swaps the failure mask at
/// every scheduled mask change (quiescing first, so each epoch serves under
/// exactly its scheduled mask), skips draining on burst epochs, then
/// finishes the loop and folds results + stats into a ChaosRunReport.
/// The loop's Options must already carry `chaos == &chaos`.
ChaosRunReport run_chaos_serving(ServingLoop& loop, const ChaosEngine& chaos,
                                 std::span<TeScheme* const> advisors);

}  // namespace figret::te
