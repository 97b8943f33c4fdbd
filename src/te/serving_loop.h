// Streaming TE serving loop — the controller-shaped runtime around the
// paper's pipeline. A single producer submits trace indices onto a bounded
// lock-free ring; worker threads pick snapshots up run-to-completion:
//
//   NN inference (advise)       ->  WCMP install (quantize)  ->
//   failure reroute (§4.5)      ->  MLU scoring              ->
//   optional omniscient warm-LP resolve                      ->
//   lock-free publish (sequence-numbered results ring)
//
// Micro-batching: a worker pops one snapshot, then takes its share of what
// is already queued (up to queued / workers more, TeScheme::kMaxBatch in
// all), without ever waiting for more. A batch of two or more is advised in
// one advise_batch_into call (FIGRET reads its weights once for the batch;
// Counter::kBatchedSnapshots counts its jobs), then every job runs install
// -> reroute -> score -> oracle -> publish in submission order, as a lone
// job does. Each batched job's infer_seconds is the whole batched call. The
// first job's queue_seconds ends where the batch starts; a later job's ends
// where its own processing starts, so it covers the batched advise and the
// batch-mates ahead of it, and per-job service (total - queue) sums to the
// worker's busy time. serve_seconds includes all of it. A job with a chaos
// plan is served alone, and if a batched call throws, each of its jobs is
// re-advised alone, so a throw degrades only the snapshot that caused it.
// Batching changes no served bit: advise_batch_into is bit-identical per row
// to advise_into.
//
// WCMP install is incremental per worker (te::WcmpInstall): only the pairs
// whose served ratios differ bitwise from what that worker last quantized
// are re-quantized, with the same weights, realized ratios and quantization
// error as a full install.
//
// Each worker owns its whole working set — TeScheme instance, lp::WarmStart
// chain with its cached LP engine, the oracle's LP scratch, every other
// buffer — so the hot path takes no locks and performs no allocations once
// buffers reach steady-state capacity, the oracle included: a re-solve of a
// same-shaped LP rewrites the worker's cached standard form in place. A
// failure-mask swap changes only bounds and right-hand sides; a change in
// which pairs carry demand reshapes the LP and reassembles it once
// (Counter::kOracleRebuilds). Every 64th optimal
// oracle solve per worker is re-verified against its strong-duality
// certificate (Counter::kOracleCertificateFailures). Warm-LP chains are per
// worker by construction, so two concurrent callers can never interleave
// basis lineages.
//
// The loop only serves streams. Offline evaluation (the Harness' omniscient
// sweep and MLU scoring) runs on util/parallel.h instead, with warm-LP chains
// reset at fixed chunk boundaries so its results are bit-identical for any
// width. Here each worker chains its LP warm starts indefinitely —
// deliberately trading that determinism for steady-state pivot savings.
//
// Failure handling mid-stream: the loop owns one path-liveness mask, sized
// at construction. install_failures() and clear_failures() rewrite it in
// place at a quiescent point (every submitted snapshot served), so workers
// read it without a lock and a mask change allocates nothing.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "lp/revised_simplex.h"
#include "te/lp_schemes.h"
#include "te/pathset.h"
#include "te/scheme.h"
#include "te/serving_stats.h"
#include "te/wcmp.h"
#include "traffic/demand.h"
#include "util/ring.h"

namespace figret::te {

class ChaosEngine;  // te/chaos.h
struct EpochPlan;

/// One served snapshot, published on the results ring. Plain data: ring
/// slots are pre-allocated and publishing is a copy + sequence release.
struct SnapshotResult {
  /// Monotone submission sequence number (drain order may differ).
  std::uint64_t seq = 0;
  std::uint32_t trace_index = 0;
  /// Simplex pivots of the omniscient resolve (0 when `oracle` is off).
  std::uint32_t lp_pivots = 0;
  /// MLU of the configuration actually served (post install/reroute).
  double raw_mlu = 0.0;
  /// Omniscient LP optimum for this snapshot (0 when `oracle` is off or the
  /// resolve failed — see Counter::kOracleFailures).
  double oracle_mlu = 0.0;
  /// raw_mlu / oracle_mlu with the Harness' 1e-12 denominator floor.
  double normalized = 0.0;
  /// Largest per-path ratio change introduced by WCMP quantization.
  double quant_error = 0.0;
  /// Submit -> the worker starts serving it: for a batched job, the batch
  /// start (first job) or the start of its own processing (later jobs,
  /// whose wait behind the batched advise and earlier jobs counts here).
  double queue_seconds = 0.0;
  /// The advise call that produced this snapshot's config; for a batched
  /// job, the whole batch's advise_batch_into, shared by its jobs (inside
  /// queue_seconds for every job but the first).
  double infer_seconds = 0.0;
  double lp_seconds = 0.0;       // omniscient resolve
  double install_seconds = 0.0;  // WCMP quantize + ratio reconstruction
  double serve_seconds = 0.0;    // submit -> config installed (SLO quantity)
  double total_seconds = 0.0;    // submit -> result published
  bool slo_violation = false;
  /// Which rung of the degradation ladder actually served this snapshot.
  FallbackRung rung = FallbackRung::kFresh;
  /// Oracle resolve attempts spent (1 = first try succeeded; 0 = oracle off).
  std::uint8_t lp_attempts = 0;
  /// Demand volume whose every candidate path was dead (dropped, §4.5 edge
  /// case — priced, not silently rerouted).
  double dropped_demand = 0.0;
  /// config_fingerprint of the served config (0 unless chaos is attached) —
  /// the cross-worker bit-reproducibility probe.
  std::uint64_t config_hash = 0;
};

class ServingLoop {
 public:
  struct Options {
    /// Worker threads; 0 = util::default_threads().
    std::size_t workers = 0;
    /// Snapshot ring capacity (rounded up to a power of two). The results
    /// ring holds 2x this.
    std::size_t queue_capacity = 256;
    /// Serve-latency SLO (submit -> installed); 0 disables SLO accounting.
    double slo_seconds = 0.0;
    /// Quantize to WCMP weights and serve the realized switch ratios.
    bool install = true;
    /// Per-snapshot omniscient warm-LP resolve (the normalizer). Off by
    /// default: it dominates the cost of a snapshot.
    bool oracle = false;
    std::uint32_t wcmp_table_size = 16;
    /// LP solver settings for oracle resolves. simplex.time_limit_seconds is
    /// the budget per resolve attempt (0 = none): a deadline hit returns
    /// lp::Status::kDeadline instead of throwing, and the snapshot serves.
    lp::SolverOptions solver;

    // --- graceful degradation ----------------------------------------------
    /// Reject advised configs carrying NaN/Inf/negative weights before
    /// install and serve from a lower ladder rung instead.
    bool validate_outputs = true;
    /// Rung 1: re-serve the most recent known-good config (renormalized over
    /// surviving paths on install). Off -> rejected outputs skip straight to
    /// uniform ECMP.
    bool fallback_last_good = true;
    /// Retry attempts (beyond the first) for a failed oracle resolve, with
    /// exponential backoff (each wait <= 5 ms) between attempts.
    /// lp::Status::kNumerical is never retried: same LP, same verdict.
    std::size_t oracle_retries = 2;
    double oracle_backoff_seconds = 0.0002;
    /// Optional fault-injection schedule (borrowed; must outlive the run).
    /// Workers consult it read-only, keyed by trace index.
    const ChaosEngine* chaos = nullptr;
  };

  /// Borrows `ps` and `trace` — both must outlive the loop.
  ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace);
  ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace,
              const Options& opt);
  ~ServingLoop();

  ServingLoop(const ServingLoop&) = delete;
  ServingLoop& operator=(const ServingLoop&) = delete;

  std::size_t num_workers() const noexcept { return workers_; }
  const ServingStats& stats() const noexcept { return stats_; }
  /// Mutable access for monitoring resets (e.g. dropping warmup samples
  /// between benchmark passes). Only safe while no snapshot is in flight.
  ServingStats& stats() noexcept { return stats_; }

  /// Spawns the workers. `advisors` supplies exactly one non-null fitted
  /// TeScheme per worker (advise is stateful, so instances must be distinct
  /// — clone via FigretScheme::save/load or construct per worker).
  void start(std::span<TeScheme* const> advisors);

  /// Single-producer submission of trace index `index` (which must have at
  /// least the advisors' history window before it). try_submit returns false
  /// and counts an overflow when the snapshot ring is full; submit blocks
  /// (yield-spin) until accepted.
  bool try_submit(std::uint32_t index);
  void submit(std::uint32_t index);

  /// Appends every currently published result to `out`; returns how many.
  /// Call concurrently with submission to bound the results ring.
  std::size_t drain(std::vector<SnapshotResult>& out);

  /// Waits for every submitted snapshot to be served, stops and joins the
  /// workers, folds per-worker warm-chain totals into stats(). Rethrows the
  /// first worker exception, if any. The loop may be start()ed again.
  void finish();

  /// §4.5 failure events: rewrite the path-liveness mask from `failed` (or
  /// clear it) in place, without allocating. Throws std::logic_error, and
  /// does not wait, unless every submitted snapshot is served. Later
  /// snapshots serve under the new mask. It changes only the oracle LP's
  /// bounds and right-hand sides, so warm chains keep their basis across it.
  void install_failures(const std::vector<net::EdgeId>& failed);
  void clear_failures();

  std::uint64_t submitted() const noexcept { return next_seq_; }
  std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Ring unit of work: one trace index.
  struct Job {
    std::uint64_t seq = 0;
    std::uint32_t index = 0;
    Clock::time_point enqueued{};
  };

  static constexpr std::size_t kMaxBatch = TeScheme::kMaxBatch;

  /// Per-worker run-to-completion state: everything a snapshot touches.
  struct Worker {
    TeScheme* advisor = nullptr;
    std::size_t window = 1;
    lp::WarmStart warm;
    /// The oracle's LP, solution and result buffers, reused per solve.
    MluLpScratch oracle_lp;
    std::vector<double> certificate_scratch;
    std::size_t oracle_optima = 0;  // optimal oracle solves so far
    /// The batch in service: jobs[b]'s history and advised config sit in
    /// slot b of the other two.
    std::array<Job, kMaxBatch> jobs;
    std::array<std::span<const traffic::DemandMatrix>, kMaxBatch> histories;
    std::array<TeConfig, kMaxBatch> cfgs;
    /// The incremental WCMP install: re-quantizes only the pairs whose
    /// served ratios changed since this worker's last install.
    WcmpInstall install;
    TeConfig rerouted;
    std::vector<double> edge_scratch;
    /// Rung-1 cache: the most recent known-good advised config. Under chaos
    /// the donor epoch is pinned by ChaosEngine::last_clean_before so every
    /// worker recomputes the identical donor; without chaos it is simply the
    /// last config that passed validation on this worker.
    TeConfig last_good_cfg;
    std::uint32_t last_good_index = 0xffffffffu;
    bool has_last_good = false;
    /// History copies used when chaos corrupts the advisor's input snapshot.
    std::vector<traffic::DemandMatrix> history_scratch;
    std::thread thread;
  };

  void worker_loop(Worker& w);
  /// Advises w.jobs[0, n) (in one batched call when n > 1) and serves each.
  void serve_batch(Worker& w, std::size_t n);
  /// Serves w.jobs[slot], whose service began at `started`; `batch_infer`
  /// is the batched advise's time when w.cfgs[slot] already holds its
  /// config, null to advise it here.
  void process_snapshot(Worker& w, std::size_t slot,
                        Clock::time_point started, const double* batch_infer);
  /// The `w.window` snapshots before trace index `index`.
  std::span<const traffic::DemandMatrix> history_of(const Worker& w,
                                                    std::uint32_t index) const;
  /// The chaos plan of `index`, or null when no engine covers it.
  const EpochPlan* chaos_plan(std::uint32_t index) const;
  /// Steps the ladder down after a rejected advise: returns the config to
  /// serve and sets `rung` (kLastGood when a donor exists, else kUniform).
  const TeConfig* fallback_config(Worker& w, std::uint32_t index,
                                  FallbackRung& rung);
  /// Throws std::logic_error while a submitted snapshot is in service.
  void check_quiescent() const;
  void aggregate_warm(const Worker& w);
  void check_submittable(std::uint32_t index) const;

  const PathSet* ps_;
  const traffic::TrafficTrace* trace_;
  Options opt_;
  // Failure mask and the pairs it disconnects, written at quiescent points
  // only; workers read them unlocked (completed_'s acquire orders the write
  // after earlier snapshots, the job ring's push/pop before later ones).
  bool masked_ = false;
  std::vector<bool> alive_;
  std::vector<std::uint32_t> dead_pairs_;
  std::size_t workers_;
  TeConfig uniform_;
  util::MpmcRing<Job> jobs_;
  util::MpmcRing<SnapshotResult> results_;
  ServingStats stats_;

  // Streaming state.
  std::vector<std::unique_ptr<Worker>> stream_workers_;
  std::atomic<bool> stop_{true};
  bool running_ = false;
  std::uint64_t next_seq_ = 0;  // producer-side submission count
  std::atomic<std::uint64_t> completed_{0};
  std::size_t window_ = 1;
  std::exception_ptr stream_error_;  // guarded by error_mu_
  std::mutex error_mu_;
};

}  // namespace figret::te
