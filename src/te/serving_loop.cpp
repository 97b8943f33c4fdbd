#include "te/serving_loop.h"

#include <algorithm>
#include <stdexcept>

#include "lp/certificates.h"
#include "te/chaos.h"
#include "te/failover.h"
#include "te/mlu.h"
#include "util/parallel.h"

namespace figret::te {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double>(now - start).count();
}

// One optimal oracle solve in this many per worker (the first included) is
// re-verified against its strong-duality certificate: O(nnz) against the
// solve's O(pivots * nnz).
constexpr std::size_t kCertificateEvery = 64;

// Cap on one backoff wait between oracle resolve attempts.
constexpr double kOracleBackoffMaxSeconds = 0.005;

}  // namespace

ServingLoop::ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace)
    : ServingLoop(ps, trace, Options{}) {}

ServingLoop::ServingLoop(const PathSet& ps, const traffic::TrafficTrace& trace,
                         const Options& opt)
    : ps_(&ps),
      trace_(&trace),
      opt_(opt),
      alive_(ps.num_paths(), true),
      workers_(opt.workers == 0 ? util::default_threads() : opt.workers),
      uniform_(uniform_config(ps)),
      jobs_(opt.queue_capacity == 0 ? 1 : opt.queue_capacity),
      results_(2 * util::ring_capacity_for(
                       opt.queue_capacity == 0 ? 1 : opt.queue_capacity)) {
  if (trace.num_nodes != ps.num_nodes())
    throw std::invalid_argument("ServingLoop: trace/topology mismatch");
  if (opt_.queue_capacity == 0)
    throw std::invalid_argument("ServingLoop: queue_capacity must be >= 1");
  if (opt_.wcmp_table_size == 0)
    throw std::invalid_argument("ServingLoop: wcmp_table_size must be >= 1");
  dead_pairs_.reserve(ps.num_pairs());
}

ServingLoop::~ServingLoop() {
  // Abandoned streaming session: let workers drain what is already on the
  // ring (bounded by its capacity), then stop.
  stop_.store(true, std::memory_order_release);
  for (auto& w : stream_workers_)
    if (w->thread.joinable()) w->thread.join();
}

void ServingLoop::start(std::span<TeScheme* const> advisors) {
  if (running_)
    throw std::logic_error("ServingLoop: start() while already running");
  if (advisors.size() != workers_)
    throw std::invalid_argument(
        "ServingLoop: need exactly one advisor per worker");
  for (TeScheme* s : advisors)
    if (s == nullptr) throw std::invalid_argument("ServingLoop: null advisor");
  stop_.store(false, std::memory_order_relaxed);
  window_ = 1;
  stream_workers_.clear();
  for (std::size_t i = 0; i < workers_; ++i) {
    auto w = std::make_unique<Worker>();
    w->advisor = advisors[i];
    w->window = std::max<std::size_t>(1, advisors[i]->history_window());
    // Sized here so that even a worker's first snapshot allocates nothing
    // outside its advisor and the oracle.
    for (TeConfig& cfg : w->cfgs) cfg.reserve(ps_->num_paths());
    w->install.reset(*ps_);
    w->rerouted.reserve(ps_->num_paths());
    w->last_good_cfg.reserve(ps_->num_paths());
    w->edge_scratch.reserve(ps_->num_edges());
    window_ = std::max(window_, w->window);
    stream_workers_.push_back(std::move(w));
  }
  for (auto& w : stream_workers_)
    w->thread = std::thread([this, wp = w.get()] { worker_loop(*wp); });
  running_ = true;
}

void ServingLoop::check_submittable(std::uint32_t index) const {
  if (!running_)
    throw std::logic_error("ServingLoop: submit before start()");
  if (index < window_ || index >= trace_->size())
    throw std::out_of_range(
        "ServingLoop: index outside the servable trace range");
}

bool ServingLoop::try_submit(std::uint32_t index) {
  check_submittable(index);
  Job job;
  job.seq = next_seq_;
  job.index = index;
  job.enqueued = Clock::now();
  if (!jobs_.try_push(job)) {
    stats_.add(Counter::kOverflows);
    return false;
  }
  ++next_seq_;
  return true;
}

void ServingLoop::submit(std::uint32_t index) {
  check_submittable(index);
  Job job;
  job.seq = next_seq_;
  job.index = index;
  job.enqueued = Clock::now();
  while (!jobs_.try_push(job)) std::this_thread::yield();
  ++next_seq_;
}

std::size_t ServingLoop::drain(std::vector<SnapshotResult>& out) {
  std::size_t n = 0;
  SnapshotResult r;
  while (results_.try_pop(r)) {
    out.push_back(r);
    ++n;
  }
  return n;
}

void ServingLoop::finish() {
  if (!running_) return;
  while (completed_.load(std::memory_order_acquire) < next_seq_)
    std::this_thread::yield();
  stop_.store(true, std::memory_order_release);
  for (auto& w : stream_workers_)
    if (w->thread.joinable()) w->thread.join();
  for (auto& w : stream_workers_) aggregate_warm(*w);
  stream_workers_.clear();
  running_ = false;
  if (stream_error_) {
    std::exception_ptr e = stream_error_;
    stream_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ServingLoop::check_quiescent() const {
  if (running_ && completed() != submitted())
    throw std::logic_error(
        "ServingLoop: failure mask changed while a snapshot is in service");
}

void ServingLoop::install_failures(const std::vector<net::EdgeId>& failed) {
  check_quiescent();
  surviving_paths_into(*ps_, failed, alive_);
  // Pairs with zero surviving paths are priced as dropped demand rather than
  // silently rerouted (the §4.5 all-paths-dead edge case).
  disconnected_pairs_into(*ps_, alive_, dead_pairs_);
  masked_ = true;
  stats_.add(Counter::kFailureEpochs);
}

void ServingLoop::clear_failures() {
  check_quiescent();
  masked_ = false;
  stats_.add(Counter::kFailureEpochs);
}

const EpochPlan* ServingLoop::chaos_plan(std::uint32_t index) const {
  const ChaosEngine* chaos = opt_.chaos;
  if (chaos == nullptr || index < chaos->begin() || index >= chaos->end())
    return nullptr;
  return &chaos->plan(index);
}

void ServingLoop::worker_loop(Worker& w) {
  for (;;) {
    if (!jobs_.try_pop(w.jobs[0])) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
      continue;
    }
    // Take this worker's share of what is queued already, never waiting for
    // more: a backlog of q jobs gives each worker up to q / workers more,
    // kMaxBatch jobs in all. A job another worker could start at once is
    // thus not held behind a batch, and a short queue is served one job at
    // a time. A job with a chaos plan is served in a batch of its own, so
    // one popped behind others is served alone after them.
    const std::size_t limit =
        std::min(kMaxBatch, 1 + jobs_.size_approx() / workers_);
    std::size_t n = 1;
    bool alone_next = false;
    if (chaos_plan(w.jobs[0].index) == nullptr)
      while (n < limit && jobs_.try_pop(w.jobs[n])) {
        if (chaos_plan(w.jobs[n].index) != nullptr) {
          alone_next = true;
          break;
        }
        ++n;
      }
    serve_batch(w, n);
    if (alone_next) {
      w.jobs[0] = w.jobs[n];
      serve_batch(w, 1);
    }
  }
}

void ServingLoop::serve_batch(Worker& w, std::size_t n) {
  const auto dequeued = Clock::now();
  // Several jobs share one advise_batch_into call. If it throws, each job is
  // re-advised alone in process_snapshot, so a throw still degrades only the
  // snapshot that caused it.
  bool batched = false;
  double batch_infer = 0.0;
  if (n > 1) {
    for (std::size_t b = 0; b < n; ++b)
      w.histories[b] = history_of(w, w.jobs[b].index);
    try {
      w.advisor->advise_batch_into(std::span(w.histories.data(), n),
                                   std::span(w.cfgs.data(), n));
      batched = true;
      stats_.add(Counter::kBatchedSnapshots, n);
    } catch (...) {
    }
    batch_infer = seconds_since(dequeued, Clock::now());
  }
  for (std::size_t b = 0; b < n; ++b) {
    // Job 0's service starts with the batch; a later job's starts when its
    // own processing does, so its wait behind the batched advise and its
    // batch-mates is queueing, and the batch's busy time is counted once.
    const auto started = b == 0 ? dequeued : Clock::now();
    try {
      process_snapshot(w, b, started, batched ? &batch_infer : nullptr);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!stream_error_) stream_error_ = std::current_exception();
    }
    completed_.fetch_add(1, std::memory_order_release);
  }
}

std::span<const traffic::DemandMatrix> ServingLoop::history_of(
    const Worker& w, std::uint32_t index) const {
  return {trace_->snapshots.data() + (index - w.window), w.window};
}

void ServingLoop::process_snapshot(Worker& w, std::size_t slot,
                                   Clock::time_point started,
                                   const double* batch_infer) {
  const Job& job = w.jobs[slot];
  TeConfig& cfg = w.cfgs[slot];
  SnapshotResult r;
  r.seq = job.seq;
  r.trace_index = job.index;
  r.queue_seconds = seconds_since(job.enqueued, started);

  const std::size_t t = job.index;
  const ChaosEngine* chaos = opt_.chaos;
  const EpochPlan* plan = chaos_plan(job.index);

  if (plan != nullptr && plan->stall) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(chaos->stall_seconds()));
    stats_.add(Counter::kChaosStalls);
  }

  FallbackRung rung = FallbackRung::kFresh;
  bool advise_ok = true;
  if (batch_infer != nullptr) {
    r.infer_seconds = *batch_infer;
  } else {
    const auto infer_start = Clock::now();
    const std::span<const traffic::DemandMatrix> history = history_of(w, t);
    try {
      if (plan != nullptr && plan->corrupt_demand) {
        // The advisor sees a corrupted copy of its newest input snapshot.
        w.history_scratch.assign(history.begin(), history.end());
        chaos->corrupt_demand_into(job.index, history[w.window - 1],
                                   w.history_scratch[w.window - 1]);
        w.advisor->advise_into(
            std::span<const traffic::DemandMatrix>(w.history_scratch.data(),
                                                   w.window),
            cfg);
      } else {
        w.advisor->advise_into(history, cfg);
      }
    } catch (...) {
      // A scheme may legitimately blow up on corrupted inputs; with the
      // ladder on, that is just another invalid output. Without validation
      // the historical contract holds: the exception surfaces on finish().
      if (!opt_.validate_outputs) throw;
      advise_ok = false;
    }
    if (advise_ok && plan != nullptr) chaos->corrupt_config(job.index, cfg);
    r.infer_seconds = seconds_since(infer_start, Clock::now());
  }
  const TeConfig* served = &cfg;

  if (opt_.validate_outputs && (!advise_ok || !config_servable(cfg))) {
    stats_.add(Counter::kInvalidOutputs);
    served = fallback_config(w, job.index, rung);
  } else if (opt_.validate_outputs && opt_.fallback_last_good &&
             (plan == nullptr ? chaos == nullptr : plan->clean())) {
    // Bank this epoch as a rung-1 donor. Under chaos only clean() epochs
    // qualify — and the donor a degraded epoch resolves to is pinned by
    // last_clean_before, so the cache is keyed by the donor index.
    w.last_good_cfg = cfg;
    w.last_good_index = job.index;
    w.has_last_good = true;
  }

  if (opt_.install) {
    const auto start = Clock::now();
    r.quant_error =
        install_wcmp_into(*ps_, *served, opt_.wcmp_table_size, w.install);
    served = &w.install.realized;
    r.install_seconds = seconds_since(start, Clock::now());
  }

  double reroute_seconds = 0.0;
  // §4.5: failure response renormalizes whatever is installed, so it comes
  // after quantization (a switch reroutes its realized WCMP ratios).
  if (masked_) {
    const auto start = Clock::now();
    reroute_into(*ps_, *served, alive_, w.rerouted);
    reroute_seconds = seconds_since(start, Clock::now());
    served = &w.rerouted;
    if (!dead_pairs_.empty()) {
      const auto& dm = (*trace_)[t];
      double dropped = 0.0;
      for (const std::uint32_t pr : dead_pairs_) dropped += dm[pr];
      if (dropped > 0.0) {
        r.dropped_demand = dropped;
        stats_.add(Counter::kDroppedPairSnapshots);
      }
    }
  }

  r.serve_seconds = seconds_since(job.enqueued, Clock::now());
  r.slo_violation =
      opt_.slo_seconds > 0.0 && r.serve_seconds > opt_.slo_seconds;

  const auto score_start = Clock::now();
  r.raw_mlu = te::mlu(*ps_, (*trace_)[t], *served, w.edge_scratch);
  const double score_seconds = seconds_since(score_start, Clock::now());

  if (opt_.oracle) {
    const auto start = Clock::now();
    const std::vector<bool>* alive = masked_ ? &alive_ : nullptr;
    const std::size_t max_attempts = 1 + opt_.oracle_retries;
    double backoff = opt_.oracle_backoff_seconds;
    const MluLpResult& res = w.oracle_lp.result;
    std::size_t attempt = 0;
    for (;; ++attempt) {
      lp::SolverOptions cur = opt_.solver;
      // Injected deadline overrun: the first attempt's budget is already
      // expired, so it returns kDeadline before its first pivot and the
      // backoff+retry path runs deterministically.
      if (plan != nullptr && plan->overrun && attempt == 0)
        cur.simplex.time_limit_seconds = -1.0;
      solve_mlu_lp(*ps_, (*trace_)[t], nullptr, alive, &cur, &w.warm,
                   w.oracle_lp);
      if (res.rebuilt) stats_.add(Counter::kOracleRebuilds);
      if (res.inorder_refactorizations > 0)
        stats_.add(Counter::kOracleInorderRefactors,
                   res.inorder_refactorizations);
      // A numerical verdict is a property of the LP, not of the attempt:
      // retrying it would only burn the backoff budget.
      if (res.optimal() || res.status == lp::Status::kNumerical ||
          attempt + 1 >= max_attempts)
        break;
      stats_.add(res.status);
      stats_.add(Counter::kOracleRetries);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(backoff, kOracleBackoffMaxSeconds)));
        backoff *= 2.0;
      }
    }
    if (res.optimal() && w.oracle_optima++ % kCertificateEvery == 0 &&
        !lp::check_certificate(w.oracle_lp.problem, w.oracle_lp.solution,
                               w.certificate_scratch)
             .ok())
      stats_.add(Counter::kOracleCertificateFailures);
    r.lp_seconds = seconds_since(start, Clock::now());
    r.lp_pivots = static_cast<std::uint32_t>(res.pivots);
    r.lp_attempts =
        static_cast<std::uint8_t>(std::min<std::size_t>(attempt + 1, 255));
    if (res.optimal()) {
      if (attempt > 0)
        stats_.add(Counter::kOracleRetrySuccesses);
      r.oracle_mlu = res.mlu;
      const double denom = res.mlu > 1e-12 ? res.mlu : 1e-12;
      r.normalized = r.raw_mlu / denom;
    } else {
      // Streaming mode degrades gracefully: the snapshot is still served,
      // only its normalizer is missing.
      stats_.add(res.status);
      stats_.add(Counter::kOracleFailures);
    }
  }

  r.rung = rung;
  if (chaos != nullptr) r.config_hash = config_fingerprint(*served, rung);

  r.total_seconds = seconds_since(job.enqueued, Clock::now());

  while (!results_.try_push(r)) {
    stats_.add(Counter::kResultBackpressure);
    std::this_thread::yield();
  }

  stats_.record(Stage::kQueue, r.queue_seconds);
  stats_.record(Stage::kInfer, r.infer_seconds);
  if (opt_.install) stats_.record(Stage::kInstall, r.install_seconds);
  if (masked_) stats_.record(Stage::kReroute, reroute_seconds);
  stats_.record(Stage::kScore, score_seconds);
  if (opt_.oracle) stats_.record(Stage::kLp, r.lp_seconds);
  stats_.record(Stage::kServe, r.serve_seconds);
  stats_.record(Stage::kE2e, r.total_seconds);
  stats_.add(Counter::kServed);
  stats_.add(rung);
  if (r.slo_violation)
    stats_.add(Counter::kSloViolations);
}

const TeConfig* ServingLoop::fallback_config(Worker& w, std::uint32_t index,
                                             FallbackRung& rung) {
  if (opt_.fallback_last_good) {
    if (chaos_plan(index) != nullptr) {
      const ChaosEngine* chaos = opt_.chaos;
      // The donor epoch is a pure function of (schedule, index): every
      // worker that lands on this degraded epoch recomputes the identical
      // donor config, which is what keeps chaos runs bit-reproducible
      // across worker counts.
      const std::uint32_t lg = chaos->last_clean_before(index);
      if (lg != ChaosEngine::kNoEpoch && lg >= w.window) {
        if (!w.has_last_good || w.last_good_index != lg) {
          const std::span<const traffic::DemandMatrix> donor =
              history_of(w, lg);
          bool ok = true;
          try {
            w.advisor->advise_into(donor, w.last_good_cfg);
          } catch (...) {
            ok = false;
          }
          w.has_last_good = ok && config_servable(w.last_good_cfg);
          w.last_good_index = lg;
        }
        if (w.has_last_good) {
          rung = FallbackRung::kLastGood;
          return &w.last_good_cfg;
        }
      }
    } else if (w.has_last_good) {
      rung = FallbackRung::kLastGood;
      return &w.last_good_cfg;
    }
  }
  rung = FallbackRung::kUniform;
  return &uniform_;
}

void ServingLoop::aggregate_warm(const Worker& w) {
  stats_.add(Counter::kWarmHits, w.warm.hits());
  stats_.add(Counter::kWarmMisses, w.warm.misses());
  for (std::size_t k = 0; k < lp::kWarmFallbackCount; ++k)
    stats_.add(static_cast<lp::WarmFallback>(k), w.warm.miss_reasons()[k]);
}

}  // namespace figret::te
