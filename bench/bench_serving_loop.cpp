// Serving-loop benchmark: sweep worker counts x arrival rates on the
// ToR-WEB fabric and report per-stage latency percentiles (p50/p99/p999),
// sustained throughput, SLO violations, and steady-state heap allocations.
//
// The zero-allocation claim is measured, not assumed: this TU replaces the
// global operator new/delete with counting wrappers, warms the pipeline up
// (buffers grow to steady-state capacity on the first pass), then counts
// every allocation on the measured passes. With the oracle off the count
// must be zero — any regression in the `_into` buffer-reuse paths shows up
// here as a nonzero column.
//
// Emits BENCH_serving_loop.json next to the binary (machine-readable run
// record; bench/results/ holds a committed reference artifact).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "te/figret.h"
#include "te/serving_loop.h"
#include "traffic/feed.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/table.h"

// --- global allocation counting ---------------------------------------------
// Counts every heap allocation while g_track_allocs is set. Both flags are
// plain relaxed atomics: the measured window starts and ends with the
// pipeline quiescent, so no tracked allocation can straddle the boundary.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_track_allocs{false};

void* counted_alloc(std::size_t n) {
  if (g_track_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
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

namespace {

using namespace figret;
using Clock = std::chrono::steady_clock;

struct RunResult {
  std::size_t workers = 0;
  double rate = 0.0;  // offered snapshots/s; 0 = as fast as accepted
  double wall_seconds = 0.0;
  double throughput = 0.0;
  te::ServingStats::Snapshot stats;  // measured passes only
  std::uint64_t steady_allocs = 0;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One worker-count x rate configuration: fresh loop, one warmup pass over
/// the test range (buffers reach capacity), then `passes` measured replays.
RunResult run_config(const bench::Scenario& sc,
                     std::vector<std::unique_ptr<te::FigretScheme>>& schemes,
                     std::size_t workers, double rate, std::size_t passes,
                     double slo_seconds) {
  te::ServingLoop::Options opt;
  opt.workers = workers;
  opt.queue_capacity = 512;
  opt.slo_seconds = slo_seconds;
  opt.oracle = false;  // the strictly allocation-free serving path
  te::ServingLoop loop(sc.ps, sc.trace, opt);

  std::vector<te::TeScheme*> advisors;
  for (std::size_t i = 0; i < workers; ++i) advisors.push_back(schemes[i].get());
  loop.start(advisors);

  const auto window =
      static_cast<std::uint32_t>(schemes.front()->history_window());
  const auto begin = std::max<std::uint32_t>(
      window, static_cast<std::uint32_t>(sc.trace.size() * 3 / 4));
  const auto end = static_cast<std::uint32_t>(sc.trace.size());

  std::vector<te::SnapshotResult> results;
  results.reserve(static_cast<std::size_t>(end - begin) * (passes + 2));

  const auto drain_all = [&] {
    while (loop.completed() < loop.submitted()) {
      loop.drain(results);
      std::this_thread::yield();
    }
    loop.drain(results);
  };
  const auto replay = [&] {
    if (rate <= 0.0) {
      // Max-speed replay: plain submit/drain, no feed machinery — this is
      // the allocation-audited path.
      for (std::uint32_t t = begin; t < end; ++t) {
        loop.submit(t);
        loop.drain(results);
      }
    } else {
      traffic::SnapshotFeed::Options fo;
      fo.begin = begin;
      fo.end = end;
      fo.rate = rate;
      fo.drop_on_backpressure = false;
      traffic::SnapshotFeed feed(fo);
      feed.run([&](std::uint32_t idx) {
        loop.drain(results);
        return loop.try_submit(idx);
      });
    }
    drain_all();
  };

  replay();  // warmup: buffers grow to steady-state capacity here
  loop.stats().reset();
  results.clear();

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_track_allocs.store(true, std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::size_t p = 0; p < passes; ++p) replay();
  const double wall = seconds_since(t0);
  g_track_allocs.store(false, std::memory_order_relaxed);

  loop.finish();

  RunResult r;
  r.workers = workers;
  r.rate = rate;
  r.wall_seconds = wall;
  r.stats = loop.stats().snapshot();
  r.throughput =
      wall > 0.0 ? static_cast<double>(r.stats[te::Counter::kServed]) / wall
                 : 0.0;
  r.steady_allocs = g_alloc_count.load(std::memory_order_relaxed);
  return r;
}

std::string fmt_ms(double seconds) { return util::fmt(seconds * 1e3, 3); }

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Serving loop — streaming latency and throughput",
      "run-to-completion workers over lock-free rings serve ToR-scale "
      "snapshots with zero steady-state allocations (oracle off)",
      "scaled ToR-WEB fabric; FIGRET advisor cloned per worker");

  bench::Scenario sc = bench::make_scenario("ToR-WEB");
  const bool full = bench::full_mode();
  const std::size_t passes = full ? 6 : 2;
  const double slo_seconds = 0.050;

  // Worker counts to sweep: powers of two up to the machine width.
  std::vector<std::size_t> worker_counts{1, 2, 4};
  const std::size_t hw = util::default_threads();
  if (hw > 4) worker_counts.push_back(hw);
  const std::size_t max_workers = worker_counts.back();

  // Train FIGRET once, ship the checkpoint to every worker instance.
  const bench::TrainProfile prof = bench::train_profile();
  te::FigretOptions fopt;
  fopt.history = prof.history;
  fopt.hidden = prof.hidden;
  fopt.epochs = prof.epochs;
  fopt.robust_weight = prof.robust_weight;
  auto trained = std::make_unique<te::FigretScheme>(sc.ps, fopt);
  const auto t0 = Clock::now();
  trained->fit(sc.trace.slice(0, sc.trace.size() * 3 / 4));
  const double train_seconds = seconds_since(t0);
  std::stringstream checkpoint;
  trained->save(checkpoint);
  std::vector<std::unique_ptr<te::FigretScheme>> schemes;
  schemes.push_back(std::move(trained));
  for (std::size_t i = 1; i < max_workers; ++i) {
    auto clone = std::make_unique<te::FigretScheme>(sc.ps, fopt);
    std::stringstream is(checkpoint.str());
    clone->load(is);
    schemes.push_back(std::move(clone));
  }
  std::cout << "FIGRET trained in " << util::fmt(train_seconds, 2)
            << "s; serving " << sc.trace.size() - sc.trace.size() * 3 / 4
            << "-snapshot test range, " << passes << " measured passes\n\n";

  // Arrival rates: max speed, then paced near/below a single worker's
  // capacity so queueing delay becomes visible in the latency columns.
  const std::vector<double> rates = full ? std::vector<double>{0.0, 2000.0,
                                                               500.0, 100.0}
                                         : std::vector<double>{0.0, 500.0,
                                                               100.0};

  std::vector<RunResult> runs;
  for (std::size_t w : worker_counts)
    for (double rate : rates)
      runs.push_back(
          run_config(sc, schemes, w, rate, passes, slo_seconds));

  util::Table t({"workers", "rate (snap/s)", "served", "throughput (snap/s)",
                 "serve p50 (ms)", "serve p99 (ms)", "serve p999 (ms)",
                 "queue p99 (ms)", "SLO viol (50ms)", "steady allocs"});
  for (const RunResult& r : runs) {
    const auto& serve = r.stats[te::Stage::kServe];
    t.add_row({std::to_string(r.workers),
               r.rate <= 0.0 ? "max" : util::fmt(r.rate, 0),
               std::to_string(r.stats[te::Counter::kServed]),
               util::fmt(r.throughput, 1), fmt_ms(serve.p50),
               fmt_ms(serve.p99), fmt_ms(serve.p999),
               fmt_ms(r.stats[te::Stage::kQueue].p99),
               std::to_string(r.stats[te::Counter::kSloViolations]),
               std::to_string(r.steady_allocs)});
  }
  t.print(std::cout);

  bool zero_alloc = true;
  for (const RunResult& r : runs)
    if (r.rate <= 0.0 && r.steady_allocs != 0) zero_alloc = false;
  std::cout << "\nsteady-state allocation audit (max-rate runs, oracle off): "
            << (zero_alloc ? "PASS (0 allocations)" : "FAIL") << "\n";

  util::Json j = util::Json::object();
  j.set("bench", "serving_loop")
      .set("scenario", sc.name)
      .set("note", sc.note)
      .set("nodes", static_cast<std::int64_t>(sc.ps.num_nodes()))
      .set("paths", static_cast<std::int64_t>(sc.ps.num_paths()))
      .set("trace_snapshots", static_cast<std::int64_t>(sc.trace.size()))
      .set("full_mode", full)
      .set("passes", static_cast<std::int64_t>(passes))
      .set("slo_seconds", slo_seconds)
      .set("figret_train_seconds", train_seconds)
      .set("zero_alloc_steady_state", zero_alloc);
  util::Json arr = util::Json::array();
  for (const RunResult& r : runs) {
    util::Json o = util::Json::object();
    o.set("workers", static_cast<std::int64_t>(r.workers))
        .set("rate_snapshots_per_s", r.rate)
        .set("wall_seconds", r.wall_seconds)
        .set("throughput_snapshots_per_s", r.throughput)
        .set("steady_state_allocations",
             static_cast<std::int64_t>(r.steady_allocs))
        .set("stats", r.stats.to_json());
    arr.push(std::move(o));
  }
  j.set("runs", std::move(arr));
  j.write_file("BENCH_serving_loop.json", 2);
  std::cout << "machine-readable results: BENCH_serving_loop.json\n";
  return zero_alloc ? 0 : 1;
}
