// figret_e2e — the repository benchmark. FIGRET is served through the public
// te::ServingLoop API on four workloads, each chosen to stress a different
// layer (see README.md next to this file):
//
//   wan-oracle     GEANT + wan_trace, per-snapshot warm-LP oracle on (lp)
//   dc-burst       random_regular(32,10) + bursty dc_tor_trace (inference)
//   fabric-sparse  fat-tree k=6 + sparse fabric_trace (22 MB of weights
//                  streamed per forward pass, WCMP over 5k paths, O(nnz)
//                  scoring)
//   dc-failover    random_regular(24,8) + dc_tor_trace, chaos-scheduled link
//                  failures (reroute, mask swaps, dropped demand)
//
// One run: build the workload's topology, paths and trace, fit FIGRET from
// --seed and clone it to every worker (the timed set-up, repeated and
// reported as a median); solve the omniscient normalizer offline; serve one
// discarded warm-up pass; a closed-loop capacity phase; an open-loop phase
// at the workload's fixed arrival rate, each snapshot timed from when it was
// due. With --trace 1 a replay in the loop's shape then puts timers around
// the public calls of each layer. Outputs are checked (PASS/FAIL lines, exit
// 1 on any FAIL) and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
// Usage:
//   figret_e2e --workload <name|all> [--seed 1] [--seconds 15] [--trace 0|1]
//              [--json FILE] [--quick]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lp/revised_simplex.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "nn/adam.h"
#include "nn/mlp.h"
#include "te/chaos.h"
#include "te/failover.h"
#include "te/figret.h"
#include "te/loss.h"
#include "te/lp_schemes.h"
#include "te/mlu.h"
#include "te/serving_loop.h"
#include "te/wcmp.h"
#include "traffic/generators.h"
#include "util/json.h"

// --- global allocation counting ---------------------------------------------
// Counts heap allocations from every thread while g_track_allocs is set. The
// capacity phase starts and ends with the loop quiescent, and the producer's
// own bookkeeping there writes only into preallocated buffers, so any count
// is the serving path's. Each thread bumps its own cache line: a shared
// counter would bounce between the workers on every allocation of the LP
// oracle (thousands per snapshot) and slow the phase it measures.
namespace {
constexpr std::size_t kAllocShards = 16;
struct alignas(64) AllocShard {
  std::atomic<std::uint64_t> count{0};
};
AllocShard g_alloc_shards[kAllocShards];
std::atomic<std::size_t> g_next_shard{0};
thread_local const std::size_t t_alloc_shard =
    g_next_shard.fetch_add(1, std::memory_order_relaxed) % kAllocShards;
std::atomic<bool> g_track_allocs{false};

void* counted_alloc(std::size_t n) {
  if (g_track_allocs.load(std::memory_order_relaxed))
    g_alloc_shards[t_alloc_shard].count.fetch_add(1,
                                                  std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void count_allocs(bool on) {
  if (on)
    for (AllocShard& s : g_alloc_shards)
      s.count.store(0, std::memory_order_relaxed);
  g_track_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs_counted() {
  std::uint64_t n = 0;
  for (const AllocShard& s : g_alloc_shards)
    n += s.count.load(std::memory_order_relaxed);
  return n;
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

// --- load shape (identical for every workload) -------------------------------
constexpr std::size_t kHistory = 8;
constexpr std::size_t kTrain = 200;  // fit on snapshots [0, kTrain)
constexpr std::size_t kTest = 240;   // serve [kTrain, kTrain + kTest)
constexpr std::size_t kWorkers = 2;  // + 1 producer/drainer thread
constexpr std::size_t kRing = 256;
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMinibatch = 16;
constexpr std::size_t kMinibatchReps = 3;
constexpr double kCapacityShare = 0.3;  // of --seconds; the rest is open loop
constexpr std::size_t kCapacityWindows = 8;  // capacity = median window rate
constexpr std::size_t kServiceSamples = 1 << 17;  // capacity-phase cap
constexpr double kSevere = 2.0;         // paper §5.2 severe congestion
constexpr double kOracleTol = 1e-6;
constexpr std::size_t kP99Samples = 1000;  // per open-loop window
constexpr std::size_t kMaskChanges = 12;   // dc-failover, per test pass

// Why each workload exists is recorded in BENCHMARK.json and README.md.
struct Workload {
  const char* name;
  double rate;  // open-loop arrivals per second, ~50% of measured capacity
  bool oracle;  // per-snapshot warm-LP resolve inside the loop
  bool failover;
  std::size_t epochs;
};

const Workload kWorkloads[] = {
    {"wan-oracle", 550.0, true, false, 20},
    {"dc-burst", 1500.0, false, false, 8},
    {"fabric-sparse", 900.0, false, false, 3},
    {"dc-failover", 2500.0, false, true, 12},
};

// --- small helpers -----------------------------------------------------------
double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 over (seed, stream): independent sub-seeds per input.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Tail latency that a transient stall of a shared host cannot own: the
/// open loop is cut into windows of at least kP99Samples arrivals (so each
/// window's p99 has >= 10 samples beyond it) and the median window p99 is
/// reported.
double windowed_p99(const std::vector<double>& by_arrival) {
  const std::size_t n = by_arrival.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kP99Samples);
  std::vector<double> p99;
  for (std::size_t j = 0; j < windows; ++j)
    p99.push_back(quantile({by_arrival.begin() + j * n / windows,
                            by_arrival.begin() + (j + 1) * n / windows},
                           0.99));
  return median(p99);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// --- host / build metadata ---------------------------------------------------
struct Host {
  unsigned nproc = 0;
  std::string cpu = "unknown";
  std::string isa = "default";
  std::string build_type = FIGRET_E2E_BUILD_TYPE;
  std::string compiler = __VERSION__;
  std::string git_sha = FIGRET_E2E_GIT_SHA;
};

Host probe_host() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__x86_64__)
  // The kernels' target_clones("arch=x86-64-v3", "default") dispatch.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    h.isa = "x86-64-v3";
#endif
  return h;
}

// --- set-up: everything a deployment pays before serving the first snapshot --
struct Instance {
  net::Graph graph;
  te::PathSet ps;
  traffic::TrafficTrace trace;
  te::FigretOptions fopt;
  std::unique_ptr<te::FigretScheme> trained;
  std::vector<std::unique_ptr<te::FigretScheme>> clones;
  std::vector<te::TeScheme*> advisors;
  std::unique_ptr<te::ChaosEngine> chaos;
  std::unique_ptr<te::ServingLoop> loop;
  double paths_s = 0.0, trace_s = 0.0, fit_s = 0.0, setup_s = 0.0;
};

// Each workload is one fixed scenario: topology and traffic trace come from
// the constants below (the generator seeds the repo's GEANT and ToR
// scenarios use, and 151 for the fabric), like a replayed dataset. --seed drives what a deployment
// draws anew: the model's initialisation and minibatch order, and the
// failure schedule. A seed-drawn trace would move the oracle workloads' LP
// work per snapshot 2-3x from seed to seed (warm-start pivots follow the
// trace's burst structure) and swamp the code changes the benchmark is for.
void build_network(const std::string& name, Instance& in) {
  if (name == "fabric-sparse") {
    // k=6 keeps both workers' model copies (2 x 22 MB) clear of the L3
    // share a co-tenant can take; at k=8 (2 x 72 MB) capacity moved +-20%
    // between runs on a shared host.
    net::FatTree ft = net::fat_tree(6);
    in.ps = te::PathSet::build(ft.graph, net::fat_tree_paths(ft, 4));
    in.graph = std::move(ft.graph);
    return;
  }
  if (name == "wan-oracle")
    in.graph = net::geant();
  else if (name == "dc-burst")
    in.graph = net::random_regular(32, 10, 139);
  else  // dc-failover
    in.graph = net::random_regular(24, 8, 131);
  in.ps = te::PathSet::build(in.graph, net::all_pairs_k_shortest(in.graph, 3));
}

traffic::TrafficTrace build_trace(const std::string& name,
                                  std::size_t nodes) {
  const std::size_t len = kTrain + kTest;
  if (name == "wan-oracle") return traffic::wan_trace(nodes, len, 101);
  if (name == "dc-burst") return traffic::dc_tor_trace(nodes, len, 149);
  if (name == "fabric-sparse") return traffic::fabric_trace(nodes, len, 151);
  return traffic::dc_tor_trace(nodes, len, 137);
}

std::unique_ptr<Instance> set_up(const Workload& w, std::uint64_t seed,
                                 bool quick) {
  auto in = std::make_unique<Instance>();
  const auto t0 = Clock::now();

  auto t = Clock::now();
  build_network(w.name, *in);
  in->paths_s = since(t);

  t = Clock::now();
  in->trace = build_trace(w.name, in->ps.num_nodes());
  in->trace_s = since(t);

  t = Clock::now();
  in->fopt.history = kHistory;
  in->fopt.hidden = {128, 128, 128};
  in->fopt.epochs = quick ? 1 : w.epochs;
  in->fopt.robust_weight = 1.0;
  in->fopt.seed = mix(seed, 1);
  in->trained = std::make_unique<te::FigretScheme>(in->ps, in->fopt);
  in->trained->fit(in->trace.slice(0, kTrain));
  in->fit_s = since(t);

  // Every worker serves its own copy, shipped the way a controller would.
  std::stringstream checkpoint;
  in->trained->save(checkpoint);
  const std::string bytes = checkpoint.str();
  for (std::size_t i = 0; i < kWorkers; ++i) {
    auto clone = std::make_unique<te::FigretScheme>(in->ps, in->fopt);
    std::istringstream is(bytes);
    clone->load(is);
    in->advisors.push_back(clone.get());
    in->clones.push_back(std::move(clone));
  }

  if (w.failover) {
    // Failures only. The first schedule with exactly kMaskChanges mask
    // changes per pass is taken, so every seed quiesces the loop equally
    // often and capacity/latency compare across seeds.
    te::ChaosOptions co;
    co.failure_rate = 0.05;
    co.mean_repair_epochs = 6.0;
    co.max_concurrent_failures = 2;
    const auto domains = net::link_domains(in->graph);
    for (std::uint64_t j = 0; !in->chaos; ++j) {
      if (j == 1000)
        throw std::runtime_error("no failure schedule with the target "
                                 "number of mask changes");
      co.seed = mix(seed, 100 + j);
      auto chaos = std::make_unique<te::ChaosEngine>(
          in->ps, domains, co, static_cast<std::uint32_t>(kTrain),
          static_cast<std::uint32_t>(kTrain + kTest));
      if (chaos->summary().mask_changes == kMaskChanges)
        in->chaos = std::move(chaos);
    }
  }

  te::ServingLoop::Options opt;
  opt.workers = kWorkers;
  opt.queue_capacity = kRing;
  opt.oracle = w.oracle;
  in->loop = std::make_unique<te::ServingLoop>(in->ps, in->trace, opt);
  in->loop->start(in->advisors);
  in->setup_s = since(t0);
  return in;
}

// --- offline omniscient normalizer (not part of set-up) ----------------------
// One serial warm chain over the test range, in index order: deterministic,
// so the quality metrics repeat bit for bit. It doubles as the LP
// layer's trace (build_mlu_lp / lp::solve_with around a chained WarmStart).
struct Normalizer {
  std::vector<double> omni;  // per test offset
  std::vector<double> build_s, solve_s;
  double pivots = 0.0, dual_pivots = 0.0, refactorizations = 0.0;
  double warm_hit_frac = 0.0;
  double cold_fallbacks = 0.0;
  std::size_t failures = 0;
};

/// dc-failover's path-liveness mask per test offset, built by walking the
/// schedule in index order the way the producer swaps masks. Each install
/// (surviving_paths + disconnected_pairs_into, what install_failures does)
/// is timed.
struct Masks {
  std::vector<std::vector<bool>> installed;     // one per install
  std::vector<const std::vector<bool>*> alive;  // per offset; null: all alive
  std::vector<double> install_s;
  std::size_t changes = 0;
};

Masks walk_masks(const Instance& in) {
  Masks m;
  m.installed.reserve(kTest);  // keeps the `alive` pointers valid
  m.alive.assign(kTest, nullptr);
  std::vector<std::uint32_t> dead;
  std::uint32_t id = 0;
  for (std::size_t k = 0; in.chaos && k < kTest; ++k) {
    const auto index = static_cast<std::uint32_t>(kTrain + k);
    const std::uint32_t next = in.chaos->plan(index).mask_id;
    if (next != id) {
      ++m.changes;
      id = next;
      if (id != 0) {
        const auto t0 = Clock::now();
        m.installed.push_back(
            te::surviving_paths(in.ps, in.chaos->failed_edges(index)));
        te::disconnected_pairs_into(in.ps, m.installed.back(), dead);
        m.install_s.push_back(since(t0));
      }
    }
    if (id != 0) m.alive[k] = &m.installed.back();
  }
  return m;
}

/// The MLU LP over the snapshot's active pairs only. Zero-demand pairs add no
/// load, so its optimum equals build_mlu_lp's; on a fabric trace (~1% of
/// pairs active) the full LP carries ~100x the conservation rows and a cold
/// solve takes seconds.
lp::LpProblem active_pairs_mlu_lp(const te::PathSet& ps,
                                  const traffic::DemandMatrix& dm) {
  lp::LpProblem prob;
  const std::size_t u = prob.add_variable(1.0);  // minimize U
  std::vector<std::vector<lp::Term>> load(ps.num_edges());
  dm.for_each_active([&](std::size_t pair, double d) {
    if (d == 0.0) return;
    std::vector<lp::Term> split;
    for (std::size_t p = ps.pair_begin(pair); p < ps.pair_end(pair); ++p) {
      const std::size_t v = prob.add_variable(0.0, 1.0);
      split.push_back({v, 1.0});
      for (const net::EdgeId e : ps.path_edges(p)) load[e].push_back({v, d});
    }
    prob.add_constraint(std::move(split), lp::Relation::kEq, 1.0);
  });
  for (net::EdgeId e = 0; e < ps.num_edges(); ++e) {
    if (load[e].empty()) continue;
    load[e].push_back({u, -ps.edge_capacity(e)});
    prob.add_constraint(std::move(load[e]), lp::Relation::kLessEq, 0.0);
  }
  return prob;
}

Normalizer solve_normalizer(const Instance& in, const Masks& masks) {
  Normalizer nz;
  lp::WarmStart warm;
  const lp::SolverOptions opts;
  std::size_t pivots = 0, dual = 0, refac = 0;
  for (std::size_t k = 0; k < kTest; ++k) {
    const std::vector<bool>* alive = masks.alive[k];
    const traffic::DemandMatrix& dm = in.trace[kTrain + k];
    auto t = Clock::now();
    const lp::LpProblem prob =
        dm.is_sparse() && alive == nullptr
            ? active_pairs_mlu_lp(in.ps, dm)
            : te::build_mlu_lp(in.ps, dm, nullptr, alive);
    nz.build_s.push_back(since(t));
    lp::SolveStats st;
    t = Clock::now();
    const lp::LpResult res = lp::solve_with(prob, opts, &warm, &st);
    nz.solve_s.push_back(since(t));
    pivots += st.pivots;
    dual += st.dual_pivots;
    refac += st.refactorizations;
    if (!res.optimal()) ++nz.failures;
    nz.omni.push_back(res.optimal() ? res.objective : 0.0);
  }
  const auto n = static_cast<double>(kTest);
  nz.pivots = static_cast<double>(pivots) / n;
  nz.dual_pivots = static_cast<double>(dual) / n;
  nz.refactorizations = static_cast<double>(refac) / n;
  const std::size_t attempts = warm.hits() + warm.misses();
  nz.warm_hit_frac = attempts == 0 ? 0.0
                                   : static_cast<double>(warm.hits()) /
                                         static_cast<double>(attempts);
  nz.cold_fallbacks = static_cast<double>(warm.misses());
  return nz;
}

// --- serving phases (tracing off) --------------------------------------------
struct Phase {
  double seconds = 0.0;  // wall time, first submit -> last completion
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;       // not fresh, non-finite MLU, or no oracle
  std::uint64_t mismatched = 0;   // served MLU differs from the warm-up pass
  std::uint64_t oracle_bad = 0;   // normalized < 1 or oracle != normalizer
  std::uint64_t allocs = 0;
  std::uint64_t mask_swaps = 0;
  // Open loop only, indexed by submission order within the phase.
  std::vector<double> late;      // submit - due
  std::vector<double> latency;   // (submit - due) + serve_seconds
  std::vector<double> queue;     // SnapshotResult::queue_seconds
  std::vector<double> service;   // dequeue -> published (also capacity)
  std::vector<double> window_rates = std::vector<double>(kCapacityWindows);
};

class Producer {
 public:
  Producer(Instance& in, const Workload& w, const std::vector<double>& omni)
      : in_(in), w_(w), omni_(omni), ref_mlu_(kTest, 0.0) {
    batch_.reserve(4 * kRing);
  }

  /// One discarded pass over every test index; its served MLUs are the
  /// per-index reference the later phases must reproduce exactly.
  Phase warm_up() {
    Phase ph;
    begin(ph, kWarmUp);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kTest; ++k) submit(next_index(), ph);
    quiesce();
    ph.seconds = since(t0);
    return ph;
  }

  /// Closed loop: submit blocks on the ring. Completions per second are
  /// taken in kCapacityWindows equal windows while the ring is kept full;
  /// their median shrugs off a transient stall on a shared host.
  Phase capacity(double seconds) {
    Phase ph;
    ph.service.reserve(kServiceSamples);
    begin(ph, kCapacity);
    count_allocs(true);
    const auto t0 = Clock::now();
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / kCapacityWindows));
    for (std::size_t j = 0; j < kCapacityWindows; ++j) {
      const auto start = Clock::now();
      const std::uint64_t served0 = ph.served;
      const auto stop = t0 + window * static_cast<long>(j + 1);
      while (Clock::now() < stop) submit(next_index(), ph);
      ph.window_rates[j] = static_cast<double>(ph.served - served0) /
                           std::max(since(start), 1e-9);
    }
    quiesce();
    ph.seconds = since(t0);
    count_allocs(false);
    ph.allocs = allocs_counted();
    return ph;
  }

  /// Open loop at a fixed rate; each snapshot is timed from when it was due,
  /// so a stall of the generator is charged to the snapshots it delays.
  Phase open_loop(double seconds, double rate) {
    Phase ph;
    const auto n = static_cast<std::size_t>(seconds * rate);
    ph.late.assign(n, 0.0);
    ph.latency.assign(n, 0.0);
    ph.queue.reserve(n);
    ph.service.reserve(n);
    begin(ph, kOpen);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(k) / rate));
      while (Clock::now() < due) {
        pump();
        std::this_thread::yield();
      }
      const std::uint32_t index = next_index();
      prepare(index, ph);
      ph.late[k] = std::chrono::duration<double>(Clock::now() - due).count();
      in_.loop->submit(index);
      ++ph.submitted;
      pump();
    }
    quiesce();
    ph.seconds = since(t0);
    return ph;
  }

  const std::vector<double>& reference_mlu() const { return ref_mlu_; }

 private:
  enum Mode { kWarmUp, kCapacity, kOpen };

  void begin(Phase& ph, Mode mode) {
    quiesce();
    phase_ = &ph;
    mode_ = mode;
    seq0_ = in_.loop->submitted();
  }

  std::uint32_t next_index() {
    const auto index = static_cast<std::uint32_t>(kTrain + cursor_);
    cursor_ = (cursor_ + 1) % kTest;
    return index;
  }

  /// dc-failover: at each scheduled mask change, quiesce the loop and swap
  /// the failure mask, so every snapshot is served under its own epoch's mask.
  void prepare(std::uint32_t index, Phase& ph) {
    if (!in_.chaos) return;
    const std::uint32_t id = in_.chaos->plan(index).mask_id;
    if (id == mask_id_) return;
    quiesce();
    if (id == 0)
      in_.loop->clear_failures();
    else
      in_.loop->install_failures(in_.chaos->failed_edges(index));
    mask_id_ = id;
    ++ph.mask_swaps;
  }

  void submit(std::uint32_t index, Phase& ph) {
    prepare(index, ph);
    in_.loop->submit(index);
    ++ph.submitted;
    pump();
  }

  void quiesce() {
    while (in_.loop->completed() < in_.loop->submitted()) {
      pump();
      std::this_thread::yield();
    }
    pump();
  }

  void pump() {
    batch_.clear();
    in_.loop->drain(batch_);
    for (const te::SnapshotResult& r : batch_) record(r);
  }

  void record(const te::SnapshotResult& r) {
    Phase& ph = *phase_;
    ++ph.served;
    const std::size_t t = r.trace_index - kTrain;
    const bool oracle_ok = !w_.oracle || r.oracle_mlu > 0.0;
    if (r.rung != te::FallbackRung::kFresh || !std::isfinite(r.raw_mlu) ||
        !oracle_ok)
      ++ph.failed;
    if (w_.oracle && oracle_ok &&
        (r.normalized < 1.0 - kOracleTol ||
         std::abs(r.oracle_mlu - omni_[t]) >
             kOracleTol * std::max(1.0, omni_[t])))
      ++ph.oracle_bad;
    if (mode_ == kWarmUp) {
      ref_mlu_[t] = r.raw_mlu;
    } else if (r.raw_mlu != ref_mlu_[t]) {
      ++ph.mismatched;
    }
    const double service = r.total_seconds - r.queue_seconds;
    if (mode_ == kCapacity && ph.service.size() < ph.service.capacity())
      ph.service.push_back(service);
    if (mode_ == kOpen) {
      const std::size_t k = r.seq - seq0_;
      ph.latency[k] = ph.late[k] + r.serve_seconds;
      ph.queue.push_back(r.queue_seconds);
      ph.service.push_back(service);
    }
  }

  Instance& in_;
  const Workload& w_;
  const std::vector<double>& omni_;
  std::vector<double> ref_mlu_;
  std::vector<te::SnapshotResult> batch_;
  Phase* phase_ = nullptr;
  Mode mode_ = kWarmUp;
  std::uint64_t seq0_ = 0;
  std::size_t cursor_ = 0;
  std::uint32_t mask_id_ = 0;
};

// --- traced replay (tracing on) ----------------------------------------------
// The serving path re-run with bench-side timers around each public call, in
// the loop's shape: kWorkers threads at once, each on its own model copy,
// scratch and warm-LP chain, so the per-layer numbers carry the same cache
// and memory-bandwidth contention as the untraced phases they explain.
struct Replay {
  std::vector<double> advise_s, forward_s, install_s, reroute_s, score_s;
  std::vector<double> per_snapshot_s;  // Σ of the serving path's stages
  std::size_t mismatched = 0;  // replayed MLU differs from the loop's
  double forward_batch_s = 0.0, backward_batch_s = 0.0, loss_s = 0.0,
         adam_s = 0.0;
};

/// The model's input row for history ending before `t` (most recent last),
/// scaled by the largest training demand the way FigretScheme scales it.
void input_row(const Instance& in, std::size_t t, double scale,
               std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  const std::size_t pairs = in.ps.num_pairs();
  for (std::size_t h = 0; h < kHistory; ++h)
    in.trace[t - kHistory + h].for_each_active(
        [&](std::size_t p, double v) { out[h * pairs + p] = v / scale; });
}

/// One replay worker: test offsets k = part, part + kWorkers, ... in order.
void replay_part(const Instance& in, const Workload& w, std::size_t part,
                 double scale,
                 const std::vector<const std::vector<bool>*>& alive,
                 const std::vector<double>& ref_mlu, Replay& rp) {
  te::FigretScheme& fig = *in.clones[part];
  const nn::Mlp& model = fig.model();
  te::TeConfig cfg, installed, rerouted;
  te::WcmpWeights weights;
  te::WcmpScratch wcmp_scratch;
  std::vector<double> edge_scratch;
  std::vector<double> row(model.input_size(), 0.0);
  nn::MlpWorkspace ws;
  lp::WarmStart warm;
  const lp::SolverOptions opts;

  for (std::size_t k = part; k < kTest; k += kWorkers) {
    const std::size_t t = kTrain + k;
    const std::span<const traffic::DemandMatrix> history{
        in.trace.snapshots.data() + (t - kHistory), kHistory};

    auto t0 = Clock::now();
    fig.advise_into(history, cfg);
    const double advise = since(t0);

    input_row(in, t, scale, row);
    t0 = Clock::now();
    model.forward(row, ws);
    rp.forward_s.push_back(since(t0));

    t0 = Clock::now();
    te::quantize_wcmp_into(in.ps, cfg, 16, weights, wcmp_scratch);
    te::ratios_from_wcmp_into(in.ps, weights, installed);
    const double install = since(t0);

    const te::TeConfig* served = &installed;
    double reroute = 0.0;
    if (alive[k] != nullptr) {
      t0 = Clock::now();
      te::reroute_into(in.ps, installed, *alive[k], rerouted);
      reroute = since(t0);
      rp.reroute_s.push_back(reroute);
      served = &rerouted;
    }

    t0 = Clock::now();
    const double m = te::mlu(in.ps, in.trace[t], *served, edge_scratch);
    const double score = since(t0);
    if (m != ref_mlu[k]) ++rp.mismatched;

    double oracle = 0.0;
    if (w.oracle) {
      t0 = Clock::now();
      const lp::LpProblem prob =
          te::build_mlu_lp(in.ps, in.trace[t], nullptr, alive[k]);
      lp::solve_with(prob, opts, &warm);
      oracle = since(t0);
    }

    rp.advise_s.push_back(advise);
    rp.install_s.push_back(install);
    rp.score_s.push_back(score);
    rp.per_snapshot_s.push_back(advise + install + reroute + score + oracle);
  }
}

Replay replay(const Instance& in, const Workload& w, const Masks& masks,
              const std::vector<double>& ref_mlu) {
  Replay rp;
  double scale = 1e-12;
  for (std::size_t t = 0; t < kTrain; ++t)
    scale = std::max(scale, in.trace[t].max_value());

  std::vector<Replay> parts(kWorkers);
  std::vector<std::exception_ptr> errors(kWorkers);
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kWorkers; ++p)
      threads.emplace_back([&, p] {
        try {
          replay_part(in, w, p, scale, masks.alive, ref_mlu, parts[p]);
        } catch (...) {
          errors[p] = std::current_exception();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const Replay& p : parts) {
    append(rp.advise_s, p.advise_s);
    append(rp.forward_s, p.forward_s);
    append(rp.install_s, p.install_s);
    append(rp.reroute_s, p.reroute_s);
    append(rp.score_s, p.score_s);
    append(rp.per_snapshot_s, p.per_snapshot_s);
    rp.mismatched += p.mismatched;
  }

  // One training minibatch on the workload's model shape (on a copy, so the
  // served model is untouched).
  const te::FigretScheme& fig = *in.trained;
  const nn::Mlp& model = fig.model();
  nn::Mlp net = model;
  nn::AdamConfig acfg;
  acfg.learning_rate = in.fopt.learning_rate;
  acfg.clip_norm = in.fopt.clip_norm;
  nn::Adam adam(net, acfg);
  nn::MlpGradients grads = net.make_gradients();
  nn::MlpBatchWorkspace bws;
  linalg::Matrix x(kMinibatch, model.input_size());
  for (std::size_t b = 0; b < kMinibatch; ++b)
    input_row(in, kHistory + b, scale, x.row(b));
  linalg::Matrix dl(kMinibatch, model.output_size());
  std::vector<double> grad_sig;
  const te::LossConfig lcfg{in.fopt.robust_weight};
  std::vector<double> fwd, bwd, loss, step;
  for (std::size_t rep = 0; rep < kMinibatchReps; ++rep) {
    auto t0 = Clock::now();
    const linalg::Matrix& sig = net.forward_batch(x, bws);
    fwd.push_back(since(t0));
    t0 = Clock::now();
    for (std::size_t b = 0; b < kMinibatch; ++b) {
      te::figret_loss(in.ps, in.trace[kHistory + b], sig.row(b),
                      fig.pair_weights(), lcfg, &grad_sig);
      for (std::size_t j = 0; j < grad_sig.size(); ++j)
        dl(b, j) = grad_sig[j] / static_cast<double>(kMinibatch);
    }
    loss.push_back(since(t0));
    t0 = Clock::now();
    grads.zero();
    net.backward_batch(x, bws, dl, grads);
    bwd.push_back(since(t0));
    t0 = Clock::now();
    adam.step(net, grads);
    step.push_back(since(t0));
  }
  rp.forward_batch_s = median(fwd);
  rp.backward_batch_s = median(bwd);
  rp.loss_s = median(loss);
  rp.adam_s = median(step);
  return rp;
}

// --- reporting ---------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string what;
  bool pass;
  /// Correctness checks gate the run (exit 1); the others only WARN.
  bool gate = true;
};

struct Outcome {
  std::vector<Metric> e2e, layer;
  std::vector<Check> checks;
  std::uint64_t attempted = 0, failed = 0;
  util::Json record = util::Json::object();

  bool correct() const {
    for (const Check& c : checks)
      if (c.gate && !c.pass) return false;
    return true;
  }
};

std::string fmt(double v, int precision = 6) {
  std::ostringstream os;
  os << std::setprecision(precision) << v;
  return os.str();
}

void print_metrics(std::ostream& os, const char* title,
                   const std::vector<Metric>& ms) {
  os << title << "\n";
  for (const Metric& m : ms)
    os << "  " << std::left << std::setw(36) << m.name << std::right
       << std::setw(16) << fmt(m.value) << "  " << m.unit << "\n";
}

void add_metrics(util::Json& into, const std::vector<Metric>& ms,
                 const std::string& prefix = "") {
  for (const Metric& m : ms)
    into.set(prefix + m.name,
             util::Json::object().set("value", m.value).set("unit", m.unit));
}

struct Cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool quick = false;
  std::string json;
};

Outcome run_workload(const Workload& w, const Cli& cli, const Host& host) {
  std::ostream& os = std::cout;
  const double capacity_s = kCapacityShare * cli.seconds;
  const double open_s = cli.seconds - capacity_s;
  const std::size_t reps = cli.quick ? 1 : kSetupReps;

  os << "== figret_e2e · " << w.name << " · seed " << cli.seed << " ==\n"
     << "host:  nproc=" << host.nproc << " cpu=\"" << host.cpu
     << "\" isa=" << host.isa << " build=" << host.build_type
     << " compiler=\"" << host.compiler << "\" git=" << host.git_sha << "\n"
     << "load:  workers=" << kWorkers << " threads=" << kWorkers + 1
     << " ring=" << kRing << " oracle=" << (w.oracle ? "on" : "off")
     << " failover=" << (w.failover ? "on" : "off")
     << " open-loop rate=" << w.rate << "/s\n"
     << "plan:  set-up x" << reps << ", warm-up 1 pass (" << kTest
     << " snapshots), capacity " << capacity_s << " s closed loop, open loop "
     << open_s << " s" << (cli.trace ? ", traced replay" : "") << "\n"
     << std::flush;

  // Set-up, repeated; the last instance serves.
  std::vector<double> setup_s, paths_s, trace_s, fit_s;
  std::unique_ptr<Instance> in;
  for (std::size_t r = 0; r < reps; ++r) {
    if (in) in->loop->finish();
    in.reset();
    in = set_up(w, cli.seed, cli.quick);
    setup_s.push_back(in->setup_s);
    paths_s.push_back(in->paths_s);
    trace_s.push_back(in->trace_s);
    fit_s.push_back(in->fit_s);
  }
  // Idle workers spin; stop them while the normalizer solves.
  in->loop->finish();
  const Masks masks = walk_masks(*in);
  const Normalizer nz = solve_normalizer(*in, masks);
  in->loop->start(in->advisors);

  Producer producer(*in, w, nz.omni);
  const Phase warm = producer.warm_up();
  const Phase cap = producer.capacity(capacity_s);
  const Phase open = producer.open_loop(open_s, w.rate);
  in->loop->finish();

  Outcome out;
  out.attempted = warm.submitted + cap.submitted + open.submitted;
  out.failed = warm.failed + cap.failed + open.failed;
  const std::uint64_t served = warm.served + cap.served + open.served;

  // Quality over one pass of the distinct test snapshots.
  const std::vector<double>& ref = producer.reference_mlu();
  std::vector<double> norm(kTest, 0.0);
  std::size_t severe = 0, below_optimum = 0;
  for (std::size_t k = 0; k < kTest; ++k) {
    norm[k] = ref[k] / std::max(nz.omni[k], 1e-12);
    if (norm[k] > kSevere) ++severe;
    if (norm[k] < 1.0 - kOracleTol) ++below_optimum;
  }

  std::vector<double> lat_ms;
  lat_ms.reserve(open.latency.size());
  for (double s : open.latency) lat_ms.push_back(s * 1e3);

  out.e2e = {
      {"setup_s", median(setup_s), "s"},
      {"capacity_sps", median(cap.window_rates), "1/s"},
      {"serve_p50_ms", quantile(lat_ms, 0.50), "ms"},
      {"norm_mlu_mean", mean(norm), "ratio"},
  };
  // The tail is reported but carries no bound: between runs on a shared
  // host it moves by more than the largest bound a metric may have.
  const double serve_p99_ms = windowed_p99(lat_ms);

  // Untraced serving-loop layer numbers (open-loop phase unless noted).
  double busy = 0.0;
  for (double s : open.service) busy += s;
  std::vector<double> queue_us;
  for (double s : open.queue) queue_us.push_back(s * 1e6);
  std::vector<double> late_ms;
  for (double s : open.late) late_ms.push_back(s * 1e3);

  const double mlu_mean = mean(ref);
  const double severe_frac = static_cast<double>(severe) / kTest;
  Replay rp;
  double coverage = 0.0;
  if (cli.trace) {
    rp = replay(*in, w, masks, ref);
    coverage =
        median(rp.per_snapshot_s) / std::max(median(cap.service), 1e-12);
  }
  const auto us = [](const std::vector<double>& v, double q) {
    return quantile(v, q) * 1e6;
  };
  if (cli.trace) out.layer = {
      {"serve_p99_ms", serve_p99_ms, "ms"},
      {"mlu_mean", mlu_mean, "ratio"},
      {"severe_frac", severe_frac, "fraction"},
      {"net.paths_s", median(paths_s), "s"},
      {"traffic.trace_s", median(trace_s), "s"},
      {"te.figret.fit_s", median(fit_s), "s"},
      {"nn.forward_batch_ms", rp.forward_batch_s * 1e3, "ms"},
      {"nn.backward_batch_ms", rp.backward_batch_s * 1e3, "ms"},
      {"te.loss_ms", rp.loss_s * 1e3, "ms"},
      {"nn.adam_step_ms", rp.adam_s * 1e3, "ms"},
      {"te.figret.advise_us_p50", us(rp.advise_s, 0.50), "us"},
      {"te.figret.advise_us_p99", us(rp.advise_s, 0.99), "us"},
      {"nn.forward_us_p50", us(rp.forward_s, 0.50), "us"},
      {"te.wcmp.install_us_p50", us(rp.install_s, 0.50), "us"},
      {"te.mlu.score_us_p50", us(rp.score_s, 0.50), "us"},
      {"te.failover.reroute_us_p50", us(rp.reroute_s, 0.50), "us"},
      {"te.failover.mask_swap_ms", median(masks.install_s) * 1e3, "ms"},
      {"te.failover.mask_changes", static_cast<double>(masks.changes),
       "count"},
      {"lp.build_us_p50", us(nz.build_s, 0.50), "us"},
      {"lp.solve_us_p50", us(nz.solve_s, 0.50), "us"},
      {"lp.solve_us_p99", us(nz.solve_s, 0.99), "us"},
      {"lp.pivots_per_solve", nz.pivots, "count"},
      {"lp.dual_pivots_per_solve", nz.dual_pivots, "count"},
      {"lp.refactorizations_per_solve", nz.refactorizations, "count"},
      {"lp.warm_hit_frac", nz.warm_hit_frac, "fraction"},
      {"lp.cold_fallbacks", nz.cold_fallbacks, "count"},
      {"serving_loop.queue_us_p50", quantile(queue_us, 0.50), "us"},
      {"serving_loop.queue_us_p99", quantile(queue_us, 0.99), "us"},
      {"serving_loop.worker_busy_frac",
       busy / (kWorkers * std::max(open.seconds, 1e-9)), "fraction"},
      {"serving_loop.allocs_per_snapshot",
       static_cast<double>(cap.allocs) /
           static_cast<double>(std::max<std::uint64_t>(cap.served, 1)),
       "count"},
      {"generator.late_p99_ms", quantile(late_ms, 0.99), "ms"},
      {"trace.coverage_frac", coverage, "ratio"},
  };

  // Checks.
  const auto n_str = [](std::uint64_t a, std::uint64_t b) {
    return " (" + std::to_string(a) + "/" + std::to_string(b) + ")";
  };
  out.checks.push_back(
      {"every submitted snapshot served on the fresh rung with finite MLU" +
           std::string(w.oracle ? " and an optimal oracle" : "") +
           n_str(served - out.failed, out.attempted),
       served == out.attempted && out.failed == 0});
  out.checks.push_back({"offline normalizer optimal on every test snapshot" +
                            n_str(kTest - nz.failures, kTest),
                        nz.failures == 0});
  out.checks.push_back(
      {"no served MLU beats the omniscient optimum (normalized >= 1 - 1e-6)" +
           n_str(kTest - below_optimum, kTest),
       below_optimum == 0});
  if (w.oracle) {
    const std::uint64_t bad = warm.oracle_bad + cap.oracle_bad +
                              open.oracle_bad;
    out.checks.push_back(
        {"loop oracle agrees with the offline normalizer, normalized >= 1" +
             n_str(served - bad, served),
         bad == 0});
  }
  const std::uint64_t mism = cap.mismatched + open.mismatched;
  out.checks.push_back(
      {"per-index served MLU identical across warm-up, capacity and open-loop "
       "phases" +
           n_str(cap.served + open.served - mism, cap.served + open.served),
       mism == 0});
  if (!w.oracle && !w.failover)
    out.checks.push_back(
        {"zero steady-state allocations in the capacity phase (" +
             std::to_string(cap.allocs) + ")",
         cap.allocs == 0});
  if (cli.trace) {
    out.checks.push_back(
        {"traced replay reproduces the loop's per-index MLU" +
             n_str(kTest - rp.mismatched, kTest),
         rp.mismatched == 0});
    out.checks.push_back(
        {"trace coverage (replayed stage sum / closed-loop service, "
         "medians) in [0.85, 1.15]: " + fmt(coverage, 4),
         coverage >= 0.85 && coverage <= 1.15, false});
  }

  os << "sizes: nodes=" << in->ps.num_nodes() << " pairs=" << in->ps.num_pairs()
     << " paths=" << in->ps.num_paths() << " edges=" << in->ps.num_edges()
     << " params=" << in->trained->model().num_parameters() << "\n"
     << "phases: warm-up " << warm.served << " in " << fmt(warm.seconds, 4)
     << " s; capacity " << cap.served << " in " << fmt(cap.seconds, 4)
     << " s; open loop " << open.served << " in " << fmt(open.seconds, 4)
     << " s (latency samples " << lat_ms.size() << " in "
     << std::max<std::size_t>(1, lat_ms.size() / kP99Samples)
     << " p99 windows, mask swaps "
     << warm.mask_swaps + cap.mask_swaps + open.mask_swaps << ")\n";
  print_metrics(os, "end-to-end metrics:", out.e2e);
  if (cli.trace)
    print_metrics(os, "per-layer metrics:", out.layer);
  else
    os << "ungated: serve_p99_ms " << fmt(serve_p99_ms) << ", mlu_mean "
       << fmt(mlu_mean) << ", severe_frac " << fmt(severe_frac)
       << " (all per-layer metrics need --trace 1)\n";
  os << "checks:\n";
  for (const Check& c : out.checks)
    os << "  " << (c.pass ? "PASS" : c.gate ? "FAIL" : "WARN") << "  "
       << c.what << "\n";

  util::Json e2e = util::Json::object(), layer = util::Json::object();
  add_metrics(e2e, out.e2e);
  add_metrics(layer, out.layer);
  util::Json checks = util::Json::array();
  for (const Check& c : out.checks)
    checks.push(util::Json::object()
                    .set("check", c.what)
                    .set("pass", c.pass)
                    .set("gate", c.gate));
  out.record.set("workload", w.name)
      .set("seed", static_cast<std::int64_t>(cli.seed))
      .set("trace", cli.trace)
      .set("quick", cli.quick)
      .set("open_loop_rate", w.rate)
      .set("oracle", w.oracle)
      .set("failover", w.failover)
      .set("epochs", static_cast<std::int64_t>(in->fopt.epochs))
      .set("nodes", static_cast<std::int64_t>(in->ps.num_nodes()))
      .set("paths", static_cast<std::int64_t>(in->ps.num_paths()))
      .set("setup_reps", static_cast<std::int64_t>(reps))
      .set("phase_seconds", util::Json::object()
                                .set("warm_up", warm.seconds)
                                .set("capacity", cap.seconds)
                                .set("open_loop", open.seconds))
      .set("latency_samples", static_cast<std::int64_t>(lat_ms.size()))
      .set("serve_p99_ms", serve_p99_ms)
      .set("attempted", static_cast<std::int64_t>(out.attempted))
      .set("failed", static_cast<std::int64_t>(out.failed))
      .set("end_to_end", std::move(e2e))
      .set("per_layer", std::move(layer))
      .set("checks", std::move(checks));
  return out;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      cli.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      cli.workload = v;
    } else if (flag == "--seed") {
      cli.seed = std::stoull(v, &used);
    } else if (flag == "--seconds") {
      cli.seconds = std::stod(v, &used);
      if (!(cli.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      cli.trace = v == "1";
    } else if (flag == "--json") {
      cli.json = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if ((flag == "--seed" || flag == "--seconds") && used != v.size())
      throw std::invalid_argument("malformed value for " + flag + ": " + v);
  }
  if (cli.workload.empty())
    throw std::invalid_argument("--workload is required");
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli = parse_cli(argc, argv);
    std::vector<const Workload*> chosen;
    for (const Workload& w : kWorkloads)
      if (cli.workload == "all" || cli.workload == w.name) chosen.push_back(&w);
    if (chosen.empty())
      throw std::invalid_argument("unknown workload " + cli.workload);

    const Host host = probe_host();
    std::vector<Outcome> outcomes;
    for (const Workload* w : chosen) {
      outcomes.push_back(run_workload(*w, cli, host));
      std::cout << "\n";
    }

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    util::Json metrics = util::Json::object();
    util::Json records = util::Json::array();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      Outcome& o = outcomes[i];
      correct = correct && o.correct();
      attempted += o.attempted;
      failed += o.failed;
      add_metrics(metrics, cli.trace ? o.layer : o.e2e,
                  chosen.size() > 1 ? std::string(chosen[i]->name) + "." : "");
      records.push(std::move(o.record));
    }

    if (!cli.json.empty()) {
      util::Json doc = util::Json::object();
      doc.set("bench", "figret_e2e")
          .set("host", util::Json::object()
                           .set("nproc", static_cast<std::int64_t>(host.nproc))
                           .set("cpu", host.cpu)
                           .set("isa", host.isa)
                           .set("build_type", host.build_type)
                           .set("compiler", host.compiler)
                           .set("git_sha", host.git_sha)
                           .set("workers", static_cast<std::int64_t>(kWorkers))
                           .set("threads",
                                static_cast<std::int64_t>(kWorkers + 1)))
          .set("seed", static_cast<std::int64_t>(cli.seed))
          .set("seconds", cli.seconds)
          .set("workloads", std::move(records));
      doc.write_file(cli.json);
    }

    std::cout << (correct ? "all checks PASS" : "some checks FAIL") << "\n";
    util::Json last = util::Json::object();
    last.set("correct", correct)
        .set("attempted", static_cast<std::int64_t>(attempted))
        .set("failed", static_cast<std::int64_t>(failed))
        .set("metrics", std::move(metrics));
    std::cout << last.dump(0) << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "figret_e2e: " << e.what() << "\n";
    return 2;
  }
}
