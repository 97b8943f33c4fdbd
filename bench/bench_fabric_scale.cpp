// Fabric scale: hot-path kernel throughput swept from a WAN (GEANT) up to
// k-ary fat trees (k=8/16 by default, k=32 with FIGRET_BENCH_FULL=1).
//
// Four measurements per topology, all dimensionless where it matters so the
// committed reference JSON transfers across machines:
//   1. edge_loads snapshots/sec: the pre-optimization path-major kernel
//      (edge_loads_reference_into) vs the fused pair-major O(nnz) kernel
//      (edge_loads_into);
//   2. batched MLP forward rows/sec: Mlp::forward_batch (tiled/SIMD
//      matmul_t) vs the same layer loop over matmul_t_reference, on a
//      per-source-shard FIGRET-style model
//      (a full fat-tree-k16 output layer would be ~836 MB of weights — real
//      deployments shard the model per source pod, and so does the bench);
//   3. p50/p99 scoring latency (sparse demand -> MLU via the fused kernel);
//   4. single-row serving forward rows/sec: Mlp::forward_sparse (first layer
//      from the transposed weights, only active inputs) vs the dense
//      Mlp::forward on the same row at the trace's density — the
//      FigretScheme::advise_into path. The two outputs must be bit-identical.
//
// The PR's acceptance bar lives here: on fat-tree k=16 both the fused
// edge_loads kernel and the tiled batched forward must be >= 3x their
// pre-PR reference kernels. The binary exits non-zero when the bar is
// missed, when the sparse serving forward differs from the dense one by a
// single bit, and — when FIGRET_BENCH_REFERENCE points at a committed
// BENCH_fabric_scale.json — when a speedup falls below its floor, a
// fraction of the reference ratio set from the ratio's measured noise.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "linalg/matrix.h"
#include "net/fabric.h"
#include "nn/mlp.h"
#include "support/reference_kernels.h"
#include "te/mlu.h"
#include "te/pathset.h"
#include "traffic/demand.h"
#include "traffic/generators.h"
#include "util/json.h"
#include "util/latency.h"
#include "util/table.h"

namespace {

using namespace figret;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Timed loops fold a checksum in here so the optimizer cannot discard them.
double g_sink = 0.0;

struct Topo {
  std::string name;
  net::Graph graph;
  te::PathSet ps;
  std::vector<traffic::DemandMatrix> snaps;
  /// MLP width: pairs per per-source shard (all pairs on the WAN).
  std::size_t shard_pairs = 0;
  bool fabric = false;
};

Topo make_geant(std::size_t snapshots) {
  bench::Scenario sc = bench::make_scenario("GEANT");
  Topo t;
  t.name = "GEANT";
  t.graph = std::move(sc.graph);
  t.ps = std::move(sc.ps);
  const std::size_t keep = std::min(snapshots, sc.trace.size());
  t.snaps.assign(sc.trace.snapshots.end() - keep, sc.trace.snapshots.end());
  t.shard_pairs = t.ps.num_pairs();
  return t;
}

Topo make_fat_tree(std::size_t k, std::size_t snapshots, std::uint64_t seed) {
  const net::FatTree ft = net::fat_tree(k);
  Topo t;
  t.name = "fat-tree-k" + std::to_string(k);
  t.ps = te::PathSet::build(ft.graph, net::fat_tree_paths(ft, 4));
  t.graph = ft.graph;
  traffic::FabricOptions fopt;
  fopt.active_fraction = 0.01;
  t.snaps = traffic::fabric_trace(ft.graph.num_nodes(), snapshots, seed, fopt)
                .snapshots;
  t.shard_pairs = t.ps.num_pairs() / k;
  t.fabric = true;
  return t;
}

struct LoopStats {
  double seconds = 0.0;
  double best_pass = 0.0;  // fastest single pass observed
  std::size_t passes = 0;
};

// Repeats `body` (one full pass over the snapshot set) until both floors are
// met, so fast kernels get enough passes for a stable rate and slow ones are
// not re-run forever. Each pass is timed individually and the fastest kept:
// on a time-shared machine the *minimum* pass time is the robust estimate of
// kernel speed (any quiet scheduling window reveals it), while averages are
// poisoned by whatever else ran during the window.
template <typename F>
LoopStats run_passes(F&& body, double min_seconds, std::size_t min_passes) {
  LoopStats st;
  st.best_pass = std::numeric_limits<double>::infinity();
  const auto t0 = Clock::now();
  do {
    const auto p0 = Clock::now();
    body();
    st.best_pass = std::min(st.best_pass, seconds_since(p0));
    ++st.passes;
    st.seconds = seconds_since(t0);
  } while (st.passes < min_passes || st.seconds < min_seconds);
  return st;
}

struct EdgeLoadsResult {
  double ref_per_sec = 0.0;
  double fused_per_sec = 0.0;
  double score_p50_us = 0.0;
  double score_p99_us = 0.0;
};

// Measurement rounds alternate between the compared kernels and each takes
// its best (max) rate over best-pass times, so slow drift in machine load
// cancels out of the speedup ratios instead of landing on whichever kernel
// ran second.
constexpr int kRounds = 3;

EdgeLoadsResult measure_edge_loads(const Topo& t, double min_seconds) {
  EdgeLoadsResult r;
  const te::TeConfig cfg = te::uniform_config(t.ps);
  std::vector<double> out;
  const double round_seconds = min_seconds / kRounds;
  const auto rate = [&](const LoopStats& st) {
    return st.best_pass > 0.0
               ? static_cast<double>(t.snaps.size()) / st.best_pass
               : 0.0;
  };

  for (int round = 0; round < kRounds; ++round) {
    const LoopStats ref = run_passes(
        [&] {
          for (const auto& dm : t.snaps) {
            te::edge_loads_reference_into(t.ps, dm, cfg, out);
            g_sink += out.front() + out.back();
          }
        },
        round_seconds, 1);
    r.ref_per_sec = std::max(r.ref_per_sec, rate(ref));

    const LoopStats fused = run_passes(
        [&] {
          for (const auto& dm : t.snaps) {
            te::edge_loads_into(t.ps, dm, cfg, out);
            g_sink += out.front() + out.back();
          }
        },
        round_seconds, 1);
    r.fused_per_sec = std::max(r.fused_per_sec, rate(fused));
  }

  // Serving-style scoring latency: sparse demand -> MLU through the fused
  // kernel with reused scratch (the allocation-free hot path).
  util::LatencyHistogram hist;
  std::vector<double> edge_scratch;
  run_passes(
      [&] {
        for (const auto& dm : t.snaps) {
          const auto s0 = Clock::now();
          g_sink += te::mlu(t.ps, dm, cfg, edge_scratch);
          hist.record(seconds_since(s0));
        }
      },
      min_seconds, 2);
  r.score_p50_us = hist.percentile(50.0) * 1e6;
  r.score_p99_us = hist.percentile(99.0) * 1e6;
  return r;
}

struct MlpResult {
  std::size_t input = 0, output = 0, batch = 0;
  double ref_rows_per_sec = 0.0;
  double tiled_rows_per_sec = 0.0;
  double tiled_p50_ms = 0.0;
  double tiled_p99_ms = 0.0;
  std::size_t row_active = 0;
  double dense_row_per_sec = 0.0;
  double sparse_row_per_sec = 0.0;
  bool row_identical = false;
};

/// Mlp::forward_batch with every layer product on the pre-optimization
/// matmul_t_reference kernel: the same bias and activation loop, ReLU hidden
/// layers and a sigmoid head.
const linalg::Matrix& forward_batch_reference(const nn::Mlp& mlp,
                                              const linalg::Matrix& x,
                                              nn::MlpBatchWorkspace& ws) {
  const std::size_t layers = mlp.num_layers();
  ws.pre.resize(layers);
  ws.post.resize(layers);
  const linalg::Matrix* in = &x;
  for (std::size_t l = 0; l < layers; ++l) {
    ws.pre[l] = linalg::matmul_t_reference(*in, mlp.weights()[l]);
    linalg::Matrix& pre = ws.pre[l];
    const std::vector<double>& b = mlp.biases()[l];
    for (std::size_t row = 0; row < pre.rows(); ++row) {
      const std::span<double> v = pre.row(row);
      for (std::size_t i = 0; i < v.size(); ++i) v[i] += b[i];
    }
    linalg::Matrix& post = ws.post[l];
    if (post.rows() != pre.rows() || post.cols() != pre.cols())
      post = linalg::Matrix(pre.rows(), pre.cols());
    const std::span<const double> src = pre.flat();
    const std::span<double> dst = post.flat();
    if (l + 1 < layers) {
      for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = src[i] > 0.0 ? src[i] : 0.0;  // ReLU
    } else {
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = nn::sigmoid(src[i]);
    }
    in = &post;
  }
  return ws.post.back();
}

MlpResult measure_mlp(const Topo& t, double min_seconds) {
  MlpResult r;
  constexpr std::size_t kHistory = 4;
  constexpr std::size_t kBatch = 8;
  r.batch = kBatch;
  r.input = kHistory * t.shard_pairs;
  // Output = split ratios for the shard's candidate paths (pair ids are
  // contiguous, so a per-source shard is a prefix of the pair space).
  r.output = 0;
  for (std::size_t pr = 0; pr < t.shard_pairs; ++pr)
    r.output += t.ps.pair_size(pr);

  // The sigmoid head (~170k std::exp calls per batch at k=16) is the same
  // scalar work for both forwards, so it lowers the speedup somewhat against
  // the committed reference, which was recorded with an identity head.
  nn::MlpConfig cfg;
  cfg.layer_sizes = {r.input, 128, 128, r.output};
  cfg.seed = 7;
  const nn::Mlp mlp(cfg);

  // Batch rows are real (sparse) demand windows scattered into dense input,
  // exactly like FigretScheme::build_input_into.
  linalg::Matrix x(kBatch, r.input);
  for (std::size_t b = 0; b < kBatch; ++b)
    for (std::size_t h = 0; h < kHistory; ++h) {
      const auto& dm = t.snaps[(b + h) % t.snaps.size()];
      dm.for_each_active([&](std::size_t pair, double v) {
        if (pair < t.shard_pairs) x(b, h * t.shard_pairs + pair) = v;
      });
    }

  nn::MlpBatchWorkspace ws;
  util::LatencyHistogram hist;
  const auto run_kernel = [&](bool tiled) {
    const LoopStats st = run_passes(
        [&] {
          const auto s0 = Clock::now();
          const linalg::Matrix& y = tiled
                                        ? mlp.forward_batch(x, ws)
                                        : forward_batch_reference(mlp, x, ws);
          if (tiled) hist.record(seconds_since(s0));
          g_sink += y(0, 0) + y(kBatch - 1, r.output - 1);
        },
        min_seconds / kRounds, 2);
    return st.best_pass > 0.0 ? static_cast<double>(kBatch) / st.best_pass
                              : 0.0;
  };
  for (int round = 0; round < kRounds; ++round) {
    r.tiled_rows_per_sec = std::max(r.tiled_rows_per_sec, run_kernel(true));
    r.ref_rows_per_sec = std::max(r.ref_rows_per_sec, run_kernel(false));
  }
  r.tiled_p50_ms = hist.percentile(50.0) * 1e3;
  r.tiled_p99_ms = hist.percentile(99.0) * 1e3;

  // Serving forward: batch row 0 alone, dense vs its active (index, value)
  // list through the transposed first layer.
  const std::span<const double> row = x.row(0);
  std::vector<std::size_t> index;
  std::vector<double> value;
  for (std::size_t k = 0; k < row.size(); ++k)
    if (row[k] != 0.0) {
      index.push_back(k);
      value.push_back(row[k]);
    }
  r.row_active = index.size();
  const linalg::Matrix w0_t = mlp.weights().front().transposed();
  const linalg::SparseRow sparse_row{index, value};
  const std::span<const linalg::SparseRow> sparse_batch(&sparse_row, 1);
  nn::MlpWorkspace dense_ws;
  nn::MlpBatchWorkspace sparse_ws;
  const auto dense_y = mlp.forward(row, dense_ws);
  const auto sparse_y =
      mlp.forward_sparse(sparse_batch, w0_t, sparse_ws).row(0);
  r.row_identical = std::memcmp(dense_y.data(), sparse_y.data(),
                                dense_y.size() * sizeof(double)) == 0;
  const auto run_row = [&](bool sparse) {
    const LoopStats st = run_passes(
        [&] {
          const auto y =
              sparse ? mlp.forward_sparse(sparse_batch, w0_t, sparse_ws).row(0)
                     : mlp.forward(row, dense_ws);
          g_sink += y.front() + y.back();
        },
        min_seconds / kRounds, 4);
    return st.best_pass > 0.0 ? 1.0 / st.best_pass : 0.0;
  };
  for (int round = 0; round < kRounds; ++round) {
    r.dense_row_per_sec = std::max(r.dense_row_per_sec, run_row(false));
    r.sparse_row_per_sec = std::max(r.sparse_row_per_sec, run_row(true));
  }
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


}  // namespace

int main() {
  bench::print_header(
      std::cout, "Fabric scale — hot-path kernels from GEANT to fat trees",
      "fused O(nnz) edge_loads and tiled batched MLP forward are each >= 3x "
      "the pre-optimization kernels at fat-tree k=16; the sparse-input "
      "serving forward is bit-identical to the dense one",
      "per-source-shard MLP (full k=16 model would be ~836 MB); k=32 behind "
      "FIGRET_BENCH_FULL=1");

  const bool full = bench::full_mode();
  const double min_seconds = full ? 0.9 : 0.45;
  std::vector<Topo> topos;
  topos.push_back(make_geant(full ? 64 : 32));
  topos.push_back(make_fat_tree(8, full ? 64 : 32, 21));
  topos.push_back(make_fat_tree(16, full ? 48 : 24, 22));
  if (full) topos.push_back(make_fat_tree(32, 12, 23));

  util::Json jout = util::Json::object();
  jout.set("bench", "fabric_scale").set("full_mode", full);
  util::Json jtopos = util::Json::array();

  util::Table lt({"topology", "pairs", "paths", "nnz/snap", "ref snap/s",
                  "fused snap/s", "fused x",
                  "score p99 (us)"});
  util::Table mt({"topology", "mlp in", "mlp out", "ref rows/s",
                  "tiled rows/s", "tiled x", "fwd p99 (ms)"});
  util::Table st({"topology", "active", "dense rows/s", "sparse rows/s",
                  "sparse x", "bit-identical"});

  int rc = 0;
  struct Gate {
    std::string topo;
    double edge_speedup = 0.0, mlp_speedup = 0.0, serving_speedup = 0.0;
  };
  std::vector<Gate> gates;

  for (const Topo& t : topos) {
    double nnz = 0.0;
    for (const auto& dm : t.snaps) nnz += static_cast<double>(dm.nnz());
    nnz /= static_cast<double>(t.snaps.size());

    const EdgeLoadsResult el = measure_edge_loads(t, min_seconds);
    const MlpResult ml = measure_mlp(t, min_seconds);
    const double fused_x = ratio(el.fused_per_sec, el.ref_per_sec);
    const double mlp_x = ratio(ml.tiled_rows_per_sec, ml.ref_rows_per_sec);
    const double serving_x =
        ratio(ml.sparse_row_per_sec, ml.dense_row_per_sec);
    if (!ml.row_identical) {
      std::cout << "ERROR: " << t.name
                << " sparse serving forward differs from the dense forward\n";
      rc = 1;
    }

    lt.add_row({t.name, std::to_string(t.ps.num_pairs()),
                std::to_string(t.ps.num_paths()), util::fmt(nnz, 0),
                util::fmt(el.ref_per_sec, 1), util::fmt(el.fused_per_sec, 1),
                util::fmt(fused_x, 2), util::fmt(el.score_p99_us, 1)});
    mt.add_row({t.name, std::to_string(ml.input), std::to_string(ml.output),
                util::fmt(ml.ref_rows_per_sec, 1),
                util::fmt(ml.tiled_rows_per_sec, 1), util::fmt(mlp_x, 2),
                util::fmt(ml.tiled_p99_ms, 3)});
    st.add_row({t.name, std::to_string(ml.row_active),
                util::fmt(ml.dense_row_per_sec, 1),
                util::fmt(ml.sparse_row_per_sec, 1), util::fmt(serving_x, 2),
                ml.row_identical ? "yes" : "NO"});

    jtopos.push(
        util::Json::object()
            .set("name", t.name)
            .set("nodes", t.graph.num_nodes())
            .set("arcs", t.graph.num_edges())
            .set("pairs", t.ps.num_pairs())
            .set("paths", t.ps.num_paths())
            .set("snapshots", t.snaps.size())
            .set("mean_nnz", nnz)
            .set("edge_loads_reference_snapshots_per_sec", el.ref_per_sec)
            .set("edge_loads_fused_snapshots_per_sec", el.fused_per_sec)
            .set("edge_loads_speedup", fused_x)
            .set("score_p50_us", el.score_p50_us)
            .set("score_p99_us", el.score_p99_us)
            .set("mlp_input", ml.input)
            .set("mlp_output", ml.output)
            .set("mlp_batch", ml.batch)
            .set("mlp_reference_rows_per_sec", ml.ref_rows_per_sec)
            .set("mlp_tiled_rows_per_sec", ml.tiled_rows_per_sec)
            .set("mlp_speedup", mlp_x)
            .set("mlp_forward_p50_ms", ml.tiled_p50_ms)
            .set("mlp_forward_p99_ms", ml.tiled_p99_ms)
            .set("serving_forward_active", ml.row_active)
            .set("serving_forward_dense_rows_per_sec", ml.dense_row_per_sec)
            .set("serving_forward_sparse_rows_per_sec", ml.sparse_row_per_sec)
            .set("serving_forward_speedup", serving_x));
    if (t.fabric) gates.push_back({t.name, fused_x, mlp_x, serving_x});
  }

  std::cout << "\nedge_loads kernels (snapshots/sec; speedups vs the "
               "pre-optimization path-major kernel):\n";
  lt.print(std::cout);
  std::cout << "\nbatched MLP forward (rows/sec; tiled vs matmul_t_reference "
               "on the same weights and inputs):\n";
  mt.print(std::cout);
  std::cout << "\nsingle-row serving forward (rows/sec; Mlp::forward_sparse "
               "vs Mlp::forward on batch row 0):\n";
  st.print(std::cout);

  jout.set("topologies", std::move(jtopos));
  jout.write_file("BENCH_fabric_scale.json", 2);
  std::cout << "\nmachine-readable results: BENCH_fabric_scale.json\n";

  // Acceptance bar: >= 3x on both hot paths at fat-tree k=16 (and any larger
  // fabric that ran).
  for (const Gate& g : gates) {
    if (g.topo == "fat-tree-k8") continue;  // warm-up scale, report only
    const bool edge_ok = g.edge_speedup >= 3.0;
    const bool mlp_ok = g.mlp_speedup >= 3.0;
    std::cout << "check: " << g.topo << " fused edge_loads >= 3x: "
              << (edge_ok ? "yes" : "NO") << " ("
              << util::fmt(g.edge_speedup, 2) << "x)\n";
    std::cout << "check: " << g.topo << " tiled MLP forward >= 3x: "
              << (mlp_ok ? "yes" : "NO") << " (" << util::fmt(g.mlp_speedup, 2)
              << "x)\n";
    if (!edge_ok || !mlp_ok) rc = 1;
  }

  // CI regression smoke: speedup *ratios* are machine-independent, so the
  // gate compares against the committed reference and fails when a ratio
  // falls below its floor, a fraction of the reference value.
  if (const auto ref = bench::read_reference(rc)) {
    for (const Gate& g : gates) {
      // serving_forward_speedup: six Release runs on a 4-core Xeon
      // spread to 0.80 (k=8) and 0.90 (k=16) of their median; a floor of
      // 0.5 still fails any ratio near 1, i.e. a sparse forward that has
      // stopped skipping the zero inputs.
      const struct {
        const char* key;
        double cur, floor;
      } checks[] = {{"edge_loads_speedup", g.edge_speedup, 0.4},
                    {"mlp_speedup", g.mlp_speedup, 0.4},
                    {"serving_forward_speedup", g.serving_speedup, 0.5}};
      for (const auto& [key, cur, floor] : checks) {
        const std::string token = bench::reference_token(
            *ref, {"\"name\": \"" + g.topo + "\""}, key);
        if (token.empty()) {
          std::cout << "reference check " << g.topo << " " << key
                    << ": not in reference — skipped\n";
          continue;
        }
        const double want = std::strtod(token.c_str(), nullptr);
        if (cur < floor * want) {
          std::cout << "ERROR: " << g.topo << " " << key << " regressed: "
                    << util::fmt(cur, 2) << "x vs reference "
                    << util::fmt(want, 2) << "x\n";
          rc = 1;
        } else {
          std::cout << "reference check " << g.topo << " " << key << ": "
                    << util::fmt(cur, 2) << "x vs reference "
                    << util::fmt(want, 2) << "x — ok\n";
        }
      }
    }
  }
  if (g_sink == 12345.6789) std::cout << "";  // keep the sink observable
  return rc;
}
