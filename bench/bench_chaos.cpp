// Chaos soak — fault intensity x worker count over the serving loop.
//
// Each cell runs the seed-driven chaos schedule (failure bursts with
// exponential repair, oracle deadline overruns, worker stalls, ring
// backpressure storms, NaN/Inf/negative outputs, corrupted demand) against
// the graceful-degradation ladder and reports rung occupancy, recovery
// time, dropped demand, and the cross-worker determinism hash.
//
// The gates are exact, not statistical: for a fixed seed every rung count,
// the degraded-epoch total, the max recovery streak, and the determinism
// hash are integers fully determined by the schedule and the (pure,
// analytic) advisor — identical across worker counts and across machines.
// When FIGRET_BENCH_REFERENCE points at a committed BENCH_chaos.json the
// run must reproduce the reference values bit-for-bit; any drift means the
// schedule, the ladder, or the reroute path changed semantics.
#include <array>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/chaos.h"
#include "te/serving_loop.h"
#include "traffic/generators.h"
#include "util/json.h"
#include "util/table.h"

namespace {

using namespace figret;

/// Pure advisor: output depends only on the history slice. The determinism
/// gates require this — LP-backed schemes chain per-worker warm state and
/// legitimately diverge across worker counts (documented in te/chaos.h).
class FixedAdvisor final : public te::TeScheme {
 public:
  explicit FixedAdvisor(te::TeConfig cfg) : cfg_(std::move(cfg)) {}
  std::string name() const override { return "Fixed"; }
  void fit(const traffic::TrafficTrace&) override {}
  te::TeConfig advise(std::span<const traffic::DemandMatrix>) override {
    return cfg_;
  }
  std::size_t history_window() const override { return 2; }

 private:
  te::TeConfig cfg_;
};

te::TeConfig skewed_config(const te::PathSet& ps) {
  te::TeConfig raw(ps.num_paths(), 0.0);
  for (std::size_t p = 0; p < ps.num_paths(); ++p)
    raw[p] = 1.0 + static_cast<double>(p % 5);
  return te::normalize_config(ps, raw);
}

struct CellResult {
  std::string intensity;
  std::size_t workers = 0;
  te::ChaosRunReport rep;
  std::uint64_t scheduled_degraded_bound = 0;
};

/// Longest scheduled streak of (masked || corrupted-output) epochs — the
/// recovery bound the ladder must never exceed.
std::uint64_t scheduled_bound(const te::ChaosEngine& chaos) {
  std::uint64_t bound = 0, streak = 0;
  for (std::uint32_t t = chaos.begin(); t < chaos.end(); ++t) {
    const te::EpochPlan& p = chaos.plan(t);
    if (p.mask_id != 0 || p.corruption != te::Corruption::kNone) {
      ++streak;
      bound = std::max(bound, streak);
    } else {
      streak = 0;
    }
  }
  return bound;
}

}  // namespace

int main() {
  bench::print_header(
      std::cout, "Chaos soak — fault intensity x worker count",
      "under structured fault schedules the serving loop never crashes or "
      "deadlocks, serves finite weights every epoch, recovers within the "
      "scheduled degradation bound, and is bit-reproducible across worker "
      "counts for a fixed seed",
      "6-node mesh, analytic advisor (pure; LP-backed schemes carry warm "
      "state and are exempt from the cross-worker hash gate)");

  const net::Graph g = net::full_mesh(6);
  const te::PathSet ps = te::PathSet::build(g, net::all_pairs_k_shortest(g, 3));
  const traffic::TrafficTrace trace = traffic::dc_tor_trace(6, 360, 97);
  const std::uint32_t begin = 10;
  const auto end = static_cast<std::uint32_t>(trace.size());

  const std::vector<std::string> intensities{"0.1", "0.3", "0.6"};
  const std::vector<std::size_t> worker_counts{1, 2, 4};

  int rc = 0;
  std::vector<CellResult> cells;
  for (const std::string& tag : intensities) {
    const te::ChaosOptions copt =
        te::parse_chaos_spec("seed=42,intensity=" + tag);
    const te::ChaosEngine chaos(ps, net::node_domains(g), copt, begin, end);
    const std::uint64_t bound = scheduled_bound(chaos);
    for (const std::size_t workers : worker_counts) {
      te::ServingLoop::Options opt;
      opt.workers = workers;
      opt.oracle = true;
      opt.solver.simplex.time_limit_seconds = 0.05;
      opt.oracle_backoff_seconds = 0.00002;
      opt.chaos = &chaos;
      te::ServingLoop loop(ps, trace, opt);
      std::vector<std::unique_ptr<FixedAdvisor>> advisors;
      std::vector<te::TeScheme*> ptrs;
      for (std::size_t i = 0; i < workers; ++i) {
        advisors.push_back(std::make_unique<FixedAdvisor>(skewed_config(ps)));
        ptrs.push_back(advisors.back().get());
      }
      CellResult cell;
      cell.intensity = tag;
      cell.workers = workers;
      cell.rep = te::run_chaos_serving(loop, chaos, ptrs);
      cell.scheduled_degraded_bound = bound;
      cells.push_back(std::move(cell));
    }
  }

  util::Table t({"intensity", "workers", "served", "fresh", "last-good",
                 "uniform", "degraded", "max recovery", "bound", "retries",
                 "dropped demand", "hash"});
  for (const CellResult& c : cells)
    t.add_row({c.intensity, std::to_string(c.workers),
               std::to_string(c.rep.served), std::to_string(c.rep.rungs[0]),
               std::to_string(c.rep.rungs[1]), std::to_string(c.rep.rungs[2]),
               std::to_string(c.rep.degraded_epochs),
               std::to_string(c.rep.max_recovery_epochs),
               std::to_string(c.scheduled_degraded_bound),
               std::to_string(c.rep.stats[te::Counter::kOracleRetries]),
               util::fmt(c.rep.dropped_demand_total, 2),
               std::to_string(c.rep.determinism_hash)});
  t.print(std::cout);
  std::cout << "\n";

  // Gate 1: every cell served the full range with finite weights.
  for (const CellResult& c : cells) {
    if (c.rep.served != static_cast<std::uint64_t>(end - begin) ||
        !c.rep.all_finite) {
      std::cout << "ERROR: intensity " << c.intensity << " workers "
                << c.workers << ": served " << c.rep.served << "/"
                << end - begin << ", all_finite "
                << (c.rep.all_finite ? "yes" : "NO") << "\n";
      rc = 1;
    }
  }
  // Gate 2: recovery never exceeds the scheduled degradation bound.
  for (const CellResult& c : cells) {
    if (c.rep.max_recovery_epochs > c.scheduled_degraded_bound) {
      std::cout << "ERROR: intensity " << c.intensity << " workers "
                << c.workers << ": recovery " << c.rep.max_recovery_epochs
                << " epochs exceeds scheduled bound "
                << c.scheduled_degraded_bound << "\n";
      rc = 1;
    }
  }
  // Gate 3: bit-reproducibility across worker counts per intensity.
  for (const std::string& tag : intensities) {
    const CellResult* first = nullptr;
    for (const CellResult& c : cells) {
      if (c.intensity != tag) continue;
      if (first == nullptr) {
        first = &c;
        continue;
      }
      if (c.rep.determinism_hash != first->rep.determinism_hash ||
          c.rep.rungs != first->rep.rungs) {
        std::cout << "ERROR: intensity " << tag << ": workers " << c.workers
                  << " diverged from workers " << first->workers
                  << " (hash " << c.rep.determinism_hash << " vs "
                  << first->rep.determinism_hash << ")\n";
        rc = 1;
      }
    }
  }
  std::cout << "soak gates (full service, finite weights, bounded recovery, "
            << "cross-worker hash): " << (rc == 0 ? "PASS" : "FAIL") << "\n";

  // Gate 4: exact reproduction of the committed reference.
  if (const auto ref = bench::read_reference(rc)) {
    for (const CellResult& c : cells) {
      if (c.workers != 1) continue;  // gate 3 already ties the others
      const std::array<std::pair<const char*, std::string>, 5> checks{{
          {"rung_fresh", std::to_string(c.rep.rungs[0])},
          {"rung_last_good", std::to_string(c.rep.rungs[1])},
          {"rung_uniform", std::to_string(c.rep.rungs[2])},
          {"degraded_epochs", std::to_string(c.rep.degraded_epochs)},
          {"determinism_hash", std::to_string(c.rep.determinism_hash)},
      }};
      for (const auto& [key, cur] : checks) {
        const std::string want = bench::reference_token(
            *ref, {"\"intensity\": \"" + c.intensity + "\""}, key);
        if (want.empty()) {
          std::cout << "reference check i=" << c.intensity << " " << key
                    << ": not in reference — skipped\n";
          continue;
        }
        if (want != cur) {
          std::cout << "ERROR: i=" << c.intensity << " " << key
                    << " drifted: " << cur << " vs reference " << want
                    << "\n";
          rc = 1;
        } else {
          std::cout << "reference check i=" << c.intensity << " " << key
                    << ": " << cur << " — ok\n";
        }
      }
    }
  }

  util::Json j = util::Json::object();
  j.set("bench", "chaos")
      .set("seed", static_cast<std::int64_t>(42))
      .set("nodes", static_cast<std::int64_t>(ps.num_nodes()))
      .set("paths", static_cast<std::int64_t>(ps.num_paths()))
      .set("epochs", static_cast<std::int64_t>(end - begin))
      .set("pass", rc == 0);
  util::Json arr = util::Json::array();
  for (const CellResult& c : cells) {
    util::Json o = util::Json::object();
    o.set("intensity", c.intensity)
        .set("workers", static_cast<std::int64_t>(c.workers))
        .set("served", static_cast<std::int64_t>(c.rep.served))
        .set("rung_fresh", static_cast<std::int64_t>(c.rep.rungs[0]))
        .set("rung_last_good", static_cast<std::int64_t>(c.rep.rungs[1]))
        .set("rung_uniform", static_cast<std::int64_t>(c.rep.rungs[2]))
        .set("degraded_epochs",
             static_cast<std::int64_t>(c.rep.degraded_epochs))
        .set("max_recovery_epochs",
             static_cast<std::int64_t>(c.rep.max_recovery_epochs))
        .set("scheduled_degraded_bound",
             static_cast<std::int64_t>(c.scheduled_degraded_bound))
        .set("mlu_healthy_mean", c.rep.mlu_healthy_mean)
        .set("mlu_degraded_mean", c.rep.mlu_degraded_mean)
        .set("dropped_demand_total", c.rep.dropped_demand_total)
        // Hash as a string: 64-bit values do not survive double-typed JSON.
        .set("determinism_hash", std::to_string(c.rep.determinism_hash))
        .set("all_finite", c.rep.all_finite)
        // Last, and sharing no key with the gated fields above:
        // bench::reference_token takes the first match after the intensity
        // tag.
        .set("stats", c.rep.stats.to_json());
    arr.push(std::move(o));
  }
  j.set("cells", std::move(arr));
  j.write_file("BENCH_chaos.json", 2);
  std::cout << "machine-readable results: BENCH_chaos.json\n";
  return rc;
}
