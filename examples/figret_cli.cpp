// figret_cli — run any TE scheme on any built-in scenario from the command
// line; the embedding surface a network operator would script against.
//
//   figret_cli --topology geant --traffic wan --scheme figret
//              --epochs 20 --robust-weight 4 --save model.bin
//   figret_cli --topology mesh --nodes 8 --traffic tor --scheme des
//   figret_cli serve --topology geant --scheme pred --rate 500 --workers 4
//   figret_cli --list
//
// Schemes: figret, dote, teal, des, pred, heuristic, twostage, oblivious,
// cope. Topologies: geant, mesh, tor (random regular), wan (sparse).
// Traffic: wan, gravity, tor, pod, pfabric, plus the adversarial/jitter
// scenario suite: jitter, onoff, competitor, mixed, adversarial (a regret-
// maximizing attack sequence tiled over the test split).
//
// The `serve` subcommand replays the test split of the trace through the
// streaming serving loop (paced arrivals, worker pipeline, SLO accounting)
// instead of the batch evaluation harness.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "net/fabric.h"
#include "net/racke_paths.h"
#include "net/topology.h"
#include "net/yen.h"
#include "te/chaos.h"
#include "te/figret.h"
#include "te/harness.h"
#include "te/lp_schemes.h"
#include "te/oblivious.h"
#include "te/retrain_monitor.h"
#include "te/serving_loop.h"
#include "traffic/adversary.h"
#include "traffic/feed.h"
#include "traffic/generators.h"
#include "traffic/scenarios.h"
#include "util/args.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/table.h"

namespace {

using namespace figret;

void print_usage(std::ostream& os) {
  os <<
      "figret_cli — FIGRET traffic engineering playground\n\n"
      "  --topology  geant | mesh | tor | wan      (default geant)\n"
      "  --nodes     N (mesh/tor/wan sizes)        (default 8/16/30)\n"
      "  --traffic   wan | gravity | tor | pod | pfabric |\n"
      "              jitter | onoff | competitor | mixed | adversarial\n"
      "                                            (default matches topology)\n"
      "  --snapshots T                             (default 240)\n"
      "  --scheme    figret | dote | teal | des | pred | heuristic |\n"
      "              twostage | oblivious | cope   (default figret)\n"
      "  --epochs    N    --history H    --robust-weight W\n"
      "              (figret/dote; teal takes --epochs and always reads one\n"
      "              snapshot, ignoring --history and --robust-weight)\n"
      "  --racke     use Racke-style (SMORE) path selection\n"
      "  --stride    evaluate every k-th test snapshot (default 2)\n"
      "  --seed      trace seed (default 42)\n"
      "  --threads   evaluation threads (0 = all cores, 1 = serial; default 0)\n"
      "  --budget    LP time budget in seconds (oblivious/cope; default 60)\n"
      "  --save      path to write the trained figret/dote/teal checkpoint\n"
      "  --list      print available scenarios and exit\n"
      "\n"
      "serve — stream the test split through the serving loop:\n"
      "  figret_cli serve [shared flags above] ...\n"
      "  --rate      offered snapshots per second (0 = as fast as accepted)\n"
      "  --burst     snapshots per arrival burst       (default 1)\n"
      "  --jitter    pacing jitter fraction in [0, 1)  (default 0)\n"
      "  --workers   serving workers (0 = all cores)   (default 2)\n"
      "  --slo-ms    serve-latency SLO in ms (0 = off) (default 0)\n"
      "  --ring      snapshot ring capacity            (default 256)\n"
      "  --table     WCMP table size per pair          (default 16)\n"
      "  --oracle    per-snapshot omniscient LP normalizer\n"
      "  --drop      drop snapshots on backpressure instead of retrying\n"
      "  --monitor   run the retraining drift monitor on the stream\n"
      "  --json      path to write serve stats as JSON\n"
      "  --solver-deadline-ms  wall-clock budget per oracle resolve (0 = off)\n"
      "  --fallback  last-good | uniform | none      (default last-good)\n"
      "              ladder for rejected advisor outputs: none disables\n"
      "              output validation entirely\n"
      "  --chaos     seed-driven fault schedule, e.g.\n"
      "              --chaos intensity=0.2  or\n"
      "              --chaos seed=7,fail=0.1,repair=4,overrun=0.2,corrupt=0.1\n"
      "              (keys: seed fail repair maxrepair maxfail overrun stall\n"
      "              stallms corrupt demand burst intensity). Replaces the\n"
      "              paced feed with a deterministic chaos soak and prints a\n"
      "              recovery report.\n";
}

/// Thrown for malformed invocations (unknown flag/subcommand, bad value):
/// main prints usage and exits 2, distinct from runtime failures (exit 1).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

bool is_serve(const util::Args& args) {
  return !args.positional().empty() && args.positional().front() == "serve";
}

void validate(const util::Args& args) {
  try {
    if (is_serve(args)) {
      args.expect_only({"topology", "nodes", "traffic", "snapshots", "scheme",
                        "epochs", "history", "robust-weight", "racke", "seed",
                        "rate", "burst", "jitter", "workers", "slo-ms", "ring",
                        "table", "oracle", "drop", "monitor", "json",
                        "solver-deadline-ms", "fallback", "chaos", "help"});
    } else {
      args.expect_only({"topology", "nodes", "traffic", "snapshots", "scheme",
                        "epochs", "history", "robust-weight", "racke",
                        "stride", "seed", "threads", "budget", "save", "list",
                        "help"});
    }
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  const std::string scheme = args.get_or("scheme", "figret");
  if (!is_serve(args) && args.get("save") && scheme != "figret" &&
      scheme != "dote" && scheme != "teal")
    throw UsageError("--save writes a figret, dote or teal checkpoint; "
                     "scheme '" + scheme + "' has none");
  if (args.positional().size() > (is_serve(args) ? 1u : 0u))
    throw UsageError("unknown subcommand '" +
                     args.positional()[is_serve(args) ? 1 : 0] +
                     "' (figret_cli takes --flags, plus the optional "
                     "'serve' subcommand)");
}

/// Flag readers that turn malformed values into usage errors (exit 2), and
/// reject negatives for count-valued flags before the size_t cast can wrap.
std::size_t flag_size(const util::Args& args, const std::string& key,
                      long fallback) {
  long v = fallback;
  try {
    v = args.get_int(key, fallback);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  if (v < 0)
    throw UsageError("flag --" + key + " must be >= 0, got " +
                     std::to_string(v));
  return static_cast<std::size_t>(v);
}

double flag_double(const util::Args& args, const std::string& key,
                   double fallback) {
  try {
    return args.get_double(key, fallback);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

bool flag_bool(const util::Args& args, const std::string& key) {
  try {
    return args.get_bool(key);
  } catch (const std::invalid_argument& e) {
    // E.g. "--racke extra": the stray token was consumed as the switch's
    // value; running without the switch would silently change the result.
    throw UsageError(e.what());
  }
}

net::Graph make_graph(const util::Args& args) {
  const std::string topo = args.get_or("topology", "geant");
  if (topo == "geant") return net::geant();
  if (topo == "mesh")
    return net::full_mesh(flag_size(args, "nodes", 8));
  if (topo == "tor") {
    const std::size_t n = flag_size(args, "nodes", 16);
    return net::random_regular(n, std::max<std::size_t>(3, n / 4), 7);
  }
  if (topo == "wan") {
    const std::size_t n = flag_size(args, "nodes", 30);
    return net::sparse_wan(n, n + n / 4, 7);
  }
  throw UsageError("unknown --topology " + topo);
}

traffic::TrafficTrace make_traffic(const util::Args& args,
                                   const te::PathSet& paths) {
  const std::size_t nodes = paths.num_nodes();
  const std::string topo = args.get_or("topology", "geant");
  const std::string kind =
      args.get_or("traffic", topo == "geant" || topo == "wan" ? "wan" : "tor");
  const std::size_t len = flag_size(args, "snapshots", 240);
  const auto seed = static_cast<std::uint64_t>(flag_size(args, "seed", 42));
  if (kind == "wan") return traffic::wan_trace(nodes, len, seed);
  if (kind == "gravity") return traffic::gravity_trace(nodes, len, seed);
  if (kind == "tor") return traffic::dc_tor_trace(nodes, len, seed);
  if (kind == "pod") return traffic::dc_pod_trace(nodes, 4, len, seed);
  if (kind == "pfabric") return traffic::pfabric_trace(nodes, len, seed);
  if (kind == "jitter") return traffic::jitter_spike_trace(nodes, len, seed);
  if (kind == "onoff") return traffic::onoff_trace(nodes, len, seed);
  if (kind == "competitor")
    return traffic::competitor_trace(nodes, len, seed);
  if (kind == "mixed")
    return traffic::mixed_interactive_bulk_trace(nodes, len, seed);
  if (kind == "adversarial") {
    // A WAN base trace fills the training prefix and primes histories; the
    // regret adversary attacks a prediction-TE victim and its sequence is
    // tiled over the held-out last quarter (the 0.75 split both modes use).
    traffic::TrafficTrace trace = traffic::wan_trace(nodes, len, seed);
    const std::size_t cut = len * 3 / 4;
    te::DesensitizationTe victim = te::prediction_te(paths);
    const std::size_t window =
        std::max<std::size_t>(1, victim.history_window());
    if (cut < window || cut >= len)
      throw UsageError("--traffic adversarial needs more --snapshots");
    traffic::AdversaryOptions aopt;
    aopt.steps = 4;
    aopt.iterations = 24;
    aopt.oracle_seeds = 3;
    aopt.seed = seed;
    traffic::RegretAdversary adversary(paths, aopt);
    const std::span<const traffic::DemandMatrix> hist{
        trace.snapshots.data() + (cut - window), window};
    const traffic::AdversaryResult att = adversary.attack(victim, hist);
    for (std::size_t t = cut; t < len; ++t)
      trace.snapshots[t] = att.trace.snapshots[(t - cut) % att.trace.size()];
    return trace;
  }
  throw UsageError("unknown --traffic " + kind);
}

/// The learned schemes, FIGRET and its DOTE and TEAL-like configurations, as
/// (options, name) from the --scheme, --epochs, --history and
/// --robust-weight flags; nullopt for every other --scheme.
std::optional<std::pair<te::FigretOptions, std::string>> learned_scheme(
    const util::Args& args) {
  const std::string name = args.get_or("scheme", "figret");
  if (name != "figret" && name != "dote" && name != "teal")
    return std::nullopt;
  te::FigretOptions fopt;
  fopt.history = flag_size(args, "history", 8);
  fopt.epochs = flag_size(args, "epochs", 15);
  fopt.hidden = {128, 128, 128};
  fopt.robust_weight = flag_double(args, "robust-weight", 4.0);
  if (name == "dote") return std::pair{te::dote_options(fopt), "DOTE"};
  if (name == "teal") return std::pair{te::teal_options(fopt), "TEAL"};
  return std::pair{fopt, "FIGRET"};
}

/// One untrained advisor, for batch evaluation or a serving worker. The
/// learned schemes (train once, clone the checkpoint per worker) and the
/// static Oblivious/COPE configurations are handled by the callers.
std::unique_ptr<te::TeScheme> make_scheme(const std::string& name,
                                          const te::PathSet& paths) {
  if (name == "des") return std::make_unique<te::DesensitizationTe>(paths);
  if (name == "pred")
    return std::make_unique<te::DesensitizationTe>(te::prediction_te(paths));
  te::DesensitizationOptions rank_f;  // variance-rank F in [1/3, 2/3]
  rank_f.min_bound = 1.0 / 3.0;
  if (name == "heuristic")
    return std::make_unique<te::DesensitizationTe>(paths, rank_f, "HeurF");
  if (name == "twostage")
    return std::make_unique<te::DesensitizationTe>(
        paths, rank_f, "TwoStage(ewma)",
        std::make_unique<traffic::EwmaPredictor>(0.4));
  if (name == "oblivious" || name == "cope")
    throw UsageError("--scheme " + name +
                     " serves one static configuration — use batch mode");
  throw UsageError("unknown --scheme " + name);
}

/// The --json output path. util::Args stores a bare switch as "true", so a
/// valueless --json would otherwise write the stats to a file named "true".
std::optional<std::string> json_path(const util::Args& args) {
  const auto path = args.get("json");
  if (path && (path->empty() || *path == "true"))
    throw UsageError("flag --json needs a file path");
  return path;
}

int run_serve(const util::Args& args) {
  const std::optional<std::string> json = json_path(args);
  const net::Graph graph = make_graph(args);
  const auto per_pair = flag_bool(args, "racke")
                            ? net::racke_style_paths(graph, {})
                            : net::all_pairs_k_shortest(graph, 3);
  const te::PathSet paths = te::PathSet::build(graph, per_pair);
  const traffic::TrafficTrace trace = make_traffic(args, paths);

  std::size_t workers = flag_size(args, "workers", 2);
  if (workers == 0) workers = util::default_threads();

  // Validate ladder/chaos flags before any training happens, so a typo
  // fails in milliseconds, not after a fit.
  const std::string fallback = args.get_or("fallback", "last-good");
  if (fallback != "last-good" && fallback != "uniform" && fallback != "none")
    throw UsageError("unknown --fallback " + fallback +
                     " (last-good | uniform | none)");
  std::optional<te::ChaosOptions> chaos_opt;
  if (const auto spec = args.get("chaos")) {
    try {
      chaos_opt = te::parse_chaos_spec(*spec);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
  }

  // Advisors learn on the chronological training split; the stream replays
  // the held-out test split (the paper's Eq. 1 information model).
  const auto split = trace.split(0.75);
  const traffic::TrafficTrace& train = split.first;

  const std::string scheme_name = args.get_or("scheme", "figret");
  std::vector<std::unique_ptr<te::TeScheme>> schemes;
  if (const auto learned = learned_scheme(args)) {
    const auto& [fopt, name] = *learned;
    auto trained = std::make_unique<te::FigretScheme>(paths, fopt, name);
    trained->fit(train);
    // Train once, ship the checkpoint to every worker (§6: controllers load
    // models far more often than they train them).
    std::stringstream checkpoint;
    trained->save(checkpoint);
    schemes.push_back(std::move(trained));
    for (std::size_t i = 1; i < workers; ++i) {
      auto clone = std::make_unique<te::FigretScheme>(paths, fopt, name);
      std::stringstream is(checkpoint.str());
      clone->load(is);
      schemes.push_back(std::move(clone));
    }
  } else {
    for (std::size_t i = 0; i < workers; ++i) {
      schemes.push_back(make_scheme(scheme_name, paths));
      schemes.back()->fit(train);
    }
  }

  std::size_t window = 1;
  for (const auto& s : schemes)
    window = std::max(window, s->history_window());
  const std::size_t begin = std::max(train.size(), window);
  if (begin >= trace.size())
    throw std::invalid_argument(
        "serve: trace too short for the advisor history window");

  te::ServingLoop::Options lopt;
  lopt.workers = workers;
  lopt.queue_capacity = flag_size(args, "ring", 256);
  lopt.slo_seconds = flag_double(args, "slo-ms", 0.0) * 1e-3;
  lopt.oracle = flag_bool(args, "oracle");
  lopt.wcmp_table_size =
      static_cast<std::uint32_t>(flag_size(args, "table", 16));
  // A negative budget would mean "already expired" to the simplex; on the
  // command line it means no deadline, as 0 does.
  lopt.solver.simplex.time_limit_seconds =
      std::max(0.0, flag_double(args, "solver-deadline-ms", 0.0)) * 1e-3;
  if (fallback == "none") lopt.validate_outputs = false;
  if (fallback == "uniform") lopt.fallback_last_good = false;

  std::optional<te::ChaosEngine> chaos;
  if (chaos_opt) {
    chaos.emplace(paths, net::node_domains(graph), *chaos_opt,
                  static_cast<std::uint32_t>(begin),
                  static_cast<std::uint32_t>(trace.size()));
    lopt.chaos = &*chaos;
  }
  te::ServingLoop loop(paths, trace, lopt);

  std::vector<te::TeScheme*> advisors;
  for (const auto& s : schemes) advisors.push_back(s.get());

  if (chaos) {
    // Chaos soak: the engine's driver replaces the paced feed — every epoch
    // submitted exactly once, failure masks swapped at scheduled boundaries.
    const te::ChaosRunReport rep =
        te::run_chaos_serving(loop, *chaos, advisors);
    const auto& sum = chaos->summary();
    std::cout << "chaos serve: " << schemes.front()->name() << " on "
              << graph.num_nodes() << " nodes; epochs [" << begin << ", "
              << trace.size() << "), " << workers << " workers, seed "
              << chaos->options().seed << "\n"
              << "schedule: " << sum.failure_events << " failure events, "
              << sum.masked_epochs << " masked epochs, " << sum.overruns
              << " overruns, " << sum.corrupt_outputs << " corrupt outputs, "
              << sum.corrupt_demands << " corrupt demands, " << sum.stalls
              << " stalls, " << sum.bursts << " bursts\n"
              << "served " << rep.served << ": rungs fresh=" << rep.rungs[0]
              << " last-good=" << rep.rungs[1] << " uniform=" << rep.rungs[2]
              << "; degraded epochs " << rep.degraded_epochs
              << ", max recovery " << rep.max_recovery_epochs << " epochs\n"
              << "MLU mean: healthy " << rep.mlu_healthy_mean << ", degraded "
              << rep.mlu_degraded_mean << "; dropped demand "
              << rep.dropped_demand_total << "\n"
              << "determinism hash " << rep.determinism_hash
              << (rep.all_finite ? "; all weights finite\n"
                                 : "; NON-FINITE OUTPUT SERVED\n");
    loop.stats().print(std::cout);
    if (const auto& path = json) {
      util::Json j = util::Json::object();
      j.set("scheme", schemes.front()->name())
          .set("workers", static_cast<std::int64_t>(workers))
          .set("served", static_cast<std::int64_t>(rep.served))
          .set("rung_fresh", static_cast<std::int64_t>(rep.rungs[0]))
          .set("rung_last_good", static_cast<std::int64_t>(rep.rungs[1]))
          .set("rung_uniform", static_cast<std::int64_t>(rep.rungs[2]))
          .set("degraded_epochs",
               static_cast<std::int64_t>(rep.degraded_epochs))
          .set("max_recovery_epochs",
               static_cast<std::int64_t>(rep.max_recovery_epochs))
          .set("mlu_healthy_mean", rep.mlu_healthy_mean)
          .set("mlu_degraded_mean", rep.mlu_degraded_mean)
          .set("dropped_demand", rep.dropped_demand_total)
          .set("determinism_hash", std::to_string(rep.determinism_hash))
          .set("all_finite", rep.all_finite)
          .set("stats", rep.stats.to_json());
      j.write_file(*path, 2);
      std::cout << "stats written to " << *path << "\n";
    }
    return rep.all_finite ? 0 : 1;
  }

  loop.start(advisors);

  std::optional<te::RetrainMonitor> monitor;
  if (flag_bool(args, "monitor")) {
    monitor.emplace(te::RetrainPolicy{});
    monitor->set_reference(train);
  }

  // Single-producer replay: pace arrivals, drain results between offers so
  // the bounded results ring never stalls the workers.
  double raw_sum = 0.0, raw_max = 0.0, norm_sum = 0.0;
  std::uint64_t norm_count = 0;
  std::vector<te::SnapshotResult> batch;
  const auto consume = [&] {
    batch.clear();
    loop.drain(batch);
    for (const te::SnapshotResult& r : batch) {
      raw_sum += r.raw_mlu;
      raw_max = std::max(raw_max, r.raw_mlu);
      if (r.oracle_mlu > 0.0) {
        norm_sum += r.normalized;
        ++norm_count;
      }
      if (monitor)
        monitor->observe(trace[r.trace_index],
                         r.oracle_mlu > 0.0
                             ? r.normalized
                             : std::numeric_limits<double>::quiet_NaN());
    }
  };

  traffic::SnapshotFeed::Options fopt;
  fopt.begin = static_cast<std::uint32_t>(begin);
  fopt.end = static_cast<std::uint32_t>(trace.size());
  fopt.rate = flag_double(args, "rate", 0.0);
  fopt.burst = flag_size(args, "burst", 1);
  fopt.jitter = flag_double(args, "jitter", 0.0);
  fopt.drop_on_backpressure = flag_bool(args, "drop");
  traffic::SnapshotFeed feed(fopt);
  feed.run([&](std::uint32_t idx) {
    consume();
    return loop.try_submit(idx);
  });
  while (loop.completed() < loop.submitted()) {
    consume();
    std::this_thread::yield();
  }
  loop.finish();
  consume();

  const te::ServingStats::Snapshot stats = loop.stats().snapshot();
  const std::uint64_t served = stats[te::Counter::kServed];
  std::cout << "serve: " << schemes.front()->name() << " on "
            << graph.num_nodes() << " nodes / " << paths.num_paths()
            << " paths; snapshots [" << begin << ", " << trace.size()
            << "), " << workers << " workers\n"
            << "feed: offered " << feed.offered() << ", accepted "
            << feed.accepted() << ", dropped " << feed.dropped() << "\n";
  loop.stats().print(std::cout);
  if (served > 0) {
    std::cout << "raw MLU: mean " << raw_sum / static_cast<double>(served)
              << ", max " << raw_max << "\n";
    if (norm_count > 0)
      std::cout << "normalized MLU (vs omniscient): mean "
                << norm_sum / static_cast<double>(norm_count) << "\n";
  }
  if (monitor)
    std::cout << "retrain monitor: drifted " << monitor->drifted_in_window()
              << ", degraded " << monitor->degraded_in_window()
              << " in window; retrain "
              << (monitor->should_retrain() ? "RECOMMENDED" : "not needed")
              << "\n";

  if (const auto& path = json) {
    util::Json j = util::Json::object();
    j.set("scheme", schemes.front()->name())
        .set("workers", static_cast<std::int64_t>(workers))
        .set("offered", static_cast<std::int64_t>(feed.offered()))
        .set("dropped", static_cast<std::int64_t>(feed.dropped()))
        .set("slo_ms", flag_double(args, "slo-ms", 0.0))
        .set("raw_mlu_mean",
             served > 0 ? raw_sum / static_cast<double>(served) : 0.0)
        .set("raw_mlu_max", raw_max);
    if (norm_count > 0)
      j.set("normalized_mlu_mean",
            norm_sum / static_cast<double>(norm_count));
    j.set("stats", stats.to_json());
    j.write_file(*path, 2);
    std::cout << "stats written to " << *path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args = [&] {
      try {
        return util::Args(argc, argv);
      } catch (const std::invalid_argument& e) {
        // E.g. a bare "--": malformed syntax is a usage error like any other.
        throw UsageError(e.what());
      }
    }();
    validate(args);
    if (flag_bool(args, "help") || (!is_serve(args) && flag_bool(args, "list"))) {
      print_usage(std::cout);
      return 0;
    }
    if (is_serve(args)) return run_serve(args);

    const net::Graph graph = make_graph(args);
    const auto per_pair =
        flag_bool(args, "racke")
            ? net::racke_style_paths(graph, {})
            : net::all_pairs_k_shortest(graph, 3);
    const te::PathSet paths = te::PathSet::build(graph, per_pair);
    const traffic::TrafficTrace trace = make_traffic(args, paths);

    std::cout << "topology: " << graph.num_nodes() << " nodes / "
              << graph.num_edges() << " arcs; " << paths.num_paths()
              << " candidate paths; trace: " << trace.size()
              << " snapshots\n";

    te::Harness::Options hopt;
    hopt.eval_stride = flag_size(args, "stride", 2);
    hopt.max_window = 16;
    hopt.threads = flag_size(args, "threads", 0);
    te::Harness harness(paths, trace, hopt);

    const std::string scheme_name = args.get_or("scheme", "figret");
    te::SchemeEval result;
    if (const auto learned = learned_scheme(args)) {
      const auto& [fopt, name] = *learned;
      te::FigretScheme fig(paths, fopt, name);
      result = harness.evaluate(fig);
      if (const auto path = args.get("save")) {
        fig.save_file(*path);
        std::cout << "checkpoint saved to " << *path << " ("
                  << fig.model().num_parameters() << " parameters)\n";
      }
    } else if (scheme_name == "oblivious" || scheme_name == "cope") {
      te::HoseRobustOptions ropt;
      ropt.time_budget_seconds = flag_double(args, "budget", 60.0);
      if (scheme_name == "cope")
        ropt.penalty_ratio = te::kDefaultCopePenaltyRatio;
      te::HoseRobustTe robust(paths, ropt);
      const auto t0 = std::chrono::steady_clock::now();
      robust.fit(harness.train_trace());
      const std::chrono::duration<double> fit_time =
          std::chrono::steady_clock::now() - t0;
      result = harness.evaluate(robust, /*fit=*/false);
      result.name += std::string(" (") +
                     lp::to_string(robust.result().status) + ", " +
                     util::fmt(fit_time.count(), 1) + "s)";
    } else {
      result = harness.evaluate(*make_scheme(scheme_name, paths));
    }

    const util::BoxStats s = result.stats();
    util::Table t({"metric", "value"});
    t.add_row({"scheme", result.name});
    t.add_row({"eval snapshots", std::to_string(result.normalized.size())});
    t.add_row({"avg normalized MLU", util::fmt(result.average(), 4)});
    t.add_row({"median", util::fmt(s.median, 4)});
    t.add_row({"p90", util::fmt(s.p90, 4)});
    t.add_row({"p99", util::fmt(s.p99, 4)});
    t.add_row({"max", util::fmt(s.max, 4)});
    t.add_row({"severe (>2x)", std::to_string(result.severe_congestion)});
    t.add_row({"advise time (ms)",
               util::fmt(result.mean_advise_seconds * 1e3, 3)});
    t.print(std::cout);
    return 0;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
