#include "bench_common.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "net/topology.h"
#include "net/yen.h"
#include "traffic/generators.h"
#include "util/json.h"
#include "util/table.h"

namespace figret::bench {
namespace {

Scenario build(std::string name, std::string note, net::Graph graph,
               traffic::TrafficTrace trace, std::size_t stride) {
  Scenario s;
  s.name = std::move(name);
  s.note = std::move(note);
  s.graph = std::move(graph);
  s.ps = te::PathSet::build(s.graph, net::all_pairs_k_shortest(s.graph, 3));
  s.trace = std::move(trace);
  s.eval_stride = stride;
  return s;
}

}  // namespace

bool full_mode() {
  const char* v = std::getenv("FIGRET_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

TrainProfile train_profile() {
  if (full_mode()) {
    // The paper's Appendix D.4 architecture.
    return {12, {128, 128, 128, 128, 128}, 30, 1.0};
  }
  // robust_weight calibrated on the scaled fabrics (bench_ablation_weight):
  // w = 1 reproduces the paper's magnitudes — a few percent better average
  // than DOTE on bursty ToR traces with ~half the severe-congestion events,
  // while leaving the stable gravity WANs at DOTE's level. Larger w buys
  // more tail at growing average cost (the knob a deployment would tune).
  return {8, {128, 128, 128}, 20, 1.0};
}

Scenario make_scenario(const std::string& name) {
  const bool full = full_mode();
  const std::size_t wan_len = full ? 672 : 280;
  const std::size_t dc_len = full ? 600 : 260;

  if (name == "GEANT") {
    return build(name, "real 2006 GEANT adjacency; synthetic WAN trace",
                 net::geant(), traffic::wan_trace(23, wan_len, 101),
                 full ? 4 : 6);
  }
  if (name == "UsCarrier") {
    // Paper: 158 nodes / 378 arcs. Scaled for the per-snapshot LP baselines.
    const std::size_t n = full ? 64 : 40;
    const std::size_t links = full ? 80 : 50;
    return build(name,
                 "scaled sparse WAN (paper: 158 nodes); gravity traffic",
                 net::sparse_wan(n, links, 11),
                 traffic::gravity_trace(n, wan_len, 103), full ? 6 : 8);
  }
  if (name == "Cogentco") {
    const std::size_t n = full ? 80 : 48;
    const std::size_t links = full ? 100 : 60;
    return build(name,
                 "scaled sparse WAN (paper: 197 nodes); gravity traffic",
                 net::sparse_wan(n, links, 13),
                 traffic::gravity_trace(n, wan_len, 107), full ? 8 : 10);
  }
  if (name == "pFabric") {
    return build(name, "9-ToR full mesh; Poisson web-search flows",
                 net::full_mesh(9), traffic::pfabric_trace(9, dc_len, 109),
                 2);
  }
  if (name == "PoD-DB") {
    return build(name, "4-PoD full mesh; aggregated ToR trace",
                 net::full_mesh(4), traffic::dc_pod_trace(4, 4, dc_len, 113),
                 1);
  }
  if (name == "PoD-WEB") {
    return build(name, "8-PoD full mesh; aggregated ToR trace",
                 net::full_mesh(8), traffic::dc_pod_trace(8, 4, dc_len, 127),
                 2);
  }
  if (name == "ToR-DB") {
    const std::size_t n = full ? 48 : 24;
    const std::size_t d = full ? 12 : 8;
    return build(name,
                 "scaled random-regular ToR fabric (paper: 155 nodes)",
                 net::random_regular(n, d, 131),
                 traffic::dc_tor_trace(n, dc_len, 137), full ? 4 : 4);
  }
  if (name == "ToR-WEB") {
    const std::size_t n = full ? 64 : 32;
    const std::size_t d = full ? 14 : 10;
    return build(name,
                 "scaled random-regular ToR fabric (paper: 324 nodes)",
                 net::random_regular(n, d, 139),
                 traffic::dc_tor_trace(n, dc_len, 149), full ? 6 : 6);
  }
  throw std::invalid_argument("make_scenario: unknown scenario " + name);
}

std::vector<std::string> scenario_names() {
  return {"GEANT",  "UsCarrier", "Cogentco", "pFabric",
          "PoD-DB", "PoD-WEB",   "ToR-DB",   "ToR-WEB"};
}

void print_header(std::ostream& os, const std::string& figure,
                  const std::string& claim, const std::string& note) {
  os << "==============================================================\n"
     << figure << "\n"
     << "Paper claim: " << claim << "\n";
  if (!note.empty()) os << "Scale note:  " << note << "\n";
  os << "==============================================================\n";
}

std::vector<std::string> eval_header() {
  return {"scheme", "avg",  "p50",    "p75",   "p90",
          "p99",    "max",  ">2x(sev)", "advise_ms"};
}

std::vector<std::string> eval_row(const te::SchemeEval& ev) {
  const util::BoxStats s = ev.stats();
  return {ev.name,
          util::fmt(ev.average(), 4),
          util::fmt(s.median, 4),
          util::fmt(s.p75, 4),
          util::fmt(s.p90, 4),
          util::fmt(s.p99, 4),
          util::fmt(s.max, 4),
          std::to_string(ev.severe_congestion),
          util::fmt(ev.mean_advise_seconds * 1e3, 3)};
}

namespace {

// Accumulators for the BENCH_*.json mirror. Bench binaries are
// single-threaded mains, so process-global state keeps the per-bench diff to
// one call per printed table instead of threading a sink through every
// helper signature.
util::Json& sink_tables() {
  static util::Json j = util::Json::array();
  return j;
}

util::Json& sink_checks() {
  static util::Json j = util::Json::array();
  return j;
}

}  // namespace

void json_add_table(const std::string& section, const util::Table& table) {
  util::Json tab = util::Json::object();
  tab.set("section", section);
  util::Json rows = util::Json::array();
  const auto& header = table.header();
  for (const auto& row : table.row_data()) {
    util::Json obj = util::Json::object();
    for (std::size_t c = 0; c < header.size() && c < row.size(); ++c) {
      const std::string& cell = row[c];
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (!cell.empty() && end != nullptr && *end == '\0')
        obj.set(header[c], v);
      else
        obj.set(header[c], cell);
    }
    rows.push(std::move(obj));
  }
  tab.set("rows", std::move(rows));
  sink_tables().push(std::move(tab));
}

void json_add_check(const std::string& name, bool pass) {
  sink_checks().push(
      util::Json::object().set("check", name).set("pass", pass));
}

void write_json(const std::string& bench_id) {
  util::Json j = util::Json::object();
  j.set("bench", bench_id).set("full_mode", full_mode());
  j.set("tables", std::move(sink_tables()));
  if (sink_checks().size() > 0) j.set("checks", std::move(sink_checks()));
  sink_tables() = util::Json::array();
  sink_checks() = util::Json::array();
  const std::string path = "BENCH_" + bench_id + ".json";
  j.write_file(path);
  std::cout << "machine-readable results: " << path << "\n";
}

std::optional<std::string> read_reference(int& rc) {
  const char* path = std::getenv("FIGRET_BENCH_REFERENCE");
  if (path == nullptr) return std::nullopt;
  std::ifstream in(path);
  if (!in) {
    std::cout << "ERROR: cannot read bench reference " << path << "\n";
    rc = 1;
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string reference_token(const std::string& ref,
                            std::initializer_list<std::string> anchors,
                            const std::string& key) {
  std::size_t at = 0;
  for (const std::string& anchor : anchors) {
    at = ref.find(anchor, at);
    if (at == std::string::npos) return "";
  }
  const std::string needle = "\"" + key + "\":";
  at = ref.find(needle, at);
  if (at == std::string::npos) return "";
  const std::size_t begin = ref.find_first_not_of(" \n", at + needle.size());
  if (begin == std::string::npos) return "";
  if (ref[begin] == '"') {
    const std::size_t end = ref.find('"', begin + 1);
    return end == std::string::npos ? ""
                                    : ref.substr(begin + 1, end - begin - 1);
  }
  const std::size_t end = ref.find_first_of(",}] \n", begin);
  return ref.substr(begin, end - begin);  // to the end when end is npos
}

}  // namespace figret::bench
