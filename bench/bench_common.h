// Shared infrastructure for the per-figure/per-table bench binaries.
//
// Every bench reproduces one table or figure of the paper. Scenarios mirror
// the paper's eight topology/trace combinations; the two ToR-level fabrics
// and the two Topology-Zoo WANs are scaled down (single CPU core, one LP
// solve per snapshot and baseline) with the substitution documented in the
// emitted header and in README "Substitutions". Set FIGRET_BENCH_FULL=1 in
// the environment for larger instances.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "net/graph.h"
#include "te/harness.h"
#include "te/pathset.h"
#include "traffic/demand.h"
#include "util/table.h"

namespace figret::bench {

struct Scenario {
  std::string name;
  std::string note;  // scale / substitution note printed with results
  net::Graph graph;
  te::PathSet ps;
  traffic::TrafficTrace trace;
  /// Harness eval stride (LP baselines are expensive on bigger scenarios).
  std::size_t eval_stride = 1;
};

/// Scenario registry keyed by the paper's names:
/// "GEANT", "UsCarrier", "Cogentco", "pFabric", "PoD-DB", "PoD-WEB",
/// "ToR-DB", "ToR-WEB".
Scenario make_scenario(const std::string& name);

/// All eight evaluation scenarios in the paper's order.
std::vector<std::string> scenario_names();

/// True when FIGRET_BENCH_FULL=1 (bigger instances, longer runtimes).
bool full_mode();

/// FIGRET/DOTE training options tuned for bench runtimes (smaller than the
/// paper's 5x128 architecture in quick mode; full mode uses the paper's).
struct TrainProfile {
  std::size_t history;
  std::vector<std::size_t> hidden;
  std::size_t epochs;
  double robust_weight;
};
TrainProfile train_profile();

/// Prints the standard bench header (figure id, paper claim, scale note).
void print_header(std::ostream& os, const std::string& figure,
                  const std::string& claim, const std::string& note);

/// Formats a SchemeEval as the columns used across the Fig 5-style tables.
std::vector<std::string> eval_row(const te::SchemeEval& ev);
std::vector<std::string> eval_header();

/// Machine-readable mirror of the printed tables. Benches call
/// json_add_table after each Table::print (the section is usually the
/// scenario name), json_add_check for each pass/fail assertion, and
/// write_json once at the end of main to emit BENCH_<id>.json next to the
/// binary — the same artifact shape the dedicated JSON benches produce.
/// Cells that parse fully as numbers are emitted as JSON numbers.
void json_add_table(const std::string& section, const util::Table& table);
void json_add_check(const std::string& name, bool pass);
void write_json(const std::string& bench_id);

/// The committed reference a bench's regression gates compare against: the
/// text of the BENCH_<id>.json that FIGRET_BENCH_REFERENCE names, or nullopt
/// when the variable is unset. A file that cannot be read prints an error,
/// sets `rc` to 1 and gives nullopt.
std::optional<std::string> read_reference(int& rc);

/// The raw value token of `"<key>": <value>` in a reference's text (util::Json
/// is a writer, so the text is scanned): the first key after each of
/// `anchors` in turn, each found after the previous one. A quoted value comes
/// without its quotes, a number as written; "" when an anchor or the key is
/// missing.
std::string reference_token(const std::string& ref,
                            std::initializer_list<std::string> anchors,
                            const std::string& key);

}  // namespace figret::bench
