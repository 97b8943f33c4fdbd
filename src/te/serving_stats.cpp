#include "te/serving_stats.h"

#include <iterator>
#include <ostream>
#include <span>
#include <string>

#include "util/table.h"

namespace figret::te {
namespace {

// The one place each rung, counter and stage is named.
constexpr const char* kRungNames[] = {"fresh", "last-good", "uniform"};
constexpr const char* kCounterNames[] = {
    "served", "slo_violations", "overflows", "result_backpressure",
    "oracle_failures", "warm_hits", "warm_misses", "failure_epochs",
    "invalid_outputs", "dropped_pair_snapshots", "oracle_retries",
    "oracle_retry_successes", "chaos_stalls", "batched_snapshots",
    "oracle_rebuilds", "oracle_certificate_failures",
    "oracle_inorder_refactors"};
constexpr const char* kStageNames[] = {"queue",   "infer", "lp",    "install",
                                       "reroute", "score", "serve", "e2e"};
static_assert(std::size(kRungNames) == kFallbackRungCount);
static_assert(std::size(kCounterNames) == kCounterCount);
static_assert(std::size(kStageNames) == kStageCount);

template <std::size_t N>
void zero(AtomicTable<N>& table) noexcept {
  for (auto& slot : table) slot.store(0, std::memory_order_relaxed);
}

template <std::size_t N>
void load(const AtomicTable<N>& table,
          std::array<std::uint64_t, N>& out) noexcept {
  for (std::size_t k = 0; k < N; ++k)
    out[k] = table[k].load(std::memory_order_relaxed);
}

template <class Key>
const char* label(std::size_t k) noexcept {
  return to_string(static_cast<Key>(k));
}

/// A counter table as print() and to_json() walk it.
struct CounterTable {
  const char* name;
  std::span<const std::uint64_t> values;
  const char* (*label)(std::size_t) noexcept;
};

std::array<CounterTable, 4> counter_tables(const ServingStats::Snapshot& s) {
  return {{{"counters", s.counters, label<Counter>},
           {"rungs", s.rungs, label<FallbackRung>},
           {"warm_fallbacks", s.warm_fallbacks, label<lp::WarmFallback>},
           {"oracle_attempt_failures", s.oracle_attempt_failures,
            label<lp::Status>}}};
}

std::string ms(double seconds) { return util::fmt(seconds * 1e3, 3); }

}  // namespace

const char* to_string(FallbackRung rung) noexcept {
  return kRungNames[static_cast<std::size_t>(rung)];
}
const char* to_string(Counter counter) noexcept {
  return kCounterNames[static_cast<std::size_t>(counter)];
}
const char* to_string(Stage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

void ServingStats::reset() noexcept {
  zero(counters_);
  zero(rungs_);
  zero(warm_fallbacks_);
  zero(oracle_attempt_failures_);
  for (auto& h : stages_) h.reset();
}

ServingStats::Snapshot ServingStats::snapshot() const {
  Snapshot s;
  load(counters_, s.counters);
  load(rungs_, s.rungs);
  load(warm_fallbacks_, s.warm_fallbacks);
  load(oracle_attempt_failures_, s.oracle_attempt_failures);
  for (std::size_t k = 0; k < kStageCount; ++k) {
    const util::LatencyHistogram& h = stages_[k];
    s.stages[k] = {h.count(), h.percentile(50), h.percentile(99),
                   h.percentile(99.9), h.max_seconds()};
  }
  return s;
}

util::Json ServingStats::Snapshot::to_json() const {
  util::Json j = util::Json::object();
  for (const CounterTable& t : counter_tables(*this)) {
    util::Json o = util::Json::object();
    for (std::size_t k = 0; k < t.values.size(); ++k)
      o.set(t.label(k), t.values[k]);
    j.set(t.name, std::move(o));
  }
  util::Json o = util::Json::object();
  for (std::size_t k = 0; k < kStageCount; ++k)
    o.set(kStageNames[k], util::Json::object()
                              .set("count", stages[k].count)
                              .set("p50_s", stages[k].p50)
                              .set("p99_s", stages[k].p99)
                              .set("p999_s", stages[k].p999)
                              .set("max_s", stages[k].max));
  j.set("stages", std::move(o));
  return j;
}

void ServingStats::print(std::ostream& os) const {
  const Snapshot s = snapshot();
  util::Table t(
      {"stage", "count", "p50 (ms)", "p99 (ms)", "p999 (ms)", "max (ms)"});
  for (std::size_t k = 0; k < kStageCount; ++k) {
    const StageSummary& st = s.stages[k];
    if (st.count == 0) continue;  // the stage did not run
    t.add_row({kStageNames[k], std::to_string(st.count), ms(st.p50),
               ms(st.p99), ms(st.p999), ms(st.max)});
  }
  t.print(os);
  for (const CounterTable& c : counter_tables(s)) {
    std::string line;
    for (std::size_t k = 0; k < c.values.size(); ++k)
      if (c.values[k] > 0)
        line += std::string(" ") + c.label(k) + "=" +
                std::to_string(c.values[k]);
    if (!line.empty()) os << c.name << ":" << line << "\n";
  }
}

}  // namespace figret::te
