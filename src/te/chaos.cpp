#include "te/chaos.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>

#include "te/serving_loop.h"
#include "util/rng.h"

namespace figret::te {
namespace {

// Substream salts: each fault class draws from its own Rng derived from the
// user seed, so raising one rate never reshuffles another class's schedule.
constexpr std::uint64_t kSaltFail = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kSaltRepair = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSaltPick = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kSaltOverrun = 0x27D4EB2F165667C5ULL;
constexpr std::uint64_t kSaltStall = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kSaltCorrupt = 0xFF51AFD7ED558CCDULL;
constexpr std::uint64_t kSaltDemand = 0xC4CEB9FE1A85EC53ULL;
constexpr std::uint64_t kSaltBurst = 0xD6E8FEB86659FD93ULL;
// Per-epoch corruption value streams (independent of the schedule streams).
constexpr std::uint64_t kSaltConfigValues = 0xA0761D6478BD642FULL;
constexpr std::uint64_t kSaltDemandValues = 0xE7037ED1A0B428DBULL;

double parse_spec_number(std::string_view value, const std::string& key) {
  double v = 0.0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v))
    throw std::invalid_argument("chaos spec: bad value for '" + key + "'");
  return v;
}

double parse_rate(std::string_view value, const std::string& key) {
  const double v = parse_spec_number(value, key);
  if (v < 0.0 || v > 1.0)
    throw std::invalid_argument("chaos spec: '" + key +
                                "' must be in [0, 1]");
  return v;
}

void check_rates(const ChaosOptions& opt) {
  const auto rate = [](double v, const char* name) {
    if (!(v >= 0.0 && v <= 1.0))
      throw std::invalid_argument(std::string("ChaosOptions: ") + name +
                                  " must be in [0, 1]");
  };
  rate(opt.failure_rate, "failure_rate");
  rate(opt.overrun_rate, "overrun_rate");
  rate(opt.stall_rate, "stall_rate");
  rate(opt.corrupt_output_rate, "corrupt_output_rate");
  rate(opt.corrupt_demand_rate, "corrupt_demand_rate");
  rate(opt.burst_rate, "burst_rate");
  if (!(opt.mean_repair_epochs >= 1.0))
    throw std::invalid_argument(
        "ChaosOptions: mean_repair_epochs must be >= 1");
  if (opt.max_repair_epochs < 1)
    throw std::invalid_argument("ChaosOptions: max_repair_epochs must be >= 1");
  if (!(opt.stall_seconds >= 0.0))
    throw std::invalid_argument("ChaosOptions: stall_seconds must be >= 0");
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) noexcept {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ChaosOptions parse_chaos_spec(const std::string& spec) {
  ChaosOptions opt;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string_view item(spec.data() + pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      throw std::invalid_argument("chaos spec: expected key=value, got '" +
                                  std::string(item) + "'");
    const std::string key(item.substr(0, eq));
    const std::string_view value = item.substr(eq + 1);
    if (key == "seed") {
      const double v = parse_spec_number(value, key);
      if (v < 0.0 || v != std::floor(v))
        throw std::invalid_argument("chaos spec: seed must be an integer >= 0");
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (key == "fail") {
      opt.failure_rate = parse_rate(value, key);
    } else if (key == "repair") {
      opt.mean_repair_epochs = parse_spec_number(value, key);
    } else if (key == "maxrepair") {
      opt.max_repair_epochs =
          static_cast<std::size_t>(parse_spec_number(value, key));
    } else if (key == "maxfail") {
      opt.max_concurrent_failures =
          static_cast<std::size_t>(parse_spec_number(value, key));
    } else if (key == "overrun") {
      opt.overrun_rate = parse_rate(value, key);
    } else if (key == "stall") {
      opt.stall_rate = parse_rate(value, key);
    } else if (key == "stallms") {
      opt.stall_seconds = parse_spec_number(value, key) / 1000.0;
    } else if (key == "corrupt") {
      opt.corrupt_output_rate = parse_rate(value, key);
    } else if (key == "demand") {
      opt.corrupt_demand_rate = parse_rate(value, key);
    } else if (key == "burst") {
      opt.burst_rate = parse_rate(value, key);
    } else if (key == "intensity") {
      const double x = parse_rate(value, key);
      opt.failure_rate = x / 2.0;
      opt.overrun_rate = x / 2.0;
      opt.corrupt_output_rate = x / 2.0;
      opt.stall_rate = x / 4.0;
      opt.corrupt_demand_rate = x / 4.0;
      opt.burst_rate = x / 8.0;
    } else {
      throw std::invalid_argument("chaos spec: unknown key '" + key + "'");
    }
  }
  check_rates(opt);
  return opt;
}

ChaosEngine::ChaosEngine(const PathSet& ps,
                         std::vector<net::FailureDomain> domains,
                         const ChaosOptions& opt, std::uint32_t begin,
                         std::uint32_t end)
    : opt_(opt), begin_(begin), end_(end), num_pairs_(ps.num_pairs()) {
  if (end <= begin)
    throw std::invalid_argument("ChaosEngine: empty epoch range");
  check_rates(opt);

  util::Rng fail_rng(opt.seed ^ kSaltFail);
  util::Rng repair_rng(opt.seed ^ kSaltRepair);
  util::Rng pick_rng(opt.seed ^ kSaltPick);
  util::Rng overrun_rng(opt.seed ^ kSaltOverrun);
  util::Rng stall_rng(opt.seed ^ kSaltStall);
  util::Rng corrupt_rng(opt.seed ^ kSaltCorrupt);
  util::Rng demand_rng(opt.seed ^ kSaltDemand);
  util::Rng burst_rng(opt.seed ^ kSaltBurst);

  const std::size_t count = end - begin;
  plans_.resize(count);
  last_clean_.assign(count, kNoEpoch);
  mask_edges_.emplace_back();  // mask 0: all alive

  // Active failures: domain index -> epoch at which it repairs.
  struct Active {
    std::size_t domain;
    std::uint32_t repair_at;
  };
  std::vector<Active> active;
  // Canonical active-set -> mask id, so identical failure sets share a mask.
  std::map<std::vector<std::size_t>, std::uint32_t> mask_ids;
  mask_ids.emplace(std::vector<std::size_t>{}, 0u);

  std::size_t corruption_events = 0;
  std::uint32_t prev_mask = 0;
  std::uint32_t last_clean = kNoEpoch;

  for (std::size_t e = 0; e < count; ++e) {
    const auto t = static_cast<std::uint32_t>(begin + e);
    EpochPlan& p = plans_[e];

    // Repairs due this epoch happen before new failures are drawn.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Active& a) {
                                  return a.repair_at <= t;
                                }),
                 active.end());

    // Correlated failure burst: at most one new domain per epoch, capped by
    // max_concurrent_failures. The Bernoulli draw happens every epoch so the
    // schedule of later epochs never depends on the cap being hit.
    const bool want_failure = fail_rng.bernoulli(opt.failure_rate);
    if (want_failure && !domains.empty() &&
        active.size() < opt.max_concurrent_failures) {
      const std::size_t d = pick_rng.uniform_index(domains.size());
      const bool already =
          std::any_of(active.begin(), active.end(),
                      [&](const Active& a) { return a.domain == d; });
      if (!already) {
        const double draw =
            repair_rng.exponential(1.0 / opt.mean_repair_epochs);
        const auto repair = static_cast<std::uint32_t>(std::clamp(
            std::llround(draw), 1ll,
            static_cast<long long>(opt.max_repair_epochs)));
        active.push_back({d, t + repair});
        ++summary_.failure_events;
      }
    }

    // Canonicalize the active set into a mask id (edges deduped + sorted).
    std::vector<std::size_t> key;
    key.reserve(active.size());
    for (const Active& a : active) key.push_back(a.domain);
    std::sort(key.begin(), key.end());
    auto [it, inserted] =
        mask_ids.emplace(key, static_cast<std::uint32_t>(mask_edges_.size()));
    if (inserted) {
      std::vector<net::EdgeId> edges;
      for (const std::size_t d : key)
        edges.insert(edges.end(), domains[d].edges.begin(),
                     domains[d].edges.end());
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      mask_edges_.push_back(std::move(edges));
    }
    p.mask_id = it->second;
    if (p.mask_id != 0) ++summary_.masked_epochs;
    if (p.mask_id != prev_mask) ++summary_.mask_changes;
    prev_mask = p.mask_id;

    if (corrupt_rng.bernoulli(opt.corrupt_output_rate)) {
      // Cycle the corruption flavor per event: every flavor is exercised.
      constexpr Corruption kKinds[] = {Corruption::kNan, Corruption::kInf,
                                       Corruption::kNegative};
      p.corruption = kKinds[corruption_events % 3];
      ++corruption_events;
      ++summary_.corrupt_outputs;
    }
    p.overrun = overrun_rng.bernoulli(opt.overrun_rate);
    if (p.overrun) ++summary_.overruns;
    p.stall = stall_rng.bernoulli(opt.stall_rate);
    if (p.stall) ++summary_.stalls;
    p.corrupt_demand = demand_rng.bernoulli(opt.corrupt_demand_rate);
    if (p.corrupt_demand) ++summary_.corrupt_demands;
    p.burst = burst_rng.bernoulli(opt.burst_rate);
    if (p.burst) ++summary_.bursts;

    last_clean_[e] = last_clean;
    if (p.clean()) last_clean = t;
  }
}

const EpochPlan& ChaosEngine::plan(std::uint32_t index) const {
  if (index < begin_ || index >= end_)
    throw std::out_of_range("ChaosEngine: index outside the scheduled range");
  return plans_[index - begin_];
}

const std::vector<net::EdgeId>& ChaosEngine::failed_edges(
    std::uint32_t index) const {
  return mask_edges_[plan(index).mask_id];
}

std::uint32_t ChaosEngine::last_clean_before(std::uint32_t index) const {
  if (index < begin_ || index >= end_)
    throw std::out_of_range("ChaosEngine: index outside the scheduled range");
  return last_clean_[index - begin_];
}

void ChaosEngine::corrupt_config(std::uint32_t index, TeConfig& cfg) const {
  const EpochPlan& p = plan(index);
  if (p.corruption == Corruption::kNone || cfg.empty()) return;
  util::Rng rng(opt_.seed ^ kSaltConfigValues ^
                (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) +
                                          1)));
  const std::size_t hits = std::max<std::size_t>(1, cfg.size() / 64);
  for (std::size_t h = 0; h < hits; ++h) {
    const std::size_t at = rng.uniform_index(cfg.size());
    switch (p.corruption) {
      case Corruption::kNan:
        cfg[at] = std::numeric_limits<double>::quiet_NaN();
        break;
      case Corruption::kInf:
        cfg[at] = std::numeric_limits<double>::infinity();
        break;
      case Corruption::kNegative:
        cfg[at] = -(1.0 + rng.uniform());
        break;
      case Corruption::kNone:
        break;
    }
  }
}

void ChaosEngine::corrupt_demand_into(std::uint32_t index,
                                      const traffic::DemandMatrix& src,
                                      traffic::DemandMatrix& out) const {
  out = src.densified();
  if (out.size() == 0) return;
  util::Rng rng(opt_.seed ^ kSaltDemandValues ^
                (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) +
                                          1)));
  const std::size_t hits = std::max<std::size_t>(2, out.size() / 128);
  for (std::size_t h = 0; h < hits; ++h) {
    const std::size_t at = rng.uniform_index(out.size());
    if (h % 2 == 0)
      out[at] = std::numeric_limits<double>::quiet_NaN();
    else
      out[at] = out[at] * 1e6 + 1.0;
  }
}

bool config_servable(const TeConfig& cfg) noexcept {
  for (const double v : cfg)
    if (!(std::isfinite(v) && v >= 0.0)) return false;
  return true;
}

std::uint64_t config_fingerprint(const TeConfig& cfg,
                                 FallbackRung rung) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv_mix(h, static_cast<std::uint64_t>(rung));
  for (const double v : cfg) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = fnv_mix(h, bits);
  }
  return h;
}

ChaosRunReport run_chaos_serving(ServingLoop& loop, const ChaosEngine& chaos,
                                 std::span<TeScheme* const> advisors) {
  loop.start(advisors);
  std::vector<SnapshotResult> results;
  std::uint32_t cur_mask = 0;
  std::size_t skipped_drains = 0;
  // Forced-drain bound: even a run of consecutive burst epochs can never
  // wedge producer and workers against full rings.
  const std::size_t max_skipped = 8;

  for (std::uint32_t t = chaos.begin(); t < chaos.end(); ++t) {
    const EpochPlan& p = chaos.plan(t);
    if (p.mask_id != cur_mask) {
      // A mask changes only at a quiescent point, so every snapshot serves
      // under exactly the mask its epoch was scheduled with.
      while (loop.completed() < loop.submitted()) std::this_thread::yield();
      loop.drain(results);
      if (p.mask_id == 0)
        loop.clear_failures();
      else
        loop.install_failures(chaos.failed_edges(t));
      cur_mask = p.mask_id;
    }
    loop.submit(t);
    if (p.burst && skipped_drains < max_skipped) {
      ++skipped_drains;  // backpressure storm: let the results ring fill
    } else {
      loop.drain(results);
      skipped_drains = 0;
    }
  }
  loop.finish();
  loop.drain(results);

  ChaosRunReport rep;
  rep.served = results.size();
  rep.stats = loop.stats().snapshot();
  std::sort(results.begin(), results.end(),
            [](const SnapshotResult& a, const SnapshotResult& b) {
              return a.trace_index < b.trace_index;
            });
  std::uint64_t streak = 0;
  double healthy_sum = 0.0, degraded_sum = 0.0;
  std::uint64_t healthy_n = 0, degraded_n = 0;
  std::uint64_t h = 1469598103934665603ULL;
  for (const SnapshotResult& r : results) {
    const std::size_t rung = static_cast<std::size_t>(r.rung);
    if (rung < kFallbackRungCount) ++rep.rungs[rung];
    const EpochPlan& p = chaos.plan(r.trace_index);
    const bool degraded = r.rung != FallbackRung::kFresh || p.mask_id != 0;
    if (degraded) {
      ++rep.degraded_epochs;
      ++streak;
      rep.max_recovery_epochs = std::max(rep.max_recovery_epochs, streak);
      degraded_sum += r.raw_mlu;
      ++degraded_n;
    } else {
      streak = 0;
      healthy_sum += r.raw_mlu;
      ++healthy_n;
    }
    rep.dropped_demand_total += r.dropped_demand;
    if (!std::isfinite(r.raw_mlu) || !std::isfinite(r.dropped_demand))
      rep.all_finite = false;
    h = fnv_mix(h, r.trace_index);
    h = fnv_mix(h, static_cast<std::uint64_t>(r.rung));
    h = fnv_mix(h, r.config_hash);
  }
  if (healthy_n > 0) rep.mlu_healthy_mean = healthy_sum / healthy_n;
  if (degraded_n > 0) rep.mlu_degraded_mean = degraded_sum / degraded_n;
  rep.determinism_hash = h;
  return rep;
}

}  // namespace figret::te
