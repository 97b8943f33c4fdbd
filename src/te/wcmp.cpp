#include "te/wcmp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace figret::te {

namespace {

// The per-pair helpers are forced inline: called out of line once per pair,
// a full quantize_wcmp_into ran about 1.5x slower on a 992-pair path set.

// Largest-remainder (Hamilton) apportionment of `table_size` slots over the
// paths [begin, end) of one pair.
[[gnu::always_inline]] inline void quantize_pair(
    const TeConfig& config, std::size_t begin, std::size_t end,
    std::uint32_t table_size, WcmpWeights& weights, WcmpScratch& scratch) {
  double sum = 0.0;
  for (std::size_t p = begin; p < end; ++p) sum += std::max(0.0, config[p]);

  auto& remainders = scratch.remainders;
  remainders.clear();
  std::uint32_t assigned = 0;
  for (std::size_t p = begin; p < end; ++p) {
    const double share = sum > 1e-12
                             ? std::max(0.0, config[p]) / sum
                             : 1.0 / static_cast<double>(end - begin);
    const double exact = share * static_cast<double>(table_size);
    const auto floor_part = static_cast<std::uint32_t>(exact);
    weights[p] = floor_part;
    assigned += floor_part;
    remainders.emplace_back(exact - static_cast<double>(floor_part), p);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic tie-break
            });
  for (std::size_t k = 0; assigned < table_size; ++k) {
    ++weights[remainders[k % remainders.size()].second];
    ++assigned;
  }
}

// The ratios the weights of paths [begin, end) realize.
[[gnu::always_inline]] inline void realize_pair(const WcmpWeights& weights,
                                                std::size_t begin,
                                                std::size_t end,
                                                TeConfig& out) {
  std::uint64_t sum = 0;
  for (std::size_t p = begin; p < end; ++p) sum += weights[p];
  if (sum == 0)
    throw std::invalid_argument("ratios_from_wcmp: pair with all-zero weights");
  for (std::size_t p = begin; p < end; ++p)
    out[p] = static_cast<double>(weights[p]) / static_cast<double>(sum);
}

}  // namespace

WcmpWeights quantize_wcmp(const PathSet& ps, const TeConfig& config,
                          std::uint32_t table_size) {
  WcmpWeights weights;
  WcmpScratch scratch;
  quantize_wcmp_into(ps, config, table_size, weights, scratch);
  return weights;
}

void quantize_wcmp_into(const PathSet& ps, const TeConfig& config,
                        std::uint32_t table_size, WcmpWeights& out,
                        WcmpScratch& scratch) {
  if (config.size() != ps.num_paths())
    throw std::invalid_argument("quantize_wcmp: config size mismatch");
  if (table_size == 0)
    throw std::invalid_argument("quantize_wcmp: table_size must be >= 1");
  out.assign(ps.num_paths(), 0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    quantize_pair(config, ps.pair_begin(pr), ps.pair_end(pr), table_size, out,
                  scratch);
}

TeConfig ratios_from_wcmp(const PathSet& ps, const WcmpWeights& weights) {
  TeConfig cfg;
  ratios_from_wcmp_into(ps, weights, cfg);
  return cfg;
}

void ratios_from_wcmp_into(const PathSet& ps, const WcmpWeights& weights,
                           TeConfig& out) {
  if (weights.size() != ps.num_paths())
    throw std::invalid_argument("ratios_from_wcmp: size mismatch");
  out.assign(ps.num_paths(), 0.0);
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    realize_pair(weights, ps.pair_begin(pr), ps.pair_end(pr), out);
}

void WcmpInstall::reset(const PathSet& ps) {
  config.assign(ps.num_paths(), 0.0);
  table_size = 0;
  weights.assign(ps.num_paths(), 0);
  realized.assign(ps.num_paths(), 0.0);
  std::size_t widest = 0;
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr)
    widest = std::max(widest, ps.pair_size(pr));
  scratch.remainders.reserve(widest);
}

double install_wcmp_into(const PathSet& ps, const TeConfig& config,
                         std::uint32_t table_size, WcmpInstall& state) {
  if (config.size() != ps.num_paths())
    throw std::invalid_argument("install_wcmp: config size mismatch");
  if (table_size == 0)
    throw std::invalid_argument("install_wcmp: table_size must be >= 1");
  if (state.config.size() != ps.num_paths()) state.reset(ps);
  const bool all = state.table_size != table_size;
  state.table_size = table_size;
  for (std::size_t pr = 0; pr < ps.num_pairs(); ++pr) {
    const std::size_t begin = ps.pair_begin(pr);
    const std::size_t end = ps.pair_end(pr);
    bool changed = all;
    for (std::size_t p = begin; p < end && !changed; ++p)
      changed = std::bit_cast<std::uint64_t>(config[p]) !=
                std::bit_cast<std::uint64_t>(state.config[p]);
    if (!changed) continue;
    quantize_pair(config, begin, end, table_size, state.weights,
                  state.scratch);
    realize_pair(state.weights, begin, end, state.realized);
    for (std::size_t p = begin; p < end; ++p) state.config[p] = config[p];
  }
  double worst = 0.0;
  for (std::size_t p = 0; p < config.size(); ++p)
    worst = std::max(worst, std::abs(state.realized[p] - config[p]));
  return worst;
}

double quantization_error(const PathSet& ps, const TeConfig& config,
                          const WcmpWeights& weights) {
  const TeConfig realized = ratios_from_wcmp(ps, weights);
  const TeConfig ideal = normalize_config(ps, config);
  double worst = 0.0;
  for (std::size_t p = 0; p < ps.num_paths(); ++p)
    worst = std::max(worst, std::abs(realized[p] - ideal[p]));
  return worst;
}

}  // namespace figret::te
