// Property tests for SparseMatrix::from_triplets, the CSC builder behind the
// revised simplex: on shuffled input, accumulating duplicates, duplicates
// that cancel to zero, and explicit zeros it must agree exactly with a naive
// ordered-map builder, and out-of-range triplets must still throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/sparse.h"
#include "util/rng.h"

namespace figret::lp {
namespace {

// Reference builder: sums duplicates in input order, keyed by (col, row), and
// drops entries that end up zero.
using Cells = std::map<std::pair<std::uint32_t, std::uint32_t>, double>;

Cells naive(const std::vector<Triplet>& trip) {
  Cells cells;
  for (const Triplet& t : trip) {
    const auto [it, fresh] = cells.try_emplace({t.col, t.row}, t.value);
    if (!fresh) it->second += t.value;
  }
  std::erase_if(cells, [](const auto& kv) { return kv.second == 0.0; });
  return cells;
}

// The matrix as (col, row) -> value, checking column order on the way.
Cells cells_of(const SparseMatrix& m) {
  Cells cells;
  for (std::size_t j = 0; j < m.cols(); ++j) {
    const auto rows = m.col_rows(j);
    const auto vals = m.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(rows[k - 1], rows[k]) << "column " << j;
      }
      EXPECT_NE(vals[k], 0.0);
      cells[{static_cast<std::uint32_t>(j), rows[k]}] = vals[k];
    }
  }
  return cells;
}

std::vector<Triplet> random_triplets(util::Rng& rng, std::size_t rows,
                                     std::size_t cols, std::size_t n) {
  std::vector<Triplet> trip;
  for (std::size_t k = 0; k < n; ++k) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_index(rows));
    const auto c = static_cast<std::uint32_t>(rng.uniform_index(cols));
    double v = rng.uniform(-3.0, 3.0);
    if (rng.bernoulli(0.1)) v = 0.0;  // explicit zero
    trip.push_back({r, c, v});
    if (rng.bernoulli(0.2)) trip.push_back({r, c, rng.uniform(-1.0, 1.0)});
    if (rng.bernoulli(0.1)) trip.push_back({r, c, -v});  // may cancel
  }
  for (std::size_t i = trip.size(); i-- > 1;)
    std::swap(trip[i], trip[rng.uniform_index(i + 1)]);
  return trip;
}

TEST(LpSparse, MatchesNaiveBuilderOnShuffledInput) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    const std::size_t rows = 1 + rng.uniform_index(20);
    const std::size_t cols = 1 + rng.uniform_index(20);
    const auto trip = random_triplets(rng, rows, cols, rng.uniform_index(80));
    const SparseMatrix m = SparseMatrix::from_triplets(rows, cols, trip);
    EXPECT_EQ(m.rows(), rows);
    EXPECT_EQ(m.cols(), cols);
    const Cells want = naive(trip);
    EXPECT_EQ(m.nnz(), want.size()) << "seed " << seed;
    EXPECT_EQ(cells_of(m), want) << "seed " << seed;
  }
}

TEST(LpSparse, DuplicatesAccumulateAndCancellationsVanish) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, 2,
      {{2, 1, 1.5}, {0, 0, 2.0}, {2, 1, 2.5}, {1, 0, 4.0}, {1, 0, -4.0},
       {0, 1, 0.0}, {0, 0, 1.0}});
  EXPECT_EQ(m.nnz(), 2u);
  ASSERT_EQ(m.col_rows(0).size(), 1u);  // (1,0) cancelled to zero
  EXPECT_EQ(m.col_rows(0)[0], 0u);
  EXPECT_EQ(m.col_values(0)[0], 3.0);
  ASSERT_EQ(m.col_rows(1).size(), 1u);  // explicit zero (0,1) dropped
  EXPECT_EQ(m.col_rows(1)[0], 2u);
  EXPECT_EQ(m.col_values(1)[0], 4.0);
}

TEST(LpSparse, DuplicatesSumInInputOrder) {
  // 1e16 + 1 - 1e16 is 0 in double arithmetic, while 1e16 - 1e16 + 1 is 1:
  // the builder must add duplicates in the order they were given.
  const SparseMatrix a = SparseMatrix::from_triplets(
      1, 1, {{0, 0, 1e16}, {0, 0, 1.0}, {0, 0, -1e16}});
  EXPECT_EQ(a.nnz(), 0u);
  const SparseMatrix b = SparseMatrix::from_triplets(
      1, 1, {{0, 0, 1e16}, {0, 0, -1e16}, {0, 0, 1.0}});
  ASSERT_EQ(b.nnz(), 1u);
  EXPECT_EQ(b.col_values(0)[0], 1.0);
}

TEST(LpSparse, EmptyAndOutOfRange) {
  const SparseMatrix e = SparseMatrix::from_triplets(4, 3, {});
  EXPECT_EQ(e.nnz(), 0u);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_TRUE(e.col_rows(j).empty());
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(SparseMatrix::from_triplets(0, 0, {{0, 0, 1.0}}),
               std::out_of_range);
}

}  // namespace
}  // namespace figret::lp
