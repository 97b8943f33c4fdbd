// Differential tests for the tiled/SIMD linalg kernels against the
// pre-optimization reference kernels, over random shapes including ragged
// tiles (dimensions that are not multiples of the unroll widths), and of the
// sparse-input matvec against the dense matvec, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "support/reference_kernels.h"
#include "util/rng.h"

namespace figret {
namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             util::Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

// Reordered reductions are tolerance-bounded, not bit-equal: |err| is
// O(k * eps * max|products|), far below this bound for k <= 200, |v| <= 1.
constexpr double kTol = 1e-11;

void expect_near(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_NEAR(a(r, c), b(r, c), kTol) << "at (" << r << ", " << c << ")";
}

// Whole products through the range kernels, into fresh matrices. Only for
// valid shapes: with GCC 12, a throw out of a cloned kernel skips the
// destructor of a named return value in its caller (ASan reports the leak).
linalg::Matrix matmul(const linalg::Matrix& a, const linalg::Matrix& b) {
  linalg::Matrix out(a.rows(), b.cols());
  linalg::matmul_into(a, b, 0, b.cols(), out);
  return out;
}

linalg::Matrix t_matmul(const linalg::Matrix& a, const linalg::Matrix& b) {
  linalg::Matrix out(a.cols(), b.cols());
  linalg::t_matmul_accum(a, b, 0, a.cols(), out);
  return out;
}

linalg::Matrix matmul_t(const linalg::Matrix& a, const linalg::Matrix& b) {
  linalg::Matrix out(a.rows(), b.rows());
  linalg::matmul_t_into(a, b, 0, b.rows(), out);
  return out;
}

struct Shape {
  std::size_t m, k, n;
};

// Ragged shapes straddle every tail case of the 4-wide k-unroll and the
// 2-wide j-unroll; the larger ones cross cache-line and register-block sizes.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 4, 1},   {3, 5, 7},    {4, 4, 4},    {5, 4, 3},
    {2, 7, 2},   {17, 23, 9}, {32, 32, 32}, {33, 31, 30}, {8, 129, 5},
    {64, 3, 64}, {7, 1, 13},  {12, 100, 1}, {1, 64, 47},
};

TEST(TiledKernels, MatmulMatchesReferenceOnRaggedShapes) {
  util::Rng rng(101);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    expect_near(matmul(a, b), linalg::matmul_reference(a, b));
  }
}

TEST(TiledKernels, TMatmulMatchesReferenceOnRaggedShapes) {
  util::Rng rng(102);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.k, s.m, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    expect_near(t_matmul(a, b), linalg::t_matmul_reference(a, b));
  }
}

TEST(TiledKernels, MatmulTMatchesReferenceOnRaggedShapes) {
  util::Rng rng(103);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.n, s.k, rng);
    expect_near(matmul_t(a, b), linalg::matmul_t_reference(a, b));
  }
}

TEST(TiledKernels, ZeroHeavyOperandsStillMatch) {
  // The reference kernels skip zero entries; the dense kernels must produce
  // the same values without the branch.
  util::Rng rng(104);
  for (const Shape& s : kShapes) {
    auto a = random_matrix(s.m, s.k, rng);
    auto b = random_matrix(s.k, s.n, rng);
    for (double& v : a.flat())
      if (rng.bernoulli(0.7)) v = 0.0;
    for (double& v : b.flat())
      if (rng.bernoulli(0.4)) v = 0.0;
    expect_near(matmul(a, b), linalg::matmul_reference(a, b));
    const auto at = a.transposed();
    expect_near(t_matmul(at, b), linalg::t_matmul_reference(at, b));
  }
}

TEST(TiledKernels, MatvecAndMatmulTShareReductionOrder) {
  // The contract behind Mlp::forward_batch bit-identity: a 1-row matmul_t
  // and matvec_into reduce in the same fixed lane order.
  util::Rng rng(106);
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 64u, 129u}) {
    const auto a = random_matrix(1, k, rng);
    const auto b = random_matrix(1, k, rng);
    std::vector<double> y;
    linalg::matvec_into(a, b.row(0), y);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(matmul_t(a, b)(0, 0), y[0]) << "k=" << k;
  }
}

TEST(TiledKernels, KTiledMatmulTMatchesSinglePassBitExactly) {
  // Reduction dimensions beyond the k-tile width (2048) take the chunked
  // accumulation path with carried lane accumulators; lane k % 16 is
  // preserved across chunk boundaries, so every element must equal the
  // single-pass matvec bit for bit (and the reference within tolerance).
  util::Rng rng(108);
  for (std::size_t k : {2049u, 4096u, 5003u}) {
    const auto a = random_matrix(3, k, rng);
    const auto b = random_matrix(5, k, rng);
    const auto tiled = matmul_t(a, b);
    expect_near(tiled, linalg::matmul_t_reference(a, b));
    std::vector<double> single;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      linalg::matvec_into(b, a.row(i), single);
      for (std::size_t j = 0; j < b.rows(); ++j)
        EXPECT_EQ(tiled(i, j), single[j])
            << "k=" << k << " at (" << i << ", " << j << ")";
    }
  }
}

TEST(TiledKernels, RandomizedShapesSweep) {
  util::Rng rng(107);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + rng.uniform_index(40);
    const std::size_t k = 1 + rng.uniform_index(40);
    const std::size_t n = 1 + rng.uniform_index(40);
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto bt = b.transposed();
    expect_near(matmul(a, b), linalg::matmul_reference(a, b));
    expect_near(matmul_t(a, bt), linalg::matmul_t_reference(a, bt));
    const auto at = a.transposed();
    expect_near(t_matmul(at, b), linalg::t_matmul_reference(at, b));
  }
}

// --- range and column-list kernels --------------------------------------------

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(RangeKernels, AnyCutGivesTheWholeProductBitForBit) {
  // Pool callers split a product's outputs into ranges; each element's
  // reduction order must not depend on the cut (k = 2049 takes the k-tiled
  // matmul_t path).
  util::Rng rng(112);
  for (const Shape& s : {Shape{9, 13, 70}, Shape{16, 2049, 37}}) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto bt = random_matrix(s.n, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    const auto at = random_matrix(s.k, s.m, rng);
    const auto bm = random_matrix(s.k, s.n, rng);
    for (std::size_t cut : {1u, 5u, 32u, 33u, 1000u}) {
      linalg::Matrix mt(s.m, s.n), mm(s.m, s.n), tm(s.m, s.n);
      for (std::size_t j0 = 0; j0 < s.n; j0 += cut) {
        const std::size_t j1 = std::min(s.n, j0 + cut);
        linalg::matmul_t_into(a, bt, j0, j1, mt);
        linalg::matmul_into(a, b, j0, j1, mm);
      }
      for (std::size_t i0 = 0; i0 < s.m; i0 += cut)
        linalg::t_matmul_accum(at, bm, i0, std::min(s.m, i0 + cut), tm);
      const std::string what = "k=" + std::to_string(s.k) +
                               " cut=" + std::to_string(cut);
      EXPECT_TRUE(same_bits(mt, matmul_t(a, bt))) << what;
      EXPECT_TRUE(same_bits(mm, matmul(a, b))) << what;
      EXPECT_TRUE(same_bits(tm, t_matmul(at, bm))) << what;
    }
    // A range writes its own outputs only.
    linalg::Matrix part(s.m, s.n, 7.0);
    linalg::matmul_t_into(a, bt, 1, 3, part);
    linalg::matmul_into(a, b, 1, 3, part);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t j = 0; j < s.n; ++j)
        if (j < 1 || j >= 3) {
          EXPECT_EQ(part(i, j), 7.0);
        }
  }
}

TEST(RangeKernels, TMatmulAccumAddsOntoExistingValues) {
  util::Rng rng(113);
  const auto a = random_matrix(7, 5, rng);
  const auto b = random_matrix(7, 6, rng);
  linalg::Matrix out(5, 6, 0.5);
  linalg::t_matmul_accum(a, b, 0, 5, out);
  const auto want = t_matmul(a, b);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(out(i, j), 0.5 + want(i, j), 1e-12);
}

TEST(ColumnListKernels, BitIdenticalToTheZeroPaddedFullWidthProduct) {
  // The active-input training passes: the left (matmul_t) or right
  // (t_matmul) operand is zero outside `cols`, the other operand is finite
  // everywhere. Lanes must follow the full-width column index.
  util::Rng rng(114);
  for (const std::size_t width : {40u, 2100u}) {
    for (const double density : {0.0, 0.05, 0.3, 0.9}) {
      std::vector<std::size_t> cols;
      for (std::size_t c = 0; c < width; ++c)
        if (rng.bernoulli(density)) cols.push_back(c);
      const std::size_t rows = 9, n = 11;
      linalg::Matrix compact(rows, cols.size());
      linalg::Matrix full(rows, width);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < cols.size(); ++i) {
          const double v = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-1.0, 1.0);
          compact(r, i) = v;
          full(r, cols[i]) = v;
        }
      const auto w = random_matrix(n, width, rng);
      const std::string what = "width=" + std::to_string(width) +
                               " active=" + std::to_string(cols.size());

      linalg::Matrix got(rows, n);
      linalg::matmul_t_into(compact, cols, w, 0, 4, got);
      linalg::matmul_t_into(compact, cols, w, 4, n, got);
      EXPECT_TRUE(same_bits(got, matmul_t(full, w))) << what;

      const auto delta = random_matrix(rows, n, rng);
      linalg::Matrix grad(n, width, 7.0);  // sentinel outside `cols`
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c : cols) grad(r, c) = 0.0;
      linalg::t_matmul_accum(delta, compact, cols, 0, 3, grad);
      linalg::t_matmul_accum(delta, compact, cols, 3, n, grad);
      const auto want = t_matmul(delta, full);
      for (std::size_t r = 0; r < n; ++r) {
        std::size_t next = 0;
        for (std::size_t c = 0; c < width; ++c) {
          const bool on = next < cols.size() && cols[next] == c;
          if (on) ++next;
          const double expect = on ? want(r, c) : 7.0;
          ASSERT_EQ(std::memcmp(&expect, &grad.row(r)[c], sizeof expect), 0)
              << what << " at (" << r << ", " << c << ")";
        }
      }
    }
  }
}

TEST(ColumnListKernels, RejectMalformedListsAndRanges) {
  const linalg::Matrix a(2, 2), w(3, 6), delta(2, 3);
  linalg::Matrix out(2, 3), grad(3, 6);
  const std::vector<std::size_t> descending{4, 2}, repeated{1, 1},
      out_of_range{2, 6}, ok{1, 5};
  for (const auto* bad : {&descending, &repeated, &out_of_range}) {
    EXPECT_THROW(linalg::matmul_t_into(a, *bad, w, 0, 3, out),
                 std::invalid_argument);
    EXPECT_THROW(linalg::t_matmul_accum(delta, a, *bad, 0, 3, grad),
                 std::invalid_argument);
  }
  EXPECT_THROW(linalg::matmul_t_into(a, ok, w, 2, 4, out),
               std::invalid_argument);
  EXPECT_THROW(linalg::matmul_t_into(a, ok, w, 2, 1, out),
               std::invalid_argument);
  EXPECT_THROW(linalg::t_matmul_accum(delta, a, ok, 0, 4, grad),
               std::invalid_argument);
  linalg::Matrix small(2, 2);
  EXPECT_THROW(linalg::matmul_t_into(a, ok, w, 0, 2, small),
               std::invalid_argument);
  linalg::Matrix prod(2, 4);
  EXPECT_THROW(linalg::matmul_into(a, linalg::Matrix(2, 4), 0, 5, prod),
               std::invalid_argument);
  EXPECT_NO_THROW(linalg::matmul_t_into(a, ok, w, 0, 3, out));
}

// --- sparse-input matvec -----------------------------------------------------

struct SparseInput {
  std::vector<std::size_t> index;
  std::vector<double> value;
  std::vector<double> dense;
};

// Each index is active with probability `density`; an active entry is an
// explicit zero with probability `zero_frac`, so zeros inside the active
// list are exercised alongside the omitted ones.
SparseInput random_sparse(std::size_t in, double density, double zero_frac,
                          util::Rng& rng) {
  SparseInput x;
  x.dense.assign(in, 0.0);
  for (std::size_t k = 0; k < in; ++k) {
    if (!rng.bernoulli(density)) continue;
    const double v = rng.bernoulli(zero_frac) ? 0.0 : rng.uniform(-1.0, 1.0);
    x.index.push_back(k);
    x.value.push_back(v);
    x.dense[k] = v;
  }
  return x;
}

// matvec_sparse_into on x alone: a batch of one row.
std::vector<double> sparse_row(const linalg::Matrix& at, const SparseInput& x) {
  const linalg::SparseRow row{x.index, x.value};
  linalg::Matrix y;
  linalg::matvec_sparse_into(at, std::span(&row, 1), y);
  return {y.flat().begin(), y.flat().end()};
}

// Bitwise comparison: matvec_sparse_into promises the dense kernel's exact
// result, signed zeros included, not a value within tolerance.
void expect_sparse_matches_dense(const linalg::Matrix& a, const SparseInput& x,
                                 const std::string& what) {
  std::vector<double> dense;
  linalg::matvec_into(a, x.dense, dense);
  const std::vector<double> sparse = sparse_row(a.transposed(), x);
  ASSERT_EQ(sparse.size(), dense.size()) << what;
  EXPECT_EQ(std::memcmp(sparse.data(), dense.data(),
                        dense.size() * sizeof(double)),
            0)
      << what;
}

TEST(SparseMatvec, BitIdenticalToMatvecAcrossDensitiesAndWidths) {
  util::Rng rng(109);
  for (std::size_t in : {37u, 15840u})
    for (std::size_t out : {1u, 7u, 128u, 200u})
      for (double density : {0.0, 0.01, 0.5, 1.0}) {
        const auto a = random_matrix(out, in, rng);
        const auto x = random_sparse(in, density, 0.1, rng);
        expect_sparse_matches_dense(
            a, x,
            "in=" + std::to_string(in) + " out=" + std::to_string(out) +
                " density=" + std::to_string(density));
      }
}

TEST(SparseMatvec, EveryLaneAndWindowPosition) {
  // Actives at k = j and k = j + 16m for every lane j, in runs that put
  // 1..4 terms of one lane into the same 64-wide window, plus a lone index
  // at the end of a window.
  util::Rng rng(110);
  const std::size_t in = 200, out = 9;
  const auto a = random_matrix(out, in, rng);
  for (std::size_t stride : {1u, 3u, 16u, 17u, 32u, 63u, 64u}) {
    for (std::size_t start = 0; start < 16; ++start) {
      SparseInput x;
      x.dense.assign(in, 0.0);
      for (std::size_t k = start; k < in; k += stride) {
        const double v = rng.uniform(-1.0, 1.0);
        x.index.push_back(k);
        x.value.push_back(v);
        x.dense[k] = v;
      }
      expect_sparse_matches_dense(a, x,
                                  "stride=" + std::to_string(stride) +
                                      " start=" + std::to_string(start));
    }
  }
}

TEST(SparseMatvec, AllExplicitZerosGivePositiveZero) {
  util::Rng rng(111);
  const auto a = random_matrix(5, 40, rng);
  const auto x = random_sparse(40, 0.5, 1.0, rng);
  ASSERT_FALSE(x.index.empty());
  expect_sparse_matches_dense(a, x, "all zeros");
  for (double v : sparse_row(a.transposed(), x))
    EXPECT_FALSE(std::signbit(v));
}

TEST(SparseMatvec, RejectsMalformedActiveLists) {
  const linalg::Matrix at(10, 3, 1.0);
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<std::size_t> descending = {4, 2};
  const std::vector<std::size_t> repeated = {4, 4};
  const std::vector<std::size_t> out_of_range = {2, 10};
  const std::vector<std::size_t> one = {2};
  for (const auto* bad : {&descending, &repeated, &out_of_range, &one}) {
    const linalg::SparseRow row{*bad, two};
    linalg::Matrix y;
    EXPECT_THROW(linalg::matvec_sparse_into(at, std::span(&row, 1), y),
                 std::invalid_argument);
  }
}

// --- batched rows ---------------------------------------------------------------

// Row b of a batched call must carry the bytes of the single-row call on x_b
// (and so of the dense matvec), for every batch size up to xs.size().
void expect_batches_match_rows(const linalg::Matrix& a,
                               const std::vector<SparseInput>& xs,
                               const std::string& what) {
  const linalg::Matrix at = a.transposed();
  for (std::size_t batch = 1; batch <= xs.size(); ++batch) {
    std::vector<linalg::SparseRow> rows;
    for (std::size_t b = 0; b < batch; ++b)
      rows.push_back({xs[b].index, xs[b].value});
    linalg::Matrix y;
    linalg::matvec_sparse_into(at, rows, y);
    ASSERT_EQ(y.rows(), batch) << what;
    ASSERT_EQ(y.cols(), a.rows()) << what;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::vector<double> single = sparse_row(at, xs[b]);
      std::vector<double> dense;
      linalg::matvec_into(a, xs[b].dense, dense);
      const std::size_t bytes = a.rows() * sizeof(double);
      EXPECT_EQ(std::memcmp(y.row(b).data(), single.data(), bytes), 0)
          << what << ": row " << b << " of " << batch;
      EXPECT_EQ(std::memcmp(single.data(), dense.data(), bytes), 0)
          << what << ": row " << b;
    }
  }
}

/// Rows whose active sets are the residues k % count == b: disjoint.
std::vector<SparseInput> disjoint_rows(std::size_t in, std::size_t count,
                                       util::Rng& rng) {
  std::vector<SparseInput> xs(count);
  for (std::size_t b = 0; b < count; ++b) {
    xs[b].dense.assign(in, 0.0);
    for (std::size_t k = b; k < in; k += count) {
      const double v = rng.uniform(-1.0, 1.0);
      xs[b].index.push_back(k);
      xs[b].value.push_back(v);
      xs[b].dense[k] = v;
    }
  }
  return xs;
}

TEST(SparseMatvecBatch, EveryBatchSizeMatchesItsRowsAlone) {
  util::Rng rng(112);
  // 130 outputs cross the 128-wide output block; 1000 inputs span many
  // 64-index windows.
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{200, 9},
                               {1000, 130}}) {
    const auto a = random_matrix(out, in, rng);
    const std::string shape =
        "in=" + std::to_string(in) + " out=" + std::to_string(out);

    std::vector<SparseInput> dense_rows;
    for (int b = 0; b < 8; ++b)
      dense_rows.push_back(random_sparse(in, 1.0, 0.0, rng));
    expect_batches_match_rows(a, dense_rows, shape + " dense");

    expect_batches_match_rows(a, disjoint_rows(in, 8, rng),
                              shape + " disjoint");

    // Different active sets, explicit zeros among them, an all-zero row in
    // the middle and another at the end.
    std::vector<SparseInput> mixed;
    for (const double density : {0.01, 0.3, 0.0, 0.9, 1.0, 0.05, 0.5, 0.0})
      mixed.push_back(random_sparse(in, density, 0.1, rng));
    expect_batches_match_rows(a, mixed, shape + " mixed");
  }
}

TEST(SparseMatvecBatch, BatchesLargerThanARowGroup) {
  // Rows are folded in groups of four; 11 rows cross two group boundaries.
  util::Rng rng(113);
  const auto a = random_matrix(20, 300, rng);
  std::vector<SparseInput> xs;
  for (int b = 0; b < 11; ++b)
    xs.push_back(random_sparse(300, 0.1 * (b % 5), 0.1, rng));
  expect_batches_match_rows(a, xs, "11 rows");
}

TEST(SparseMatvecBatch, RejectsAMalformedRowAtAnyPosition) {
  const linalg::Matrix at(10, 3, 1.0);
  const std::vector<double> two = {1.0, 2.0};
  const std::vector<std::size_t> good = {1, 7};
  const std::vector<std::size_t> descending = {4, 2};
  const std::vector<std::size_t> repeated = {4, 4};
  const std::vector<std::size_t> out_of_range = {2, 10};
  const std::vector<double> one = {1.0};
  const linalg::SparseRow ok{good, two};
  const linalg::SparseRow bad[] = {
      {descending, two}, {repeated, two}, {out_of_range, two}, {good, one}};
  for (const linalg::SparseRow& b : bad)
    for (std::size_t pos = 0; pos < 3; ++pos) {
      std::vector<linalg::SparseRow> rows(3, ok);
      rows[pos] = b;
      linalg::Matrix y;
      EXPECT_THROW(linalg::matvec_sparse_into(at, rows, y),
                   std::invalid_argument)
          << "bad row at " << pos;
    }
}

TEST(MatmulTBatch, EveryBatchSizeMatchesMatvecRowsAlone) {
  // The contract behind Mlp::forward_sparse's later layers: row b of
  // x * transpose(A) is bit-identical to matvec_into on x.row(b), whatever
  // the batch size (9 or more rows cross the kernel's 8-row block).
  util::Rng rng(114);
  for (const std::size_t k : {7u, 128u, 300u}) {
    const auto a = random_matrix(37, k, rng);
    const auto x = random_matrix(11, k, rng);
    for (std::size_t batch = 1; batch <= 11; ++batch) {
      linalg::Matrix xb(batch, k);
      std::copy(x.flat().begin(), x.flat().begin() + batch * k,
                xb.flat().begin());
      linalg::Matrix y(batch, a.rows());
      linalg::matmul_t_into(xb, a, 0, a.rows(), y);
      for (std::size_t b = 0; b < batch; ++b) {
        std::vector<double> single;
        linalg::matvec_into(a, x.row(b), single);
        EXPECT_EQ(std::memcmp(y.row(b).data(), single.data(),
                              single.size() * sizeof(double)),
                  0)
            << "k=" << k << " row " << b << " of " << batch;
      }
    }
  }
}

}  // namespace
}  // namespace figret
