// Differential tests for the tiled/SIMD linalg kernels against the
// pre-optimization reference kernels, over random shapes including ragged
// tiles (dimensions that are not multiples of the unroll widths).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
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
    expect_near(a.matmul(b), a.matmul_reference(b));
  }
}

TEST(TiledKernels, TMatmulMatchesReferenceOnRaggedShapes) {
  util::Rng rng(102);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.k, s.m, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    expect_near(a.t_matmul(b), a.t_matmul_reference(b));
  }
}

TEST(TiledKernels, MatmulTMatchesReferenceOnRaggedShapes) {
  util::Rng rng(103);
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.n, s.k, rng);
    expect_near(a.matmul_t(b), a.matmul_t_reference(b));
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
    expect_near(a.matmul(b), a.matmul_reference(b));
    const auto at = a.transposed();
    expect_near(at.t_matmul(b), at.t_matmul_reference(b));
  }
}

TEST(TiledKernels, DotMatvecAndMatmulTShareReductionOrder) {
  // The contract behind Mlp::forward_batch bit-identity: a 1-row matmul_t,
  // matvec_into, and dot all reduce in the same fixed lane order.
  util::Rng rng(106);
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 64u, 129u}) {
    const auto a = random_matrix(1, k, rng);
    const auto b = random_matrix(1, k, rng);
    const double via_dot = linalg::dot(a.row(0), b.row(0));
    const auto via_mm = a.matmul_t(b);
    std::vector<double> y;
    linalg::matvec_into(a, b.row(0), y);
    EXPECT_EQ(via_dot, via_mm(0, 0)) << "k=" << k;
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(via_dot, y[0]) << "k=" << k;
  }
}

TEST(TiledKernels, KTiledMatmulTMatchesSinglePassBitExactly) {
  // Reduction dimensions beyond the k-tile width (2048) take the chunked
  // accumulation path with carried lane accumulators; lane k % 16 is
  // preserved across chunk boundaries, so every element must equal the
  // single-pass dot bit for bit (and the reference within tolerance).
  util::Rng rng(108);
  for (std::size_t k : {2049u, 4096u, 5003u}) {
    const auto a = random_matrix(3, k, rng);
    const auto b = random_matrix(5, k, rng);
    const auto tiled = a.matmul_t(b);
    expect_near(tiled, a.matmul_t_reference(b));
    for (std::size_t i = 0; i < a.rows(); ++i)
      for (std::size_t j = 0; j < b.rows(); ++j)
        EXPECT_EQ(tiled(i, j), linalg::dot(a.row(i), b.row(j)))
            << "k=" << k << " at (" << i << ", " << j << ")";
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
    expect_near(a.matmul(b), a.matmul_reference(b));
    expect_near(a.matmul_t(bt), a.matmul_t_reference(bt));
    const auto at = a.transposed();
    expect_near(at.t_matmul(b), at.t_matmul_reference(b));
  }
}

}  // namespace
}  // namespace figret
