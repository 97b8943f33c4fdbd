#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace figret::linalg {
namespace {

Matrix from_rows(std::size_t rows, std::size_t cols,
                 std::initializer_list<double> data) {
  Matrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.flat().begin());
  return m;
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, MatmulKnownResult) {
  const Matrix a = from_rows(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = from_rows(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c(2, 2);
  matmul_into(a, b, 0, 2, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  Matrix out(2, 3);
  EXPECT_THROW(matmul_into(a, b, 0, 3, out), std::invalid_argument);
  EXPECT_THROW(matmul_t_into(a, Matrix(2, 4), 0, 2, out),
               std::invalid_argument);
  EXPECT_THROW(t_matmul_accum(a, Matrix(3, 3), 0, 3, out),
               std::invalid_argument);
  Matrix wrong(3, 3);
  EXPECT_THROW(matmul_into(a, Matrix(3, 2), 0, 2, wrong),
               std::invalid_argument);
  EXPECT_THROW(matmul_t_into(a, b, 0, 2, wrong), std::invalid_argument);
  EXPECT_THROW(t_matmul_accum(a, b, 0, 3, out), std::invalid_argument);
}

TEST(Matrix, TransposedMatmulEqualsExplicitTranspose) {
  const Matrix a = from_rows(3, 2, {1, 2, 3, 4, 5, 6});
  const Matrix b = from_rows(3, 2, {1, 0, 0, 1, 1, 1});
  Matrix expected(2, 2), got(2, 2);
  matmul_into(a.transposed(), b, 0, 2, expected);
  t_matmul_accum(a, b, 0, 2, got);
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c)
      EXPECT_DOUBLE_EQ(got(r, c), expected(r, c));
}

TEST(Matrix, MatmulTransposeEqualsExplicit) {
  const Matrix a = from_rows(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = from_rows(4, 3, {1, 1, 1, 0, 1, 0, 2, 0, 2, 1, 2, 3});
  Matrix expected(2, 4), got(2, 4);
  matmul_into(a, b.transposed(), 0, 4, expected);
  matmul_t_into(a, b, 0, 4, got);
  for (std::size_t r = 0; r < got.rows(); ++r)
    for (std::size_t c = 0; c < got.cols(); ++c)
      EXPECT_DOUBLE_EQ(got(r, c), expected(r, c));
}

TEST(VectorOps, MatvecKnownResult) {
  const Matrix a = from_rows(2, 3, {1, 0, 2, 0, 1, 1});
  const std::vector<double> x{1, 2, 3};
  std::vector<double> y;
  matvec_into(a, x, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(VectorOps, MatvecDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const std::vector<double> x{1, 2};
  std::vector<double> y;
  EXPECT_THROW(matvec_into(a, x, y), std::invalid_argument);
}

}  // namespace
}  // namespace figret::linalg
