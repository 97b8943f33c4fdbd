// Minimal dense row-major matrix and the kernels the neural-network
// substrate runs on. Deliberately not a general linear-algebra framework:
// only the products the MLP's served and trained passes need, each with
// checked dimensions (throws std::invalid_argument on mismatch).
//
// Kernel design (fabric-scale hot paths): every product is an `_into` /
// `_accum` kernel that computes one range of its outputs into a caller's
// matrix, so callers can spread a product over a thread pool: each output
// element's reduction order never depends on the range. The kernels are
// cache-blocked and tiled with branch-free, explicitly vectorizable
// microkernels — 16 independent accumulator chains per reduction so the
// compiler can keep FMA pipelines full without -ffast-math reassociation.
// Every reduction (matvec, sparse-input matvec, matmul_t element) sums in
// the *same* fixed order, so the batched NN forward and the sparse-input
// serving forward are bit-identical to the per-sample path. The
// pre-optimization kernels are differential-test oracles and live with the
// tests (tests/support/reference_kernels.h), not here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace figret::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> flat() noexcept { return data_; }
  std::span<const double> flat() const noexcept { return data_; }

  /// Becomes a zero rows x cols matrix, reusing the storage: allocation-free
  /// once the capacity suffices.
  void reset(std::size_t rows, std::size_t cols);

  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A x for a dense vector x, allocation-free once y has capacity: y is
/// resized to a.rows(). Each y[i] sums its terms a(i, k) * x[k] in 16 lane
/// chains (lane k % 16, ascending k) combined by a fixed pairwise tree — the
/// reduction order every kernel here shares.
void matvec_into(const Matrix& a, std::span<const double> x,
                 std::vector<double>& y);

/// Throws std::invalid_argument, naming `what`, unless `index` is strictly
/// ascending and every entry is below `limit`: the index and column lists
/// the sparse kernels take.
void check_indices(std::span<const std::size_t> index, std::size_t limit,
                   const char* what);

/// One sparse input row: x[index[i]] = value[i], every other entry zero.
/// `index` must be strictly ascending, with value.size() == index.size().
struct SparseRow {
  std::span<const std::size_t> index;
  std::span<const double> value;
};

/// Row b of `y` = A x_b for the sparse rows x_b, reading only the rows of
/// `at` = transpose(A) ([A.cols() x A.rows()]) that some row's active
/// entries name; `y` becomes [rows.size() x at.cols()]. Every row's indices
/// must be strictly ascending and below at.rows(), with as many values as
/// indices (std::invalid_argument otherwise). The union of active indices is
/// walked in aligned windows of 64, and each window's rows of `at` are loaded
/// once for the whole batch: one weight sweep per call, whatever the batch.
/// Each y(b, i) reduces in the same lane order as matvec_into on the dense
/// x_b, so for finite `at` row b is bit-identical to it, and to a batch of
/// that row alone: an omitted zero term leaves its lane unchanged (lanes
/// start at +0 and never become -0). Explicit zeros in a row's values are
/// allowed. Allocation-free once `y` has capacity.
void matvec_sparse_into(const Matrix& at, std::span<const SparseRow> rows,
                        Matrix& y);

/// Columns [j0, j1) of a * transpose(b): out(i, j) = a.row(i) . b.row(j) for
/// every row i of `a`, in matvec_into's lane order (so row i of the product
/// is bit-identical to matvec_into(b, a.row(i))). `out` must be [a.rows() x
/// b.rows()]; its other columns are left as they are.
void matmul_t_into(const Matrix& a, const Matrix& b, std::size_t j0,
                   std::size_t j1, Matrix& out);

/// The same columns for a left operand whose only nonzero columns are `cols`
/// (strictly ascending, below b.cols()): column i of `a` ([rows x
/// cols.size()]) holds column cols[i] of the full-width operand. Reads only
/// those columns of `b`, and each term keeps the lane cols[i] % 16 it has in
/// the full-width product, so for finite `b` the result is bit-identical to
/// matmul_t_into on the full-width operand (an omitted zero term leaves its
/// lane unchanged, as in matvec_sparse_into).
void matmul_t_into(const Matrix& a, std::span<const std::size_t> cols,
                   const Matrix& b, std::size_t j0, std::size_t j1,
                   Matrix& out);

/// Rows [i0, i1) of out += transpose(a) * b. Each element adds its terms
/// k = 0, 1, ... onto its current value four at a time (then one at a time
/// for the last rows() % 4), whatever the range. `out` must be [a.cols() x
/// b.cols()].
void t_matmul_accum(const Matrix& a, const Matrix& b, std::size_t i0,
                    std::size_t i1, Matrix& out);

/// The same for a right operand whose only nonzero columns are `cols`
/// (strictly ascending, below out.cols()): column j of `b` ([rows x
/// cols.size()]) holds column cols[j] of the full-width operand, and only
/// the columns `cols` of out's rows are touched.
void t_matmul_accum(const Matrix& a, const Matrix& b,
                    std::span<const std::size_t> cols, std::size_t i0,
                    std::size_t i1, Matrix& out);

/// Columns [j0, j1) of a * b: each element starts at zero and adds its
/// terms k = 0, 1, ... four at a time (then one at a time for the last
/// a.cols() % 4), whatever the range. `out` must be [a.rows() x b.cols()];
/// its other columns are left as they are.
void matmul_into(const Matrix& a, const Matrix& b, std::size_t j0,
                 std::size_t j1, Matrix& out);

}  // namespace figret::linalg
