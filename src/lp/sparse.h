// Compressed-sparse-column (CSC) storage for the revised simplex.
//
// The TE LPs are very sparse: each structural column (one candidate path)
// touches only its pair's conservation row and the capacity rows of the edges
// it crosses, and every logical column is a unit vector. The revised simplex
// prices and FTRANs by column, so CSC is the natural layout — the dense
// tableau's O(rows * cols) pivot cost becomes O(nnz) pricing plus O(rows)
// eta updates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace figret::lp {

/// One nonzero for building a SparseMatrix.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

/// CSC matrix. Duplicate (row, col) triplets are accumulated at build time;
/// explicit zeros are dropped. The pattern is fixed once built; the values
/// may be rewritten in place (values()).
class SparseMatrix {
 public:
  /// slot_of entry of a triplet whose (row, col) entry summed to zero.
  static constexpr std::size_t kDropped = static_cast<std::size_t>(-1);

  SparseMatrix() = default;

  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  /// Rebuilds this matrix from `triplets`, as from_triplets does, in its own
  /// storage: reassembling a matrix no larger than before allocates nothing.
  /// `slot_of` (optional out) receives, per triplet, the index into values()
  /// of the entry it was summed into, or kDropped.
  void assign(std::size_t rows, std::size_t cols,
              std::span<const Triplet> triplets,
              std::vector<std::size_t>* slot_of = nullptr);

  /// The stored values in column order (CSC), for changing the numbers of
  /// an unchanged pattern in place.
  std::span<double> values() noexcept { return values_; }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  std::span<const std::uint32_t> col_rows(std::size_t j) const {
    return {row_index_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
  }
  std::span<const double> col_values(std::size_t j) const {
    return {values_.data() + col_ptr_[j], col_ptr_[j + 1] - col_ptr_[j]};
  }

  /// dense += scale * column j.
  void add_col_times(std::size_t j, double scale,
                     std::vector<double>& dense) const;

  /// Returns column j scattered into a zeroed dense vector of size rows().
  void scatter_col(std::size_t j, std::vector<double>& dense) const;

  /// Sparse dot product: sum_i A(i, j) * y[i].
  double dot_col(std::size_t j, const std::vector<double>& y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> col_ptr_;     // size cols_ + 1
  std::vector<std::uint32_t> row_index_;  // size nnz
  std::vector<double> values_;            // size nnz
  // assign()'s counting-sort scratch, kept for the next reassembly.
  std::vector<std::size_t> next_;
  std::vector<std::uint32_t> order_;
};

}  // namespace figret::lp
