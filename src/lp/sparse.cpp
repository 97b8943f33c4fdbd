#include "lp/sparse.h"

#include <stdexcept>

namespace figret::lp {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets)
    if (t.row >= rows || t.col >= cols)
      throw std::out_of_range("SparseMatrix: triplet outside matrix shape");

  // Two stable counting-sort passes, O(nnz + rows + cols): by row, then by
  // column. Each column comes out in row order, and duplicates of one
  // (row, col) stay in input order, which fixes their summation order.
  std::vector<std::size_t> next(rows + 1, 0);
  for (const Triplet& t : triplets) ++next[t.row + 1];
  for (std::size_t r = 0; r < rows; ++r) next[r + 1] += next[r];
  std::vector<Triplet> by_row(triplets.size());
  for (const Triplet& t : triplets) by_row[next[t.row]++] = t;

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_ptr_.assign(cols + 1, 0);
  for (const Triplet& t : by_row) ++m.col_ptr_[t.col + 1];
  for (std::size_t j = 0; j < cols; ++j) m.col_ptr_[j + 1] += m.col_ptr_[j];
  next.assign(m.col_ptr_.begin(), m.col_ptr_.end() - 1);
  m.row_index_.resize(by_row.size());
  m.values_.resize(by_row.size());
  for (const Triplet& t : by_row) {
    const std::size_t k = next[t.col]++;
    m.row_index_[k] = t.row;
    m.values_[k] = t.value;
  }

  // Accumulate duplicates and drop zeros in place.
  std::size_t in = 0, out = 0;
  for (std::size_t j = 0; j < cols; ++j) {
    const std::size_t end = m.col_ptr_[j + 1];
    while (in < end) {
      const std::uint32_t r = m.row_index_[in];
      double v = m.values_[in++];
      while (in < end && m.row_index_[in] == r) v += m.values_[in++];
      if (v != 0.0) {
        m.row_index_[out] = r;
        m.values_[out++] = v;
      }
    }
    m.col_ptr_[j + 1] = out;
  }
  m.row_index_.resize(out);
  m.values_.resize(out);
  return m;
}

void SparseMatrix::add_col_times(std::size_t j, double scale,
                                 std::vector<double>& dense) const {
  const auto rows = col_rows(j);
  const auto vals = col_values(j);
  for (std::size_t k = 0; k < rows.size(); ++k)
    dense[rows[k]] += scale * vals[k];
}

void SparseMatrix::scatter_col(std::size_t j,
                               std::vector<double>& dense) const {
  dense.assign(rows_, 0.0);
  const auto rows = col_rows(j);
  const auto vals = col_values(j);
  for (std::size_t k = 0; k < rows.size(); ++k) dense[rows[k]] = vals[k];
}

double SparseMatrix::dot_col(std::size_t j, const std::vector<double>& y)
    const {
  const auto rows = col_rows(j);
  const auto vals = col_values(j);
  double acc = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) acc += vals[k] * y[rows[k]];
  return acc;
}

}  // namespace figret::lp
