#include "lp/sparse.h"

#include <stdexcept>

namespace figret::lp {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  SparseMatrix m;
  m.assign(rows, cols, triplets);
  return m;
}

void SparseMatrix::assign(std::size_t rows, std::size_t cols,
                          std::span<const Triplet> triplets,
                          std::vector<std::size_t>* slot_of) {
  for (const Triplet& t : triplets)
    if (t.row >= rows || t.col >= cols)
      throw std::out_of_range("SparseMatrix: triplet outside matrix shape");
  const std::size_t n = triplets.size();

  // Two stable counting-sort passes, O(nnz + rows + cols): by row, then by
  // column. Each column comes out in row order, and duplicates of one
  // (row, col) stay in input order, which fixes their summation order.
  // order_ holds two lists of triplet ids: [0, n) sorted by row, and
  // [n, 2n) the triplet placed at each stored position (for slot_of).
  next_.assign(rows + 1, 0);
  for (const Triplet& t : triplets) ++next_[t.row + 1];
  for (std::size_t r = 0; r < rows; ++r) next_[r + 1] += next_[r];
  std::vector<std::uint32_t>& by_row = order_;
  by_row.resize(2 * n);
  for (std::size_t k = 0; k < n; ++k)
    by_row[next_[triplets[k].row]++] = static_cast<std::uint32_t>(k);

  rows_ = rows;
  cols_ = cols;
  col_ptr_.assign(cols + 1, 0);
  for (const Triplet& t : triplets) ++col_ptr_[t.col + 1];
  for (std::size_t j = 0; j < cols; ++j) col_ptr_[j + 1] += col_ptr_[j];
  next_.assign(col_ptr_.begin(), col_ptr_.end() - 1);
  row_index_.resize(n);
  values_.resize(n);
  std::uint32_t* const placed = by_row.data() + n;
  for (std::size_t s = 0; s < n; ++s) {
    const Triplet& t = triplets[by_row[s]];
    const std::size_t k = next_[t.col]++;
    row_index_[k] = t.row;
    values_[k] = t.value;
    placed[k] = by_row[s];
  }

  // Accumulate duplicates and drop zeros in place.
  if (slot_of) slot_of->assign(n, kDropped);
  std::size_t in = 0, out = 0;
  for (std::size_t j = 0; j < cols; ++j) {
    const std::size_t end = col_ptr_[j + 1];
    while (in < end) {
      const std::size_t first = in;
      const std::uint32_t r = row_index_[in];
      double v = values_[in++];
      while (in < end && row_index_[in] == r) v += values_[in++];
      if (v == 0.0) continue;
      if (slot_of)
        for (std::size_t q = first; q < in; ++q) (*slot_of)[placed[q]] = out;
      row_index_[out] = r;
      values_[out++] = v;
    }
    col_ptr_[j + 1] = out;
  }
  row_index_.resize(out);
  values_.resize(out);
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
