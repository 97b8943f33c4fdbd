#include "support/reference_kernels.h"

#include <stdexcept>

namespace figret::linalg {

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul_reference: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Matrix t_matmul_reference(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("t_matmul_reference: dimension mismatch");
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aki * b(k, j);
    }
  }
  return out;
}

Matrix matmul_t_reference(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("matmul_t_reference: dimension mismatch");
  Matrix out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::span<const double> arow = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      const std::span<const double> brow = b.row(j);
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      out(i, j) = acc;
    }
  }
  return out;
}

}  // namespace figret::linalg

namespace figret::te {

void edge_loads_reference_into(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& out) {
  if (config.size() != ps.num_paths())
    throw std::invalid_argument("edge_loads: config size mismatch");
  if (demand.size() != ps.num_pairs())
    throw std::invalid_argument("edge_loads: demand size mismatch");
  out.assign(ps.num_edges(), 0.0);
  for (std::size_t pid = 0; pid < ps.num_paths(); ++pid) {
    const double flow = demand[ps.pair_of_path(pid)] * config[pid];
    if (flow == 0.0) continue;
    for (net::EdgeId e : ps.path_edges(pid)) out[e] += flow;
  }
}

}  // namespace figret::te
