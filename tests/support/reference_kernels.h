// Pre-optimization kernels: the plain triple loops the tiled/SIMD matrix
// kernels of linalg/matrix.h replaced, and the path-major edge-load loop the
// pair-major te::edge_loads_into replaced. They are the differential oracles
// of tests/test_kernels.cpp and tests/test_sparse_demand.cpp and the
// baseline columns of bench_fabric_scale, and are deliberately compiled
// without ISA clones.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "te/pathset.h"
#include "traffic/demand.h"

namespace figret::linalg {

/// a * b (i-k-j order, skipping zero entries of a).
Matrix matmul_reference(const Matrix& a, const Matrix& b);
/// transpose(a) * b (skipping zero entries of a).
Matrix t_matmul_reference(const Matrix& a, const Matrix& b);
/// a * transpose(b), one single-accumulator dot per element.
Matrix matmul_t_reference(const Matrix& a, const Matrix& b);

}  // namespace figret::linalg

namespace figret::te {

/// Path-major edge loads: every global path id in order, reading the demand
/// of its pair. Bit-identical to te::edge_loads_into.
void edge_loads_reference_into(const PathSet& ps,
                               const traffic::DemandMatrix& demand,
                               const TeConfig& config,
                               std::vector<double>& out);

}  // namespace figret::te
