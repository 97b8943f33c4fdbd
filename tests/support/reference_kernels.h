// Pre-optimization matrix kernels: the plain triple loops the tiled/SIMD
// kernels of linalg/matrix.h replaced. They are the differential oracles of
// tests/test_kernels.cpp and the baseline column of bench_fabric_scale, and
// are deliberately compiled without ISA clones.
#pragma once

#include "linalg/matrix.h"

namespace figret::linalg {

/// a * b (i-k-j order, skipping zero entries of a).
Matrix matmul_reference(const Matrix& a, const Matrix& b);
/// transpose(a) * b (skipping zero entries of a).
Matrix t_matmul_reference(const Matrix& a, const Matrix& b);
/// a * transpose(b), one single-accumulator dot per element.
Matrix matmul_t_reference(const Matrix& a, const Matrix& b);

}  // namespace figret::linalg
