#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

// Runtime-dispatched ISA clones for the hot kernels: GCC emits a baseline
// x86-64 variant plus an AVX2/FMA (x86-64-v3) variant of each annotated
// function and selects via ifunc at load time, so one binary stays portable
// while fabric-scale matmuls get 256-bit FMA where the CPU has it. The
// microkernels below are force-inlined so every cloned caller compiles them
// under its own ISA; all fast kernels carry the same clone list, so on any
// given machine they resolve to the same variant and remain bitwise
// consistent with each other. ThreadSanitizer builds get no clones: the ifunc
// resolvers run during relocation, before the TSan runtime is up, and crash
// the process before main.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define FIGRET_ISA_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#define FIGRET_FORCE_INLINE inline __attribute__((always_inline))
#else
#define FIGRET_ISA_CLONES
#define FIGRET_FORCE_INLINE inline
#endif

namespace figret::linalg {
namespace {

// ---------------------------------------------------------------------------
// Microkernels. All reductions use kLanes (16) independent accumulator
// chains over lanes k % kLanes, combined by a fixed pairwise tree. Writing
// the lanes out explicitly lets the compiler vectorize without -ffast-math
// (the lane layout is exactly what SIMD hardware computes), and the fixed
// order makes every kernel that reduces — dot, matvec, matmul_t — bitwise
// consistent with the others, which is what keeps Mlp::forward_batch
// identical to per-sample forward.
// ---------------------------------------------------------------------------

constexpr std::size_t kLanes = 16;

// Accumulates lane j of `c` with products a[k]*b[k] for k = j (mod kLanes),
// in ascending k. Carrying `c` across calls lets callers tile the reduction
// dimension without changing the order: chunk boundaries at multiples of
// kLanes keep k % kLanes consistent, so a chunked accumulation is
// bit-identical to one pass.
FIGRET_FORCE_INLINE void lanes_accum(double* c, const double* a,
                                     const double* b, std::size_t n) noexcept {
  // 16 lanes = 4 independent 4-wide vector FMA chains: one vector accumulator
  // is latency-bound (a 4-5 cycle FMA chain per step), four keep the FMA
  // ports busy. Loads stay contiguous so the compiler's SLP vectorizer maps
  // lane j to vector slot j % 4 without gathers. The local copy keeps the
  // chains in registers for the whole sweep. (32 lanes was measured too: it
  // helps the longest reductions slightly but doubles the tiled-path
  // accumulator footprint and loses on short rows; 16 is the better balance.)
  double t[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) t[j] = c[j];
  std::size_t k = 0;
  for (; k + kLanes <= n; k += kLanes)
    for (std::size_t j = 0; j < kLanes; ++j) t[j] += a[k + j] * b[k + j];
  // Tail lanes continue their chains so the order stays length-independent.
  for (; k < n; ++k) t[k % kLanes] += a[k] * b[k];
  for (std::size_t j = 0; j < kLanes; ++j) c[j] = t[j];
}

// Fixed pairwise tree: ((c0+c1)+(c2+c3)) + ... — deterministic, and the
// final reduction every fast kernel (dot, matvec, matmul_t) shares.
FIGRET_FORCE_INLINE double lanes_tree(const double* c) noexcept {
  double t[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) t[j] = c[j];
  for (std::size_t w = 1; w < kLanes; w <<= 1)
    for (std::size_t j = 0; j + w < kLanes; j += 2 * w) t[j] += t[j + w];
  return t[0];
}

FIGRET_FORCE_INLINE double dot_lanes(const double* a, const double* b,
                                     std::size_t n) noexcept {
  double c[kLanes] = {0.0};
  lanes_accum(c, a, b, n);
  return lanes_tree(c);
}

// out[0..n) += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]: the rank-4 update
// shared by matmul and t_matmul. Branch-free, stride-1 on every stream, four
// FMAs per load/store of the output row.
FIGRET_FORCE_INLINE void rank4_update(double* out, std::size_t n, double a0,
                         const double* b0, double a1, const double* b1,
                         double a2, const double* b2, double a3,
                         const double* b3) noexcept {
  for (std::size_t j = 0; j < n; ++j)
    out[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
}

// Folds n <= 4 terms v[i] * w[i][o] into the lane chains t[o], in order i =
// 0, 1, ...: per element the same sequence of multiply-adds as n successive
// lanes_accum steps.
FIGRET_FORCE_INLINE void lane_terms(double* t, std::size_t width,
                                    std::size_t n, const double* const* w,
                                    const double* v) noexcept {
  switch (n) {
    case 0:
      return;
    case 1:
      for (std::size_t o = 0; o < width; ++o) t[o] += v[0] * w[0][o];
      return;
    case 2:
      for (std::size_t o = 0; o < width; ++o)
        t[o] = t[o] + v[0] * w[0][o] + v[1] * w[1][o];
      return;
    case 3:
      for (std::size_t o = 0; o < width; ++o)
        t[o] = t[o] + v[0] * w[0][o] + v[1] * w[1][o] + v[2] * w[2][o];
      return;
    default:
      for (std::size_t o = 0; o < width; ++o)
        t[o] = t[o] + v[0] * w[0][o] + v[1] * w[1][o] + v[2] * w[2][o] +
               v[3] * w[3][o];
  }
}

FIGRET_FORCE_INLINE void rank1_update(double* out, std::size_t n, double a,
                         const double* b) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] += a * b[j];
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(std::size_t rows, std::size_t cols,
                         std::vector<double> data) {
  if (data.size() != rows * cols)
    throw std::invalid_argument("Matrix::from_rows: size mismatch");
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

FIGRET_ISA_CLONES
Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_)
    throw std::invalid_argument("Matrix::matmul: inner dimension mismatch");
  Matrix out(rows_, other.cols_);
  const std::size_t n = other.cols_;
  // i-(k by 4)-j: four rows of B per sweep of the output row. No zero-skip
  // branch — the dense path must not pay a compare per scalar.
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* arow = data_.data() + i * cols_;
    double* orow = out.data_.data() + i * n;
    std::size_t k = 0;
    for (; k + 4 <= cols_; k += 4) {
      const double* b = other.data_.data() + k * n;
      rank4_update(orow, n, arow[k], b, arow[k + 1], b + n, arow[k + 2],
                   b + 2 * n, arow[k + 3], b + 3 * n);
    }
    for (; k < cols_; ++k)
      rank1_update(orow, n, arow[k], other.data_.data() + k * n);
  }
  return out;
}

FIGRET_ISA_CLONES
Matrix Matrix::t_matmul(const Matrix& other) const {
  if (rows_ != other.rows_)
    throw std::invalid_argument("Matrix::t_matmul: dimension mismatch");
  Matrix out(cols_, other.cols_);
  const std::size_t n = other.cols_;
  // (k by 4)-i-j: out(i,:) accumulates four k-terms per sweep; A is read
  // column-wise but only four scalars per output row, B rows stay hot.
  std::size_t k = 0;
  for (; k + 4 <= rows_; k += 4) {
    const double* a0 = data_.data() + k * cols_;
    const double* b0 = other.data_.data() + k * n;
    for (std::size_t i = 0; i < cols_; ++i) {
      rank4_update(out.data_.data() + i * n, n, a0[i], b0, a0[cols_ + i],
                   b0 + n, a0[2 * cols_ + i], b0 + 2 * n, a0[3 * cols_ + i],
                   b0 + 3 * n);
    }
  }
  for (; k < rows_; ++k) {
    const double* arow = data_.data() + k * cols_;
    const double* brow = other.data_.data() + k * n;
    for (std::size_t i = 0; i < cols_; ++i)
      rank1_update(out.data_.data() + i * n, n, arow[i], brow);
  }
  return out;
}

FIGRET_ISA_CLONES
Matrix Matrix::matmul_t(const Matrix& other) const {
  if (cols_ != other.cols_)
    throw std::invalid_argument("Matrix::matmul_t: dimension mismatch");
  Matrix out(rows_, other.rows_);
  // Each output element is a row-by-row dot; dot_lanes gives four independent
  // FMA chains (the naive single-accumulator loop is latency-bound because
  // FP addition cannot be reassociated). Rows of A are processed in blocks
  // with j swept innermost-but-one, so each B row streams from memory once
  // per block and is reused across the whole block from cache — at fabric
  // scale (weight matrices far larger than LLC) the unblocked loop re-streams
  // B once per A row and goes memory-bound. The per-element reduction order
  // is unchanged by the blocking, so results stay bit-identical.
  constexpr std::size_t kRowBlock = 8;
  const std::size_t oc = out.cols_;
  const std::size_t jr = other.rows_;
  // Long reduction dimensions additionally tile k so each sweep touches an
  // L1/L2-resident slice of every stream; the lane accumulators are carried
  // across tiles (k % kLanes is preserved because the tile width is a
  // multiple of kLanes), so the chunked reduction stays bit-identical to a
  // single pass. The carry buffer is bounded to ~0.5 MB — shapes with both
  // dimensions huge fall back to the untiled sweep.
  constexpr std::size_t kKTile = 2048;
  static_assert(kKTile % kLanes == 0);
  const bool tile_k = cols_ > kKTile && jr <= 512;
  std::vector<double> acc;
  for (std::size_t i0 = 0; i0 < rows_; i0 += kRowBlock) {
    const std::size_t i1 = std::min(i0 + kRowBlock, rows_);
    if (tile_k) {
      acc.assign((i1 - i0) * jr * kLanes, 0.0);
      for (std::size_t k0 = 0; k0 < cols_; k0 += kKTile) {
        const std::size_t len = std::min(kKTile, cols_ - k0);
        for (std::size_t j = 0; j < jr; ++j) {
          const double* brow = other.data_.data() + j * other.cols_ + k0;
          for (std::size_t i = i0; i < i1; ++i)
            lanes_accum(acc.data() + ((i - i0) * jr + j) * kLanes,
                        data_.data() + i * cols_ + k0, brow, len);
        }
      }
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = 0; j < jr; ++j)
          out.data_[i * oc + j] =
              lanes_tree(acc.data() + ((i - i0) * jr + j) * kLanes);
    } else {
      for (std::size_t j = 0; j < jr; ++j) {
        const double* brow = other.data_.data() + j * other.cols_;
        for (std::size_t i = i0; i < i1; ++i)
          out.data_[i * oc + j] =
              dot_lanes(data_.data() + i * cols_, brow, cols_);
      }
    }
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix& Matrix::hadamard(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::hadamard: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Matrix::max_abs() const noexcept {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::abs(v));
  return acc;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("matvec: dimension mismatch");
  std::vector<double> y;
  matvec_into(a, x, y);
  return y;
}

FIGRET_ISA_CLONES
void matvec_into(const Matrix& a, std::span<const double> x,
                 std::vector<double>& y) {
  if (a.cols() != x.size())
    throw std::invalid_argument("matvec: dimension mismatch");
  y.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    y[i] = dot_lanes(a.row(i).data(), x.data(), a.cols());
}

FIGRET_ISA_CLONES
void matvec_sparse_into(const Matrix& at, std::span<const std::size_t> index,
                        std::span<const double> value,
                        std::vector<double>& y) {
  const std::size_t nnz = index.size();
  if (value.size() != nnz)
    throw std::invalid_argument("matvec_sparse_into: index/value mismatch");
  for (std::size_t a = 0; a < nnz; ++a)
    if (index[a] >= at.rows() || (a > 0 && index[a] <= index[a - 1]))
      throw std::invalid_argument(
          "matvec_sparse_into: index not strictly ascending or out of range");
  const std::size_t out = at.cols();
  y.resize(out);
  // acc[lane][o] is the lane chain of output o: active index k feeds lane
  // k % kLanes, in ascending k — the order lanes_accum gives the dense dot,
  // minus the zero terms. Outputs are swept in blocks so the accumulators
  // (16 x kBlock doubles, 16 KB) stay in L1 for any width.
  constexpr std::size_t kBlock = 128;
  // A window of 4 * kLanes consecutive indices holds at most four per lane;
  // each lane's terms in the window are folded in one pass over the block
  // (the same FMA chain, one accumulator load/store per four terms).
  constexpr std::size_t kWindow = 4 * kLanes;
  double acc[kLanes * kBlock] = {};
  const double* w[kLanes][4] = {};  // per lane: the window's weight rows
  double v[kLanes][4] = {};         // and their input values
  for (std::size_t o0 = 0; o0 < out; o0 += kBlock) {
    const std::size_t width = std::min(kBlock, out - o0);
    std::fill(acc, acc + kLanes * width, 0.0);
    for (std::size_t a = 0; a < nnz;) {
      const std::size_t end = index[a] - index[a] % kWindow + kWindow;
      std::size_t n[kLanes] = {};
      for (; a < nnz && index[a] < end; ++a) {
        const std::size_t lane = index[a] % kLanes;
        w[lane][n[lane]] = at.row(index[a]).data() + o0;
        v[lane][n[lane]++] = value[a];
      }
      for (std::size_t lane = 0; lane < kLanes; ++lane)
        lane_terms(acc + lane * width, width, n[lane], w[lane], v[lane]);
    }
    for (std::size_t o = 0; o < width; ++o) {
      double c[kLanes];
      for (std::size_t j = 0; j < kLanes; ++j) c[j] = acc[j * width + o];
      y[o0 + o] = lanes_tree(c);
    }
  }
}

FIGRET_ISA_CLONES
double dot(std::span<const double> a, std::span<const double> b) noexcept {
  return dot_lanes(a.data(), b.data(), std::min(a.size(), b.size()));
}

FIGRET_ISA_CLONES
void axpy(double alpha, std::span<const double> x, std::span<double> y) noexcept {
  const std::size_t n = std::min(x.size(), y.size());
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace figret::linalg
