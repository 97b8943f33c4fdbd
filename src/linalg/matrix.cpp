#include "linalg/matrix.h"

#include <algorithm>
#include <stdexcept>
#include <string>

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
// order makes every kernel that reduces — matvec, sparse matvec, matmul_t —
// bitwise consistent with the others, which is what keeps Mlp::forward_batch
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
// final reduction every fast kernel (matvec, matmul_t) shares.
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
// shared by matmul_into and t_matmul_accum. Branch-free, stride-1 on every
// stream, four FMAs per load/store of the output row.
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

// rank4_update / rank1_update onto the scattered entries out[idx[j]]: per
// entry the same expression, so the same rounding (and the same FMA
// contraction where the ISA has one) as the contiguous update.
FIGRET_FORCE_INLINE void rank4_scatter(double* out, const std::size_t* idx,
                                       std::size_t n, double a0,
                                       const double* b0, double a1,
                                       const double* b1, double a2,
                                       const double* b2, double a3,
                                       const double* b3) noexcept {
  for (std::size_t j = 0; j < n; ++j)
    out[idx[j]] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
}

FIGRET_FORCE_INLINE void rank1_scatter(double* out, const std::size_t* idx,
                                       std::size_t n, double a,
                                       const double* b) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[idx[j]] += a * b[j];
}

// Row b of y ([n x at.cols()], row-major) = A x_b for the sparse rows x_b.
// acc[b][lane][o] is the lane chain of row b's output o: active index k
// feeds lane k % kLanes, in ascending k — the order lanes_accum gives the
// dense dot, minus the zero terms. Outputs are swept in blocks of kBlock, and
// rows in groups of kRowGroup, so the accumulators (16 x kBlock doubles per
// row: 16 KB) stay on the stack for any width and batch. kRowGroup is the
// largest batch the serving loop forms (TeScheme::kMaxBatch); a longer batch
// is folded group by group.
FIGRET_FORCE_INLINE void sparse_rows_kernel(const Matrix& at,
                                            const SparseRow* rows,
                                            std::size_t n, double* y) {
  constexpr std::size_t kBlock = 128;
  constexpr std::size_t kRowGroup = 4;
  // A window of 4 * kLanes consecutive indices holds at most four per lane
  // of each row. The windows are aligned, so a row's terms fall into the
  // same windows whatever the other rows hold, and each lane's terms of a
  // window are folded in one pass over the block (the same FMA chain, one
  // accumulator load/store per four terms). Lanes run outermost, so a
  // lane's weight rows stay in L1 while every row of the group folds them.
  constexpr std::size_t kWindow = 4 * kLanes;
  constexpr std::size_t kDone = static_cast<std::size_t>(-1);
  const std::size_t out = at.cols();
  double acc[kRowGroup * kLanes * kBlock];
  const double* w[kRowGroup][kLanes][4];  // per row and lane: weight rows
  double v[kRowGroup][kLanes][4];         // and their input values
  std::size_t terms[kRowGroup][kLanes];
  std::size_t next[kRowGroup];  // per row: its first unfolded active entry
  for (std::size_t g0 = 0; g0 < n; g0 += kRowGroup) {
    const std::size_t g = std::min(kRowGroup, n - g0);
    const SparseRow* grp = rows + g0;
    for (std::size_t o0 = 0; o0 < out; o0 += kBlock) {
      const std::size_t width = std::min(kBlock, out - o0);
      std::fill(acc, acc + g * kLanes * width, 0.0);
      std::fill(next, next + g, std::size_t{0});
      for (;;) {
        // The next window holding an active entry of any row.
        std::size_t begin = kDone;
        for (std::size_t r = 0; r < g; ++r)
          if (next[r] < grp[r].index.size()) {
            const std::size_t k = grp[r].index[next[r]];
            begin = std::min(begin, k - k % kWindow);
          }
        if (begin == kDone) break;
        const std::size_t end = begin + kWindow;
        for (std::size_t r = 0; r < g; ++r) {
          const std::span<const std::size_t> index = grp[r].index;
          std::size_t* cnt = terms[r];
          std::fill(cnt, cnt + kLanes, std::size_t{0});
          std::size_t a = next[r];
          for (; a < index.size() && index[a] < end; ++a) {
            const std::size_t lane = index[a] % kLanes;
            w[r][lane][cnt[lane]] = at.row(index[a]).data() + o0;
            v[r][lane][cnt[lane]++] = grp[r].value[a];
          }
          next[r] = a;
        }
        for (std::size_t lane = 0; lane < kLanes; ++lane)
          for (std::size_t r = 0; r < g; ++r)
            lane_terms(acc + (r * kLanes + lane) * width, width,
                       terms[r][lane], w[r][lane], v[r][lane]);
      }
      for (std::size_t r = 0; r < g; ++r) {
        const double* ar = acc + r * kLanes * width;
        double* yr = y + (g0 + r) * out + o0;
        for (std::size_t o = 0; o < width; ++o) {
          double c[kLanes];
          for (std::size_t j = 0; j < kLanes; ++j) c[j] = ar[j * width + o];
          yr[o] = lanes_tree(c);
        }
      }
    }
  }
}

void check_range(std::size_t begin, std::size_t end, std::size_t limit,
                 const char* what) {
  if (begin > end || end > limit)
    throw std::invalid_argument(std::string(what) + ": range out of bounds");
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::reset(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

FIGRET_ISA_CLONES
void matmul_t_into(const Matrix& a, const Matrix& b, std::size_t j0,
                   std::size_t j1, Matrix& out) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("matmul_t_into: dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.rows())
    throw std::invalid_argument("matmul_t_into: output shape mismatch");
  check_range(j0, j1, b.rows(), "matmul_t_into");
  // Each output element is a row-by-row dot; dot_lanes gives four independent
  // FMA chains (the naive single-accumulator loop is latency-bound because
  // FP addition cannot be reassociated). Rows of A are processed in blocks
  // with j swept innermost-but-one, so each B row streams from memory once
  // per block and is reused across the whole block from cache — at fabric
  // scale (weight matrices far larger than LLC) the unblocked loop re-streams
  // B once per A row and goes memory-bound. A block of kJBlock outputs per
  // row is finished in a local buffer and stored as one run, so callers that
  // split the columns among threads share a cache line only at the run ends.
  // The per-element reduction order is unchanged by the blocking, so results
  // stay bit-identical.
  constexpr std::size_t kRowBlock = 8;
  constexpr std::size_t kJBlock = 32;
  // Long reduction dimensions additionally tile k so each sweep touches an
  // L1/L2-resident slice of every stream; the lane accumulators are carried
  // across tiles (k % kLanes is preserved because the tile width is a
  // multiple of kLanes), so the chunked reduction stays bit-identical to a
  // single pass.
  constexpr std::size_t kKTile = 2048;
  static_assert(kKTile % kLanes == 0);
  const std::size_t k = a.cols();
  double acc[kRowBlock * kJBlock * kLanes];
  double res[kRowBlock * kJBlock];
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kRowBlock) {
    const std::size_t i1 = std::min(i0 + kRowBlock, a.rows());
    for (std::size_t jb = j0; jb < j1; jb += kJBlock) {
      const std::size_t je = std::min(jb + kJBlock, j1);
      const std::size_t nj = je - jb;
      if (k > kKTile) {
        std::fill(acc, acc + (i1 - i0) * nj * kLanes, 0.0);
        for (std::size_t k0 = 0; k0 < k; k0 += kKTile) {
          const std::size_t len = std::min(kKTile, k - k0);
          for (std::size_t j = jb; j < je; ++j) {
            const double* brow = b.row(j).data() + k0;
            for (std::size_t i = i0; i < i1; ++i)
              lanes_accum(acc + ((i - i0) * nj + (j - jb)) * kLanes,
                          a.row(i).data() + k0, brow, len);
          }
        }
        for (std::size_t q = 0; q < (i1 - i0) * nj; ++q)
          res[q] = lanes_tree(acc + q * kLanes);
      } else {
        for (std::size_t j = jb; j < je; ++j) {
          const double* brow = b.row(j).data();
          for (std::size_t i = i0; i < i1; ++i)
            res[(i - i0) * nj + (j - jb)] =
                dot_lanes(a.row(i).data(), brow, k);
        }
      }
      for (std::size_t i = i0; i < i1; ++i)
        std::copy(res + (i - i0) * nj, res + (i - i0 + 1) * nj,
                  out.row(i).data() + jb);
    }
  }
}

FIGRET_ISA_CLONES
void matmul_t_into(const Matrix& a, std::span<const std::size_t> cols,
                   const Matrix& b, std::size_t j0, std::size_t j1,
                   Matrix& out) {
  if (a.cols() != cols.size())
    throw std::invalid_argument("matmul_t_into: column list size mismatch");
  check_indices(cols, b.cols(), "matmul_t_into");
  if (out.rows() != a.rows() || out.cols() != b.rows())
    throw std::invalid_argument("matmul_t_into: output shape mismatch");
  check_range(j0, j1, b.rows(), "matmul_t_into");
  // Term q joins the chain of lane cols[q] % kLanes, in ascending q: the
  // order lanes_accum gives the full-width dot, minus its zero terms.
  const std::size_t n = cols.size();
  for (std::size_t j = j0; j < j1; ++j) {
    const double* brow = b.row(j).data();
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double* arow = a.row(i).data();
      double t[kLanes] = {0.0};
      for (std::size_t q = 0; q < n; ++q)
        t[cols[q] % kLanes] += arow[q] * brow[cols[q]];
      out(i, j) = lanes_tree(t);
    }
  }
}

FIGRET_ISA_CLONES
void t_matmul_accum(const Matrix& a, const Matrix& b, std::size_t i0,
                    std::size_t i1, Matrix& out) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("t_matmul_accum: dimension mismatch");
  if (out.rows() != a.cols() || out.cols() != b.cols())
    throw std::invalid_argument("t_matmul_accum: output shape mismatch");
  check_range(i0, i1, out.rows(), "t_matmul_accum");
  // out(i,:) takes four k-terms per sweep. Columns are tiled so the output
  // tile stays in L1 across the k-sweeps; the order of each element's terms
  // does not depend on the tiling.
  constexpr std::size_t kColTile = 512;
  const std::size_t rows = a.rows();
  const std::size_t ac = a.cols();
  const std::size_t n = b.cols();
  const double* ad = a.flat().data();
  const double* bd = b.flat().data();
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t c0 = 0; c0 < n; c0 += kColTile) {
      const std::size_t w = std::min(kColTile, n - c0);
      double* orow = out.row(i).data() + c0;
      std::size_t k = 0;
      for (; k + 4 <= rows; k += 4) {
        const double* ak = ad + k * ac + i;
        const double* bk = bd + k * n + c0;
        rank4_update(orow, w, ak[0], bk, ak[ac], bk + n, ak[2 * ac],
                     bk + 2 * n, ak[3 * ac], bk + 3 * n);
      }
      for (; k < rows; ++k)
        rank1_update(orow, w, ad[k * ac + i], bd + k * n + c0);
    }
  }
}

FIGRET_ISA_CLONES
void t_matmul_accum(const Matrix& a, const Matrix& b,
                    std::span<const std::size_t> cols, std::size_t i0,
                    std::size_t i1, Matrix& out) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("t_matmul_accum: dimension mismatch");
  if (b.cols() != cols.size())
    throw std::invalid_argument("t_matmul_accum: column list size mismatch");
  if (out.rows() != a.cols())
    throw std::invalid_argument("t_matmul_accum: output shape mismatch");
  check_indices(cols, out.cols(), "t_matmul_accum");
  check_range(i0, i1, out.rows(), "t_matmul_accum");
  const std::size_t rows = a.rows();
  const std::size_t ac = a.cols();
  const std::size_t n = b.cols();
  const double* ad = a.flat().data();
  const double* bd = b.flat().data();
  for (std::size_t i = i0; i < i1; ++i) {
    double* orow = out.row(i).data();
    std::size_t k = 0;
    for (; k + 4 <= rows; k += 4) {
      const double* ak = ad + k * ac + i;
      const double* bk = bd + k * n;
      rank4_scatter(orow, cols.data(), n, ak[0], bk, ak[ac], bk + n,
                    ak[2 * ac], bk + 2 * n, ak[3 * ac], bk + 3 * n);
    }
    for (; k < rows; ++k)
      rank1_scatter(orow, cols.data(), n, ad[k * ac + i], bd + k * n);
  }
}

FIGRET_ISA_CLONES
void matmul_into(const Matrix& a, const Matrix& b, std::size_t j0,
                 std::size_t j1, Matrix& out) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul_into: inner dimension mismatch");
  if (out.rows() != a.rows() || out.cols() != b.cols())
    throw std::invalid_argument("matmul_into: output shape mismatch");
  check_range(j0, j1, b.cols(), "matmul_into");
  // Output tiles of kRowBlock x kColTile accumulate in a local buffer, four
  // rows of B per sweep of each tile row, and are stored once: a B slice is
  // read once per block of A rows, and callers that split the columns among
  // threads never write a shared cache line in the sweep. Each element
  // still starts at zero and takes its k-terms in ascending groups of four.
  // No zero-skip branch — the dense path must not pay a compare per scalar.
  constexpr std::size_t kRowBlock = 16;
  constexpr std::size_t kColTile = 64;
  double tile[kRowBlock * kColTile];
  const std::size_t inner = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kRowBlock) {
    const std::size_t i1 = std::min(i0 + kRowBlock, a.rows());
    for (std::size_t c0 = j0; c0 < j1; c0 += kColTile) {
      const std::size_t w = std::min(kColTile, j1 - c0);
      const double* bd = b.flat().data() + c0;
      std::fill(tile, tile + (i1 - i0) * kColTile, 0.0);
      std::size_t k = 0;
      for (; k + 4 <= inner; k += 4) {
        const double* bk = bd + k * n;
        for (std::size_t i = i0; i < i1; ++i) {
          const double* arow = a.row(i).data();
          rank4_update(tile + (i - i0) * kColTile, w, arow[k], bk, arow[k + 1],
                       bk + n, arow[k + 2], bk + 2 * n, arow[k + 3],
                       bk + 3 * n);
        }
      }
      for (; k < inner; ++k)
        for (std::size_t i = i0; i < i1; ++i)
          rank1_update(tile + (i - i0) * kColTile, w, a(i, k), bd + k * n);
      for (std::size_t i = i0; i < i1; ++i)
        std::copy(tile + (i - i0) * kColTile, tile + (i - i0) * kColTile + w,
                  out.row(i).data() + c0);
    }
  }
}

void check_indices(std::span<const std::size_t> index, std::size_t limit,
                   const char* what) {
  for (std::size_t i = 0; i < index.size(); ++i)
    if (index[i] >= limit || (i > 0 && index[i] <= index[i - 1]))
      throw std::invalid_argument(
          std::string(what) + ": index not strictly ascending or out of range");
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
void matvec_sparse_into(const Matrix& at, std::span<const SparseRow> rows,
                        Matrix& y) {
  for (const SparseRow& row : rows) {
    if (row.value.size() != row.index.size())
      throw std::invalid_argument("matvec_sparse_into: index/value mismatch");
    check_indices(row.index, at.rows(), "matvec_sparse_into");
  }
  y.reset(rows.size(), at.cols());
  sparse_rows_kernel(at, rows.data(), rows.size(), y.flat().data());
}

}  // namespace figret::linalg
