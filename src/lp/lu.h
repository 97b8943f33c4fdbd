// Sparse LU factorization of a simplex basis with Markowitz-style ordering
// and Forrest–Tomlin column-replacement updates.
//
// This replaces the product-form-of-the-inverse eta file of the original
// revised simplex. The eta file appends one elementary matrix per pivot, so
// after k pivots every FTRAN/BTRAN pays for all k etas and the representation
// only ever grows; past a few thousand rows the refactorization needed to
// reset it starts dominating the solve. The LU representation keeps the basis
// inverse as B = L U (row/column permutations stored implicitly in the pivot
// order) and absorbs a basis change with a Forrest–Tomlin update:
//
//  * factorize() runs a right-looking sparse elimination choosing pivots by a
//    Markowitz-style rule — among the sparsest eligible columns, the entry
//    with the sparsest row that passes threshold partial pivoting — so unit
//    slack columns factor with zero fill and structural fill stays contained.
//    Active columns sit in a min-heap keyed by (length, slot), re-keyed
//    whenever elimination changes a column, so each step's pivot search
//    costs O(log m) plus the chosen column's length instead of a rescan of
//    every column. The elimination workspace, L and U all live in flat
//    member arenas that the next factorize() reuses, so a factorization
//    kept across solves (a WarmStart handle's engine) stops allocating once
//    its arenas have grown;
//  * update() replaces one basis column: the FTRAN'd spike replaces the
//    leaving column of U, the pivot order is cyclically rotated so U stays
//    triangular, and the one spiked row is re-eliminated with row operations
//    recorded on the L side (Forrest & Tomlin 1972). One update costs a
//    handful of sparse row combinations instead of a full refactorization;
//  * drop tolerances are *relative* to the largest entry of the vector being
//    compacted, never absolute, so ill-scaled LPs do not silently lose
//    entries that matter (absolute drops were a documented bug of the eta
//    file);
//  * refactor() re-runs the numbers of a factorization in its kept pivot
//    order, as KLU's refactor does (Davis & Palamadai Natarajan 2010). A
//    factorize() keeps its pivot sequence (slot and pivot row per step) and
//    the row patterns of the basis columns. A refactor of the same basis
//    ids over an A whose basis columns keep that pattern is a left-looking
//    pass in that order: scatter the basis column, apply the earlier L
//    columns its U pattern names, in step order, divide by the pivot. It
//    does no pivot search, no heap work and no arena growth. The L and U
//    patterns are derived on the first refactor in an order, from A's
//    pattern, the basis and the order alone: every structural entry is
//    kept, also one that cancels to zero. L's columns and U's rows are laid
//    out in the order factorize()'s elimination would hold them, so when
//    factorize() picks the same order it computes the same bits. A
//    factorize() that dropped nothing holds these patterns already, and
//    the next refactor adopts them. Each pivot must pass factorize()'s
//    threshold test, |pivot| >= max(abs_pivot_tol, rel_pivot_tol *
//    max|active column|); a failed pivot or a changed basis-column pattern
//    falls back to factorize() on the spot. Every update() drops the kept
//    order and every factorize() replaces it. keep_order() installs an
//    order carried from elsewhere (a copied WarmStart handle), so two
//    engines that refactor one basis in one order compute the same bits.
//
// Slot convention (shared with RevisedSimplex): the basis is an ordered list
// basis[0..m) of column ids; "slot" i is position i of that list, which is
// also the index of basic-variable values (beta). ftran() maps a row-space
// right-hand side to slot-space values; btran() maps slot-space costs to
// row-space duals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "lp/sparse.h"

namespace figret::lp {

/// A factorization's pivot sequence: step k eliminated pivot row `row[k]`
/// with the basis column in slot `slot[k]`.
struct PivotOrder {
  std::vector<std::uint32_t> slot;
  std::vector<std::uint32_t> row;

  bool operator==(const PivotOrder&) const = default;
};

class LuFactorization {
 public:
  struct Options {
    /// Pivots below this magnitude are unusable: a column whose best entry
    /// stays under the floor makes the basis numerically singular.
    double abs_pivot_tol = 1e-10;
    /// Threshold partial pivoting: an entry qualifies as pivot only if its
    /// magnitude is at least this fraction of its column's largest entry.
    double rel_pivot_tol = 0.01;
    /// Relative drop tolerance: entries below drop_tol * max|vector| are
    /// dropped when a column/row is compacted. Relative, not absolute — see
    /// file comment.
    double drop_tol = 1e-14;
  };

  /// Factorizes B = [A.col(basis[0]) ... A.col(basis[m-1])]. Resets any
  /// prior factorization and update history, and keeps the pivot order it
  /// chose for refactor(). Returns false when the basis is numerically
  /// singular (no usable pivot in some elimination step).
  bool factorize(const SparseMatrix& A, const std::vector<std::uint32_t>& basis,
                 Options opt);

  /// How refactor() factorized.
  enum class Refactor : std::uint8_t {
    kInOrder,   // numerically, in the kept pivot order
    kFull,      // by factorize(): no kept order applies to this basis
    kFallback,  // by factorize(), after the kept order failed
  };
  /// Refactorizes B over the numbers of `A`: in the kept pivot order when
  /// it was kept for these basis ids (see the file comment), else — or when
  /// a pivot fails the threshold test or a basis column's pattern changed —
  /// by factorize(). The result is valid() unless the basis is singular.
  Refactor refactor(const SparseMatrix& A,
                    const std::vector<std::uint32_t>& basis, Options opt);

  /// The kept pivot order (empty when none is kept).
  const PivotOrder& kept_order() const noexcept {
    static const PivotOrder kNone;
    return has_kept_ ? kept_ : kNone;
  }
  /// Keeps `order` for the basis ids `basis`, as factorize() would have; a
  /// no-op when it is already the kept one. Its patterns are derived from
  /// A at the next refactor().
  void keep_order(const std::vector<std::uint32_t>& basis,
                  const PivotOrder& order);
  void drop_order() noexcept;

  bool valid() const noexcept { return valid_; }
  std::size_t rows() const noexcept { return m_; }
  /// Forrest–Tomlin updates absorbed since the last factorize().
  std::size_t updates_since_factorize() const noexcept { return updates_; }
  /// Nonzeros across L, U, and the update row-etas (observability).
  std::size_t fill_nnz() const noexcept;
  /// U's diagonal entry for the pivot owning `slot` (tests/diagnostics).
  double diag_of(std::uint32_t slot) const noexcept {
    return urows_[slot].diag;
  }
  /// Row of B that the pivot owning `slot` eliminated (tests/diagnostics).
  std::uint32_t pivot_row_of(std::uint32_t slot) const noexcept {
    return urows_[slot].pivot_row;
  }
  /// Slots in pivot (triangular) order (tests/diagnostics).
  const std::vector<std::uint32_t>& order() const noexcept { return order_; }

  /// Solves B x = v: `v` holds a row-space right-hand side on entry and the
  /// slot-space solution on exit. With `save_spike` the partially transformed
  /// vector L^{-1} v is cached for a following update() — pass true when `v`
  /// is the entering column of a pivot.
  void ftran(std::vector<double>& v, bool save_spike = false);

  /// Solves B' y = v: `v` holds slot-space costs on entry and the row-space
  /// dual vector on exit.
  void btran(std::vector<double>& v);

  /// Forrest–Tomlin replacement of the basis column at `slot` by the column
  /// whose ftran(..., save_spike=true) was computed last. `pivot_estimate`
  /// is the caller's FTRAN'd pivot entry (B^{-1} a_enter at `slot`): in exact
  /// arithmetic |newdiag| = |pivot_estimate| * |old diag| (determinant
  /// lemma), and since the two sides travel different computational paths
  /// their disagreement is the standard Forrest–Tomlin accuracy test — it
  /// catches factorization drift at the first unsafe update instead of
  /// letting a near-singular replacement through. Returns false when the
  /// update is numerically unsafe (tiny replacement pivot, or the accuracy
  /// test fails); the factorization is then invalid and the caller must
  /// refactorize.
  bool update(std::uint32_t slot, double pivot_estimate);

 private:
  using Entry = std::pair<std::uint32_t, double>;  // (row, value)

  // One elimination step's column of L: v[i] -= mult_i * v[pivot_row] for
  // the (i, mult_i) in lmults_[begin, end).
  struct LCol {
    std::uint32_t pivot_row = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  // One Forrest–Tomlin row operation, applied after all LCols:
  // v[target] -= mult * v[source].
  struct REta {
    std::uint32_t target = 0;
    std::uint32_t source = 0;
    double mult = 0.0;
  };
  // U is stored by rows, keyed by the slot of the row's pivot. Entries
  // reference later-ordered slots; `version` invalidates entries of a column
  // that a Forrest–Tomlin update replaced (lazy deletion, garbage-collected
  // by the next factorize()). A row's entries are the span [begin, begin +
  // len) of the uents_ arena with room for `cap`; a row that outgrows it
  // moves to the arena's end, like the workspace's column lists.
  struct UEntry {
    std::uint32_t slot = 0;
    std::uint32_t version = 0;
    double value = 0.0;
  };
  struct URow {
    std::uint32_t pivot_row = 0;
    double diag = 0.0;
    std::size_t begin = 0;
    std::uint32_t len = 0, cap = 0;
  };

  // factorize()'s elimination state. Column entry lists and the row ->
  // slots index are spans of two flat arenas; a span that outgrows its
  // capacity moves to the arena's end (the old span is dead until the next
  // factorize() clears the arena). Kept as members so rebuilds reuse them.
  struct Workspace {
    std::vector<Entry> ents;  // column entry arena
    std::vector<std::size_t> cbeg;
    std::vector<std::uint32_t> clen, ccap;
    // Row -> slots index. It may hold stale ids (entries since removed from
    // the column); lookups skip them. rlen doubles as the Markowitz row
    // count, so it is approximate in the same way.
    std::vector<std::uint32_t> slots;
    std::vector<std::size_t> rbeg;
    std::vector<std::uint32_t> rlen, rcap;
    // Pivot-search min-heap over (length << 32 | slot). An item is live
    // only while its stamp matches the slot's; re-keying bumps the stamp.
    struct Key {
      std::uint64_t key = 0;
      std::uint32_t stamp = 0;
    };
    std::vector<Key> heap;
    std::vector<std::uint32_t> stamp;
    // Scatter workspace for sparse column combinations.
    std::vector<double> dval;
    std::vector<std::uint8_t> mark;
    std::vector<std::uint32_t> touched;
    // derive()'s min-heap of earlier steps a column's pattern reaches.
    std::vector<std::uint32_t> steps;
  };

  bool live(const UEntry& e) const noexcept {
    return e.version == colversion_[e.slot];
  }
  std::span<const UEntry> entries(const URow& ur) const noexcept {
    return {uents_.data() + ur.begin, ur.len};
  }
  void push_u(URow& ur, UEntry e);
  void load(const SparseMatrix& A, const std::vector<std::uint32_t>& basis);
  bool pick_row(std::uint32_t j, std::size_t& row, double& value) const;
  void record_pattern(const SparseMatrix& A,
                      const std::vector<std::uint32_t>& basis);
  bool same_basis_pattern(const SparseMatrix& A,
                          const std::vector<std::uint32_t>& basis) const;
  bool in_order(const SparseMatrix& A, const std::vector<std::uint32_t>& basis);
  bool derive(const SparseMatrix& A, const std::vector<std::uint32_t>& basis);
  void lay_out_u();
  void adopt_layout();
  bool renumber(const SparseMatrix& A, const std::vector<std::uint32_t>& basis);
  bool passes_threshold(double pivot, double cmax) const noexcept;
  void rekey(std::uint32_t j);
  void push_slot(std::uint32_t row, std::uint32_t slot);
  void eliminate(std::uint32_t c, double vr, const LCol& lc);

  std::size_t m_ = 0;
  bool valid_ = false;
  Options opt_;
  std::vector<LCol> lcols_;
  std::vector<Entry> lmults_;
  std::vector<REta> retas_;
  std::vector<URow> urows_;            // keyed by slot
  std::vector<UEntry> uents_;          // U row entry arena
  std::vector<std::uint32_t> order_;   // slots in pivot (triangular) order
  std::vector<std::uint32_t> pos_;     // slot -> position in order_
  std::vector<std::uint32_t> colversion_;
  std::size_t updates_ = 0;

  // The kept pivot order, the basis ids it was kept for and the row
  // patterns of those basis columns (CSC over slots; has_kpat_ false: not
  // recorded yet, refactor() records them from its A).
  PivotOrder kept_;
  std::vector<std::uint32_t> kept_basis_;
  bool has_kept_ = false;
  std::vector<std::size_t> kbeg_;
  std::vector<std::uint32_t> krows_;
  bool has_kpat_ = false;
  // The patterns in the kept order (derived_: derive()d or adopted), which
  // renumber() fills with numbers: L is lcols_ and the rows of lmults_; U
  // by column step k is ucol_[ucbeg_[k], ucbeg_[k+1]):
  // per entry an earlier step, the ucol_ index of the entry whose step's
  // fill brought its row into the column (kUnset: A's entry), and the
  // uents_ index of its value.
  struct UPos {
    std::uint32_t step = 0;
    std::uint32_t cause = 0;
    std::size_t at = 0;
  };
  std::vector<std::size_t> ucbeg_;
  std::vector<UPos> ucol_;
  std::vector<std::uint32_t> step_of_row_;
  bool derived_ = false;
  // The current L and U are a factorize() in the kept order that dropped
  // no entry and skipped no fill: they are the derived patterns already.
  bool structural_ = false;
  // derive()'s scratch: per row, its cause and its place in the column's
  // entry list; lay_out_u()'s per-row groups of (ucol_ index, column step)
  // and the entries each entry's fill caused (linked lists).
  std::vector<std::uint32_t> reach_, lpos_;
  std::vector<std::size_t> ubeg_, ucur_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> urow_;
  std::vector<std::uint32_t> fill_head_, fill_next_;

  std::vector<double> spike_;  // cached L^{-1} * (entering column)
  bool have_spike_ = false;
  std::vector<double> work_;   // ftran/btran scratch
  std::vector<double> dwork_;  // update() elimination workspace (slot space)
  Workspace ws_;
};

}  // namespace figret::lp
