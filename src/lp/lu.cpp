#include "lp/lu.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

namespace figret::lp {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

// Scatter marks: the row is in the workspace / was in the column before.
constexpr std::uint8_t kSet = 1;
constexpr std::uint8_t kOld = 2;

// Min-heap order for the pivot search (std heaps are max-heaps).
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.key > b.key;
};
}  // namespace

void LuFactorization::load(const SparseMatrix& A,
                           const std::vector<std::uint32_t>& basis) {
  Workspace& w = ws_;
  w.ents.clear();
  w.cbeg.resize(m_);
  w.clen.resize(m_);
  w.ccap.resize(m_);
  w.rcap.assign(m_, 0);
  for (std::size_t j = 0; j < m_; ++j) {
    const auto rows = A.col_rows(basis[j]);
    const auto vals = A.col_values(basis[j]);
    w.cbeg[j] = w.ents.size();
    w.clen[j] = w.ccap[j] = static_cast<std::uint32_t>(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      w.ents.emplace_back(rows[k], vals[k]);
      ++w.rcap[rows[k]];
    }
  }
  // The row index starts exactly sized to the basis, filled in slot order.
  w.rbeg.resize(m_);
  w.rlen.assign(m_, 0);
  std::size_t at = 0;
  for (std::size_t r = 0; r < m_; ++r) {
    w.rbeg[r] = at;
    at += w.rcap[r];
  }
  w.slots.resize(at);
  for (std::size_t j = 0; j < m_; ++j)
    for (std::uint32_t k = 0; k < w.clen[j]; ++k) {
      const std::uint32_t r = w.ents[w.cbeg[j] + k].first;
      w.slots[w.rbeg[r] + w.rlen[r]++] = static_cast<std::uint32_t>(j);
    }

  w.stamp.assign(m_, 0);
  w.heap.clear();
  for (std::size_t j = 0; j < m_; ++j)
    w.heap.push_back({(std::uint64_t{w.clen[j]} << 32) | j, 0});
  std::make_heap(w.heap.begin(), w.heap.end(), kLater);

  w.dval.assign(m_, 0.0);
  w.mark.assign(m_, 0);
  w.touched.reserve(m_);  // eliminate() touches each row at most once
}

bool LuFactorization::pick_row(std::uint32_t j, std::size_t& row,
                               double& value) const {
  const Workspace& w = ws_;
  const Entry* col = w.ents.data() + w.cbeg[j];
  const std::uint32_t len = w.clen[j];
  double cmax = 0.0;
  for (std::uint32_t k = 0; k < len; ++k)
    cmax = std::max(cmax, std::abs(col[k].second));
  if (cmax < opt_.abs_pivot_tol) return false;  // unusable (for now) column
  row = kNone;
  value = 0.0;
  std::uint32_t best_rc = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t k = 0; k < len; ++k) {
    const auto [r, v] = col[k];
    if (!passes_threshold(v, cmax)) continue;
    if (w.rlen[r] < best_rc ||
        (w.rlen[r] == best_rc && std::abs(v) > std::abs(value))) {
      best_rc = w.rlen[r];
      row = r;
      value = v;
    }
  }
  return row != kNone;
}

void LuFactorization::rekey(std::uint32_t j) {
  Workspace& w = ws_;
  w.heap.push_back({(std::uint64_t{w.clen[j]} << 32) | j, ++w.stamp[j]});
  std::push_heap(w.heap.begin(), w.heap.end(), kLater);
}

void LuFactorization::push_slot(std::uint32_t row, std::uint32_t slot) {
  Workspace& w = ws_;
  if (w.rlen[row] == w.rcap[row]) {
    // Full: move the list to the arena's end with room to double.
    const std::size_t from = w.rbeg[row];
    w.rcap[row] = std::max<std::uint32_t>(4, 2 * w.rcap[row]);
    w.rbeg[row] = w.slots.size();
    w.slots.resize(w.slots.size() + w.rcap[row]);
    std::copy_n(w.slots.begin() + static_cast<std::ptrdiff_t>(from),
                w.rlen[row],
                w.slots.begin() + static_cast<std::ptrdiff_t>(w.rbeg[row]));
  }
  w.slots[w.rbeg[row] + w.rlen[row]++] = slot;
}

void LuFactorization::eliminate(std::uint32_t c, double vr, const LCol& lc) {
  // col -= vr * L column, via scatter/gather with relative drops.
  Workspace& w = ws_;
  w.touched.clear();
  for (std::uint32_t k = 0; k < w.clen[c]; ++k) {
    const auto [row, val] = w.ents[w.cbeg[c] + k];
    w.dval[row] = val;
    w.mark[row] = kSet | kOld;
    w.touched.push_back(row);
  }
  for (std::size_t k = lc.begin; k < lc.end; ++k) {
    const auto [row, mult] = lmults_[k];
    if (!(w.mark[row] & kSet)) {
      w.mark[row] = kSet;
      w.dval[row] = 0.0;
      w.touched.push_back(row);
    }
    w.dval[row] -= mult * vr;
  }
  double cmax = 0.0;
  for (const std::uint32_t row : w.touched)
    cmax = std::max(cmax, std::abs(w.dval[row]));
  const double drop = opt_.drop_tol * cmax;
  if (w.touched.size() > w.ccap[c]) {
    // The combination may outgrow the column's span: move it to the end.
    w.ccap[c] = static_cast<std::uint32_t>(w.touched.size());
    w.cbeg[c] = w.ents.size();
    w.ents.resize(w.ents.size() + w.ccap[c]);
  }
  std::uint32_t len = 0;
  for (const std::uint32_t row : w.touched) {
    const double v = w.dval[row];
    if (std::abs(v) > drop) {
      w.ents[w.cbeg[c] + len++] = {row, v};
      if (!(w.mark[row] & kOld)) push_slot(row, c);
    } else {
      structural_ = false;  // an entry the derived pattern would hold
    }
    w.dval[row] = 0.0;
    w.mark[row] = 0;
  }
  w.clen[c] = len;
}

void LuFactorization::push_u(URow& ur, UEntry e) {
  if (ur.len == ur.cap) {
    // Full: move the row to the arena's end with room to double.
    const std::size_t from = ur.begin;
    ur.cap = std::max<std::uint32_t>(4, 2 * ur.cap);
    ur.begin = uents_.size();
    uents_.resize(uents_.size() + ur.cap);
    std::copy_n(uents_.begin() + static_cast<std::ptrdiff_t>(from), ur.len,
                uents_.begin() + static_cast<std::ptrdiff_t>(ur.begin));
  }
  uents_[ur.begin + ur.len++] = e;
}

bool LuFactorization::factorize(const SparseMatrix& A,
                                const std::vector<std::uint32_t>& basis,
                                Options opt) {
  opt_ = opt;
  m_ = basis.size();
  valid_ = false;
  updates_ = 0;
  have_spike_ = false;
  has_kept_ = false;
  derived_ = false;
  structural_ = true;
  lcols_.clear();
  lmults_.clear();
  retas_.clear();
  urows_.resize(m_);
  uents_.clear();
  order_.clear();
  order_.reserve(m_);
  pos_.assign(m_, 0);
  colversion_.assign(m_, 0);
  if (m_ == 0) {
    valid_ = true;
    return true;
  }
  // Arena floors sized by A, not by this basis: a factorization kept across
  // solves (a WarmStart handle's engine) then sizes its arenas once, instead
  // of growing whenever a later basis fills in a little more than any
  // before it. Reserving touches no memory.
  const std::size_t room = A.nnz() + m_;
  lcols_.reserve(m_);
  lmults_.reserve(room);
  retas_.reserve(room);
  uents_.reserve(2 * room);
  ws_.ents.reserve(2 * room);
  ws_.slots.reserve(2 * room);
  load(A, basis);
  record_pattern(A, basis);
  Workspace& w = ws_;

  for (std::size_t step = 0; step < m_; ++step) {
    // Markowitz-style pivot choice: the shortest usable active column (ties
    // to the lowest slot), on its entry with the shortest row that passes
    // threshold partial pivoting. Unit (slack) columns come first, with
    // zero fill. A column with no usable entry leaves the heap until an
    // elimination step changes it and re-keys it.
    std::uint32_t pj = 0;
    std::size_t pr = kNone;
    double pv = 0.0;
    for (;;) {
      if (w.heap.empty()) return false;  // no usable pivot anywhere: singular
      std::pop_heap(w.heap.begin(), w.heap.end(), kLater);
      const Workspace::Key top = w.heap.back();
      w.heap.pop_back();
      pj = static_cast<std::uint32_t>(top.key);
      if (top.stamp != w.stamp[pj]) continue;  // superseded by a re-key
      if (pick_row(pj, pr, pv)) break;
    }

    const std::size_t lbegin = lmults_.size();
    for (std::uint32_t k = 0; k < w.clen[pj]; ++k) {
      const auto [row, val] = w.ents[w.cbeg[pj] + k];
      if (row == pr) continue;
      lmults_.emplace_back(row, val / pv);
    }
    const LCol lc{static_cast<std::uint32_t>(pr), lbegin, lmults_.size()};
    w.clen[pj] = 0;  // retired: like every earlier pivot, no entries left
    URow& ur = urows_[pj];
    ur.pivot_row = lc.pivot_row;
    ur.diag = pv;
    ur.begin = uents_.size();
    ur.len = 0;
    ur.cap = w.rlen[pr];  // at most one entry per listed column
    uents_.resize(uents_.size() + ur.cap);

    // Eliminate row pr from every other active column carrying it. The
    // removed entries are exactly this pivot's U row. Indexed, not
    // iterated: fill may move other rows' lists within the arena.
    for (std::uint32_t k = 0; k < w.rlen[pr]; ++k) {
      const std::uint32_t c = w.slots[w.rbeg[pr] + k];
      Entry* col = w.ents.data() + w.cbeg[c];
      std::uint32_t& len = w.clen[c];
      std::uint32_t at = 0;
      while (at < len && col[at].first != pr) ++at;
      if (at == len) continue;  // stale index entry, or a retired column
      const double vr = col[at].second;
      col[at] = col[len - 1];
      --len;
      uents_[ur.begin + ur.len++] = {c, 0, vr};
      if (lc.end > lc.begin) {
        if (vr != 0.0)
          eliminate(c, vr, lc);
        else
          structural_ = false;  // fill the derived pattern would hold
      }
      rekey(c);
    }

    w.rlen[pr] = 0;
    order_.push_back(pj);
    lcols_.push_back(lc);
  }
  for (std::size_t k = 0; k < m_; ++k) pos_[order_[k]] = static_cast<std::uint32_t>(k);
  // Keep this order for refactor().
  kept_.slot = order_;
  kept_.row.resize(m_);
  for (std::size_t k = 0; k < m_; ++k)
    kept_.row[k] = urows_[order_[k]].pivot_row;
  kept_basis_ = basis;
  has_kept_ = true;
  valid_ = true;
  return true;
}

bool LuFactorization::passes_threshold(double pivot,
                                       double cmax) const noexcept {
  return std::abs(pivot) >=
         std::max(opt_.abs_pivot_tol, opt_.rel_pivot_tol * cmax);
}

void LuFactorization::record_pattern(const SparseMatrix& A,
                                     const std::vector<std::uint32_t>& basis) {
  kbeg_.resize(m_ + 1);
  krows_.clear();
  krows_.reserve(A.nnz() + m_);
  for (std::size_t s = 0; s < m_; ++s) {
    kbeg_[s] = krows_.size();
    const auto rows = A.col_rows(basis[s]);
    krows_.insert(krows_.end(), rows.begin(), rows.end());
  }
  kbeg_[m_] = krows_.size();
  has_kpat_ = true;
}

bool LuFactorization::same_basis_pattern(
    const SparseMatrix& A, const std::vector<std::uint32_t>& basis) const {
  if (A.rows() != m_) return false;
  for (std::size_t s = 0; s < m_; ++s) {
    const auto rows = A.col_rows(basis[s]);
    if (rows.size() != kbeg_[s + 1] - kbeg_[s] ||
        !std::equal(rows.begin(), rows.end(),
                    krows_.begin() + static_cast<std::ptrdiff_t>(kbeg_[s])))
      return false;
  }
  return true;
}

void LuFactorization::keep_order(const std::vector<std::uint32_t>& basis,
                                 const PivotOrder& order) {
  if (has_kept_ && kept_basis_ == basis && kept_ == order) return;
  kept_basis_ = basis;
  kept_ = order;
  has_kept_ = true;
  has_kpat_ = false;
  derived_ = false;
  structural_ = false;
}

void LuFactorization::drop_order() noexcept {
  has_kept_ = false;
  derived_ = false;
  structural_ = false;
}

LuFactorization::Refactor LuFactorization::refactor(
    const SparseMatrix& A, const std::vector<std::uint32_t>& basis,
    Options opt) {
  if (!has_kept_ || basis.empty() || basis != kept_basis_) {
    factorize(A, basis, opt);
    return Refactor::kFull;
  }
  opt_ = opt;
  if (in_order(A, basis)) return Refactor::kInOrder;
  factorize(A, basis, opt);
  return Refactor::kFallback;
}

bool LuFactorization::in_order(const SparseMatrix& A,
                               const std::vector<std::uint32_t>& basis) {
  m_ = basis.size();
  valid_ = false;
  updates_ = 0;
  have_spike_ = false;
  retas_.clear();
  if (has_kpat_ && !same_basis_pattern(A, basis)) return false;
  if (!has_kpat_) {
    if (A.rows() != m_) return false;
    record_pattern(A, basis);
  }
  // Floors sized by A, as factorize() sizes its arenas. derive()'s per-step
  // scratch gets its floor here too: whether a prime adopts or derives its
  // patterns depends on the bases an engine has met, so the first derive()
  // may come long after the engine's buffers have grown.
  const std::size_t room = A.nnz() + m_;
  ucol_.reserve(room);
  fill_head_.reserve(room);
  fill_next_.reserve(room);
  urow_.reserve(room);
  ucbeg_.reserve(m_ + 1);
  ubeg_.reserve(m_ + 1);
  ucur_.reserve(m_ + 1);
  step_of_row_.reserve(m_);
  reach_.reserve(m_);
  lpos_.reserve(m_);
  ws_.steps.reserve(m_);
  if (!derived_) {
    if (structural_)
      adopt_layout();
    else if (!derive(A, basis))
      return false;
    derived_ = true;
  }
  // One numeric pass for every refactor in an order, however its patterns
  // were obtained: engines that share an order share the bits.
  ws_.dval.assign(m_, 0.0);
  if (!renumber(A, basis)) {
    derived_ = false;  // factorize() takes over L and U
    return false;
  }
  valid_ = true;
  return true;
}

void LuFactorization::adopt_layout() {
  // factorize() dropped nothing and skipped no fill, so its L and U hold
  // exactly the derived patterns, in derive()'s orders: index U by column.
  const std::size_t m = m_;
  ucbeg_.assign(m + 1, 0);
  for (const std::uint32_t c : kept_.slot)
    for (const UEntry& e : entries(urows_[c])) ++ucbeg_[pos_[e.slot] + 1];
  for (std::size_t k = 0; k < m; ++k) ucbeg_[k + 1] += ucbeg_[k];
  ucur_.assign(ucbeg_.begin(), ucbeg_.end() - 1);
  ucol_.resize(ucbeg_[m]);
  for (std::size_t j = 0; j < m; ++j) {
    const URow& ur = urows_[kept_.slot[j]];
    for (std::uint32_t t = 0; t < ur.len; ++t)
      ucol_[ucur_[pos_[uents_[ur.begin + t].slot]]++] = {
          static_cast<std::uint32_t>(j), kUnset, ur.begin + t};
  }
}

bool LuFactorization::derive(const SparseMatrix& A,
                             const std::vector<std::uint32_t>& basis) {
  const std::size_t m = m_;
  Workspace& w = ws_;
  // The order must be a permutation of the slots and of the rows.
  if (kept_.slot.size() != m || kept_.row.size() != m) return false;
  step_of_row_.assign(m, kUnset);
  w.mark.assign(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t r = kept_.row[k], c = kept_.slot[k];
    if (r >= m || c >= m || step_of_row_[r] != kUnset || w.mark[c])
      return false;
    step_of_row_[r] = static_cast<std::uint32_t>(k);
    w.mark[c] = 1;
  }
  w.mark.assign(m, 0);

  const std::size_t room = A.nnz() + m;
  lcols_.clear();
  lcols_.reserve(m);
  lmults_.clear();
  lmults_.reserve(room);
  ucol_.clear();
  uents_.reserve(2 * room);
  ucbeg_.resize(m + 1);
  urows_.resize(m);
  order_ = kept_.slot;
  pos_.resize(m);
  colversion_.assign(m, 0);
  reach_.resize(m);
  lpos_.resize(m);
  const auto later = std::greater<std::uint32_t>{};

  // Left-looking, one column per step. The column's entry list is kept in
  // the order factorize()'s right-looking elimination would hold it (A's
  // rows; a removed entry's place taken by the last one; fill appended in
  // L-column order), so that L comes out in factorize()'s order.
  std::vector<std::uint32_t>& col = w.touched;
  for (std::size_t k = 0; k < m; ++k) {
    const std::uint32_t c = kept_.slot[k], r = kept_.row[k];
    pos_[c] = static_cast<std::uint32_t>(k);
    ucbeg_[k] = ucol_.size();
    col.clear();
    // `cause`: the U entry whose step's L column brought `row` in (kUnset:
    // A's entry). A row pivoted earlier brings in its step's L column,
    // steps taken in order (a heap).
    auto reach = [&](std::uint32_t row, std::uint32_t cause) {
      w.mark[row] = 1;
      reach_[row] = cause;
      lpos_[row] = static_cast<std::uint32_t>(col.size());
      col.push_back(row);
      if (step_of_row_[row] < k) {
        w.steps.push_back(step_of_row_[row]);
        std::push_heap(w.steps.begin(), w.steps.end(), later);
      }
    };
    for (const std::uint32_t row : A.col_rows(basis[c])) reach(row, kUnset);
    while (!w.steps.empty()) {
      std::pop_heap(w.steps.begin(), w.steps.end(), later);
      const std::uint32_t j = w.steps.back();
      w.steps.pop_back();
      const std::uint32_t rj = kept_.row[j];
      const auto entry = static_cast<std::uint32_t>(ucol_.size());
      ucol_.push_back({j, reach_[rj], 0});
      const std::uint32_t last = col.back();
      col[lpos_[rj]] = last;
      lpos_[last] = lpos_[rj];
      col.pop_back();
      w.mark[rj] = 0;
      for (std::size_t i = lcols_[j].begin; i < lcols_[j].end; ++i)
        if (!w.mark[lmults_[i].first]) reach(lmults_[i].first, entry);
    }
    // Every row left is pivoted at step k or later: the active column. A
    // pivot row outside it is a zero pivot, which renumber() refuses.
    const std::size_t lbegin = lmults_.size();
    for (const std::uint32_t row : col) {
      if (row != r) lmults_.emplace_back(row, 0.0);
      w.mark[row] = 0;
    }
    lcols_.push_back({r, lbegin, lmults_.size()});
    urows_[c].pivot_row = r;
  }
  ucbeg_[m] = ucol_.size();
  lay_out_u();
  return true;
}

void LuFactorization::lay_out_u() {
  // U row j lists its columns in the order of factorize()'s row list for
  // row j's pivot row: the columns holding it in A, by slot, then those
  // that gained it as fill, by fill step and then by their place in that
  // step's U row (the order elimination visited them). So the A entries
  // are placed first, and then each row, once complete, in step order,
  // appends the entries its own entries' fill brought in.
  const std::size_t m = m_;
  const std::size_t nu = ucol_.size();
  ubeg_.assign(m + 1, 0);
  for (const UPos& e : ucol_) ++ubeg_[e.step + 1];
  for (std::size_t j = 0; j < m; ++j) ubeg_[j + 1] += ubeg_[j];
  ucur_.assign(ubeg_.begin(), ubeg_.end() - 1);
  fill_head_.assign(nu, kUnset);
  fill_next_.resize(nu);
  for (std::size_t i = nu; i-- > 0;) {
    const std::uint32_t cause = ucol_[i].cause;
    if (cause == kUnset) continue;
    fill_next_[i] = fill_head_[cause];
    fill_head_[cause] = static_cast<std::uint32_t>(i);
  }
  urow_.resize(nu);
  const auto place = [&](std::uint32_t i, std::uint32_t k) {
    urow_[ucur_[ucol_[i].step]++] = {i, k};
  };
  for (std::uint32_t c = 0; c < m; ++c) {
    const std::uint32_t k = pos_[c];
    for (std::size_t i = ucbeg_[k]; i < ucbeg_[k + 1]; ++i)
      if (ucol_[i].cause == kUnset) place(static_cast<std::uint32_t>(i), k);
  }
  uents_.clear();
  for (std::size_t j = 0; j < m; ++j) {
    URow& ur = urows_[kept_.slot[j]];
    ur.begin = uents_.size();
    ur.len = ur.cap = static_cast<std::uint32_t>(ubeg_[j + 1] - ubeg_[j]);
    uents_.resize(uents_.size() + ur.len);
    for (std::size_t t = ubeg_[j]; t < ubeg_[j + 1]; ++t) {
      const auto [i, k] = urow_[t];
      ucol_[i].at = ur.begin + (t - ubeg_[j]);
      uents_[ucol_[i].at] = {kept_.slot[k], 0, 0.0};
      for (std::uint32_t q = fill_head_[i]; q != kUnset; q = fill_next_[q])
        place(q, k);
    }
  }
}

bool LuFactorization::renumber(const SparseMatrix& A,
                               const std::vector<std::uint32_t>& basis) {
  // Left-looking over the kept patterns. Each entry sees the same
  // operations in the same order as in factorize()'s right-looking
  // elimination; a zero U entry applies no L column there either.
  std::vector<double>& x = ws_.dval;
  for (std::size_t k = 0; k < m_; ++k) {
    const std::uint32_t c = kept_.slot[k];
    const auto rows = A.col_rows(basis[c]);
    const auto vals = A.col_values(basis[c]);
    for (std::size_t i = 0; i < rows.size(); ++i) x[rows[i]] = vals[i];
    for (std::size_t i = ucbeg_[k]; i < ucbeg_[k + 1]; ++i) {
      const UPos& e = ucol_[i];
      double& xj = x[kept_.row[e.step]];
      const double u = xj;
      xj = 0.0;
      uents_[e.at].value = u;
      if (u == 0.0) continue;
      for (std::size_t q = lcols_[e.step].begin; q < lcols_[e.step].end; ++q)
        x[lmults_[q].first] -= lmults_[q].second * u;
    }
    double& xr = x[kept_.row[k]];
    const double pivot = xr;
    xr = 0.0;
    const LCol& lc = lcols_[k];
    double cmax = std::abs(pivot);
    for (std::size_t q = lc.begin; q < lc.end; ++q)
      cmax = std::max(cmax, std::abs(x[lmults_[q].first]));
    if (!passes_threshold(pivot, cmax)) return false;
    for (std::size_t q = lc.begin; q < lc.end; ++q) {
      double& xi = x[lmults_[q].first];
      lmults_[q].second = xi / pivot;
      xi = 0.0;
    }
    urows_[c].diag = pivot;
  }
  return true;
}

std::size_t LuFactorization::fill_nnz() const noexcept {
  std::size_t n = retas_.size() + lmults_.size();
  for (const URow& ur : urows_) n += 1 + ur.len;
  return n;
}

void LuFactorization::ftran(std::vector<double>& v, bool save_spike) {
  for (const LCol& lc : lcols_) {
    const double t = v[lc.pivot_row];
    if (t == 0.0) continue;
    for (std::size_t k = lc.begin; k < lc.end; ++k)
      v[lmults_[k].first] -= lmults_[k].second * t;
  }
  for (const REta& re : retas_) v[re.target] -= re.mult * v[re.source];
  if (save_spike) {
    spike_ = v;
    have_spike_ = true;
  }
  // Back substitution on U, from the last pivot up: every entry of a row
  // references a later-ordered slot, already solved.
  work_.assign(m_, 0.0);
  for (std::size_t k = m_; k-- > 0;) {
    const std::uint32_t slot = order_[k];
    const URow& ur = urows_[slot];
    double s = v[ur.pivot_row];
    for (const UEntry& e : entries(ur))
      if (live(e)) s -= e.value * work_[e.slot];
    work_[slot] = s / ur.diag;
  }
  v.swap(work_);
}

void LuFactorization::btran(std::vector<double>& v) {
  // Solve U' z = v by forward substitution in pivot order, scattering each
  // solved component into the still-unsolved residuals.
  work_.assign(m_, 0.0);
  for (std::size_t k = 0; k < m_; ++k) {
    const std::uint32_t slot = order_[k];
    const URow& ur = urows_[slot];
    const double zk = v[slot] / ur.diag;
    work_[ur.pivot_row] = zk;
    if (zk == 0.0) continue;
    for (const UEntry& e : entries(ur))
      if (live(e)) v[e.slot] -= e.value * zk;
  }
  // Transposed update row-etas, then transposed L columns, both in reverse.
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it)
    work_[it->source] -= it->mult * work_[it->target];
  for (auto it = lcols_.rbegin(); it != lcols_.rend(); ++it) {
    double acc = work_[it->pivot_row];
    for (std::size_t k = it->begin; k < it->end; ++k)
      acc -= lmults_[k].second * work_[lmults_[k].first];
    work_[it->pivot_row] = acc;
  }
  v.swap(work_);
}

bool LuFactorization::update(std::uint32_t slot, double pivot_estimate) {
  has_kept_ = false;  // the pivot order no longer describes the basis
  derived_ = false;
  structural_ = false;
  if (!valid_ || !have_spike_) return false;
  have_spike_ = false;
  ++updates_;
  const std::uint32_t t = pos_[slot];
  const std::uint32_t r = urows_[slot].pivot_row;

  // The spike replaces column `slot` of U: stale out the old column ...
  ++colversion_[slot];
  double smax = 0.0;
  for (std::size_t i = 0; i < m_; ++i) smax = std::max(smax, std::abs(spike_[i]));
  const double drop = opt_.drop_tol * smax;
  // ... and insert the spike's entries into every other pivot row (each row
  // of B belongs to exactly one pivot). With the pivot order rotated below,
  // the spike column is ordered last, so all of these sit above the diagonal.
  for (std::size_t q = 0; q < m_; ++q) {
    if (q == slot) continue;
    const double val = spike_[urows_[q].pivot_row];
    if (std::abs(val) > drop)
      push_u(urows_[q], {slot, colversion_[slot], val});
  }

  // Re-eliminate the spiked row r (Forrest–Tomlin): its old entries all
  // reference slots ordered after t; subtracting each such pivot row in order
  // annihilates them (fill lands on later slots and is annihilated in turn),
  // leaving only the new diagonal in the spike column. The row operations are
  // recorded as etas on the L side.
  if (m_ > dwork_.size()) dwork_.assign(m_, 0.0);
  dwork_[slot] = spike_[r];
  for (const UEntry& e : entries(urows_[slot]))
    if (live(e)) dwork_[e.slot] += e.value;
  for (std::size_t k = t + 1; k < m_; ++k) {
    const std::uint32_t q = order_[k];
    const double piv = dwork_[q];
    dwork_[q] = 0.0;
    if (piv == 0.0) continue;
    const URow& uq = urows_[q];
    const double mu = piv / uq.diag;
    retas_.push_back({r, uq.pivot_row, mu});
    for (const UEntry& e : entries(uq))
      if (live(e)) dwork_[e.slot] -= mu * e.value;
  }
  const double newdiag = dwork_[slot];
  dwork_[slot] = 0.0;
  if (!(std::abs(newdiag) > opt_.abs_pivot_tol)) {
    // Unsafe replacement pivot: the factorization is no longer usable. The
    // caller refactorizes from scratch, which discards all of the state the
    // steps above touched.
    valid_ = false;
    return false;
  }
  // Forrest–Tomlin accuracy test (see header): the re-eliminated diagonal
  // and the caller's FTRAN'd pivot entry must tell the same story. A
  // disagreement means the factorization has drifted — most dangerously,
  // that a replacement column which is actually dependent on the rest of the
  // basis slipped past the pivot tolerance. Refuse, so the caller rebuilds
  // before any iterate trusts the corrupt inverse.
  const double expect = std::abs(pivot_estimate) * std::abs(urows_[slot].diag);
  const double got = std::abs(newdiag);
  if (std::abs(got - expect) > 1e-5 * std::max(got, expect)) {
    valid_ = false;
    return false;
  }

  // Cyclic rotation of the pivot order: the replaced slot moves last.
  order_.erase(order_.begin() + t);
  order_.push_back(slot);
  for (std::size_t k = t; k < m_; ++k) pos_[order_[k]] = static_cast<std::uint32_t>(k);
  urows_[slot].diag = newdiag;
  urows_[slot].len = 0;
  return true;
}

}  // namespace figret::lp
