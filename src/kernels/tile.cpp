#include "kernels/tile.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "kernels/dense.hpp"
#include "support/error.hpp"

namespace th {

namespace {

// Panel position of in-tile index x in a sorted list, or -1 when x is not
// in the envelope.
index_t find_pos(std::span<const index_t> idx, index_t x) {
  const auto it = std::lower_bound(idx.begin(), idx.end(), x);
  return it != idx.end() && *it == x ? static_cast<index_t>(it - idx.begin())
                                     : -1;
}

bool sorted_in(std::span<const index_t> idx, index_t extent) {
  for (std::size_t p = 0; p < idx.size(); ++p) {
    if (idx[p] < 0 || idx[p] >= extent) return false;
    if (p > 0 && idx[p - 1] >= idx[p]) return false;
  }
  return true;
}

// Per-thread kernel workspace: kernels run concurrently on the executor's
// lanes, and reusing one buffer per thread keeps them off the allocator.
template <typename T>
T* workspace(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace

Tile::Tile(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  TH_CHECK(rows > 0 && cols > 0);
  auto iota = std::make_shared<std::vector<index_t>>(
      static_cast<std::size_t>(std::max(rows, cols)));
  std::iota(iota->begin(), iota->end(), 0);
  row_idx_ = {iota->data(), static_cast<std::size_t>(rows)};
  col_idx_ = {iota->data(), static_cast<std::size_t>(cols)};
  lists_owner_ = std::move(iota);
  data_.assign(static_cast<std::size_t>(panel_size()), 0.0);
}

Tile::Tile(index_t rows, index_t cols, std::span<const index_t> row_idx,
           std::span<const index_t> col_idx,
           std::shared_ptr<const void> owner)
    : rows_(rows),
      cols_(cols),
      row_idx_(row_idx),
      col_idx_(col_idx),
      lists_owner_(std::move(owner)) {
  TH_CHECK(rows > 0 && cols > 0);
  TH_CHECK_MSG(lists_owner_ != nullptr, "a tile panel must own its lists");
  TH_CHECK_MSG(!row_idx.empty() && !col_idx.empty(),
               "a tile panel needs at least one row and one column");
  TH_CHECK_MSG(sorted_in(row_idx, rows) && sorted_in(col_idx, cols),
               "tile envelope lists must be sorted in-tile indices");
  data_.assign(static_cast<std::size_t>(panel_size()), 0.0);
}

offset_t Tile::nnz() const {
  offset_t c = 0;
  for (real_t v : data_) c += (v != 0.0);
  return c;
}

void Tile::adopt_panel(std::vector<real_t> data) {
  TH_CHECK_MSG(static_cast<offset_t>(data.size()) == panel_size(),
               "adopt_panel: got " << data.size() << " elements for a "
                                   << panel_rows() << "x" << panel_cols()
                                   << " panel");
  data_ = std::move(data);
}

real_t Tile::at(index_t r, index_t c) const {
  TH_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  const index_t pr = find_pos(row_idx_, r);
  const index_t pc = find_pos(col_idx_, c);
  if (pr < 0 || pc < 0) return 0.0;
  return data_[static_cast<std::size_t>(pc) * ld() + pr];
}

TileMatrix::TileMatrix(const Csr& a, const TilePattern& pattern)
    : pattern_(pattern) {
  TH_CHECK(a.n_rows == pattern.n && a.n_cols == pattern.n);
  TH_CHECK(pattern_.envelope != nullptr);
  const index_t nt = pattern_.nt;
  tiles_.resize(static_cast<std::size_t>(nt) * nt);
  const index_t b = pattern_.tile_size;
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j < nt; ++j) {
      if (pattern_.has(i, j)) {
        tiles_[static_cast<std::size_t>(i) * nt + j] = std::make_unique<Tile>(
            pattern_.rows_in_tile(i), pattern_.rows_in_tile(j),
            pattern_.env_rows(i, j), pattern_.env_cols(i, j),
            pattern_.envelope);
      }
    }
  }
  // A's rows are duplicate-free (sparse/convert.hpp), so each entry lands
  // in its own slot and every other slot of a panel stays +0.0. The
  // envelope covers A's pattern (the fill includes it).
  for (index_t r = 0; r < a.n_rows; ++r) {
    const index_t I = r / b;
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t cidx = a.col_idx[p];
      const index_t J = cidx / b;
      Tile* t = tile(I, J);
      TH_ASSERT(t != nullptr);
      const index_t pr = find_pos(t->row_idx(), r - I * b);
      const index_t pc = find_pos(t->col_idx(), cidx - J * b);
      TH_CHECK_MSG(pr >= 0 && pc >= 0,
                   "entry (" << r << "," << cidx
                             << ") of A lies outside its tile's envelope");
      t->data()[static_cast<offset_t>(pc) * t->ld() + pr] = a.values[p];
    }
  }
}

Tile* TileMatrix::tile(index_t i, index_t j) {
  TH_CHECK(i >= 0 && i < nt() && j >= 0 && j < nt());
  return tiles_[static_cast<std::size_t>(i) * nt() + j].get();
}

const Tile* TileMatrix::tile(index_t i, index_t j) const {
  TH_CHECK(i >= 0 && i < nt() && j >= 0 && j < nt());
  return tiles_[static_cast<std::size_t>(i) * nt() + j].get();
}

offset_t TileMatrix::total_nnz() const {
  offset_t total = 0;
  for (const auto& t : tiles_) {
    if (t) total += t->nnz();
  }
  return total;
}

offset_t TileMatrix::stored_words() const {
  offset_t total = 0;
  for (const auto& t : tiles_) {
    if (t) total += t->panel_size();
  }
  return total;
}

// ---- Tile-level kernels -------------------------------------------------

void tile_getrf(Tile& diag) {
  TH_CHECK(diag.rows() == diag.cols() && diag.full());
  getrf_nopiv(diag.rows(), diag.data(), diag.ld());
}

void tile_tstrf(Tile& target, const Tile& diag_factored) {
  TH_CHECK(target.cols() == diag_factored.rows() && diag_factored.full());
  const index_t n = target.panel_cols();
  const real_t* u = diag_factored.data();
  index_t ldu = diag_factored.ld();
  if (n != diag_factored.cols()) {
    // U(k,k) restricted to the panel's columns (upper triangle, the part
    // trsm_upper_right reads). A column of the target outside the list is
    // all zero, so the terms it would fold in are exact zeros.
    thread_local std::vector<real_t> packed;
    real_t* pu = workspace(packed, static_cast<std::size_t>(n) * n);
    const auto cols = target.col_idx();
    for (index_t jj = 0; jj < n; ++jj) {
      const real_t* src = u + static_cast<offset_t>(cols[jj]) * ldu;
      real_t* dst = pu + static_cast<offset_t>(jj) * n;
      for (index_t kk = 0; kk <= jj; ++kk) dst[kk] = src[cols[kk]];
    }
    u = pu;
    ldu = n;
  }
  trsm_upper_right(target.panel_rows(), n, u, ldu, target.data(),
                   target.ld());
}

void tile_geesm(Tile& target, const Tile& diag_factored) {
  TH_CHECK(target.rows() == diag_factored.cols() && diag_factored.full());
  const index_t m = target.panel_rows();
  const real_t* l = diag_factored.data();
  index_t ldl = diag_factored.ld();
  if (m != diag_factored.rows()) {
    // L(k,k) restricted to the panel's rows (strictly lower, the part
    // trsm_lower_left_unit reads). A row outside the list holds exact
    // zeros, which the substitution skips anyway.
    thread_local std::vector<real_t> packed;
    real_t* pl = workspace(packed, static_cast<std::size_t>(m) * m);
    const auto rows = target.row_idx();
    for (index_t kk = 0; kk < m; ++kk) {
      const real_t* src = l + static_cast<offset_t>(rows[kk]) * ldl;
      real_t* dst = pl + static_cast<offset_t>(kk) * m;
      for (index_t ii = kk + 1; ii < m; ++ii) dst[ii] = src[rows[ii]];
    }
    l = pl;
    ldl = m;
  }
  trsm_lower_left_unit(m, target.panel_cols(), l, ldl, target.data(),
                       target.ld());
}

void tile_ssssm(Tile& c, const Tile& l, const Tile& u) {
  TH_CHECK(l.cols() == u.rows());
  TH_CHECK(c.rows() == l.rows() && c.cols() == u.cols());
  const index_t m = l.panel_rows();

  // Inner indices: L's columns ∩ U's rows, as positions in each list. An
  // index missing from either side multiplies an exact zero.
  thread_local std::vector<index_t> lpos_buf, upos_buf, rmap_buf;
  const auto lc = l.col_idx();
  const auto ur = u.row_idx();
  index_t* lpos = workspace(lpos_buf, lc.size());
  index_t* upos = workspace(upos_buf, lc.size());
  index_t k = 0;
  for (std::size_t a = 0, b = 0; a < lc.size() && b < ur.size();) {
    if (lc[a] < ur[b]) {
      ++a;
    } else if (ur[b] < lc[a]) {
      ++b;
    } else {
      lpos[k] = static_cast<index_t>(a++);
      upos[k++] = static_cast<index_t>(b++);
    }
  }
  if (k == 0) return;

  // L's rows as C's panel rows; -1 marks a row C's envelope lacks, whose
  // product is structurally zero and is dropped.
  const auto lr = l.row_idx();
  const auto cr = c.row_idx();
  index_t* rmap = workspace(rmap_buf, static_cast<std::size_t>(m));
  for (index_t ii = 0, q = 0; ii < m; ++ii) {
    while (q < c.panel_rows() && cr[q] < lr[ii]) ++q;
    rmap[ii] = q < c.panel_rows() && cr[q] == lr[ii] ? q : -1;
  }

  // Target columns: U's columns that C's envelope holds (one C lacks is a
  // structurally zero product, dropped). The fold works on gathered copies
  // of C's target rows, scattered back after.
  thread_local std::vector<real_t*> dst_buf, col_buf;
  thread_local std::vector<real_t> tmp_buf;
  const index_t n = u.panel_cols();
  real_t** dst = workspace(dst_buf, static_cast<std::size_t>(n));
  real_t** cols = workspace(col_buf, static_cast<std::size_t>(n));
  real_t* tmp = workspace(tmp_buf, static_cast<std::size_t>(m) * n);
  const auto uc = u.col_idx();
  const auto cc = c.col_idx();
  for (index_t j = 0, q = 0; j < n; ++j) {
    const index_t col = uc[j];
    while (q < c.panel_cols() && cc[q] < col) ++q;
    if (q == c.panel_cols() || cc[q] != col) {
      dst[j] = cols[j] = nullptr;
      continue;
    }
    dst[j] = c.data() + static_cast<offset_t>(q) * c.ld();
    cols[j] = tmp + static_cast<offset_t>(j) * m;
    for (index_t ii = 0; ii < m; ++ii) {
      cols[j][ii] = rmap[ii] >= 0 ? dst[j][rmap[ii]] : 0.0;
    }
  }
  gemm_minus_indexed(m, n, k, l.data(), l.ld(), lpos, u.data(), u.ld(), upos,
                     cols);
  for (index_t j = 0; j < n; ++j) {
    if (dst[j] == nullptr) continue;
    for (index_t ii = 0; ii < m; ++ii) {
      if (rmap[ii] >= 0) dst[j][rmap[ii]] = cols[j][ii];
    }
  }
}

}  // namespace th
