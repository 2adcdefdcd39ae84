#include "kernels/tile.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "kernels/dense.hpp"
#include "support/error.hpp"

namespace th {

namespace {

bool sorted_in(std::span<const index_t> idx, index_t extent) {
  for (std::size_t p = 0; p < idx.size(); ++p) {
    if (idx[p] < 0 || idx[p] >= extent) return false;
    if (p > 0 && idx[p - 1] >= idx[p]) return false;
  }
  return true;
}

// Whether `map` sends each listed in-tile index (all in range) to its
// position (the entries elsewhere are the pattern's to keep at -1).
bool maps_invert(std::span<const std::int16_t> map,
                 std::span<const index_t> idx) {
  for (std::size_t p = 0; p < idx.size(); ++p) {
    if (map[static_cast<std::size_t>(idx[p])] != static_cast<index_t>(p)) {
      return false;
    }
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

Tile::Tile(index_t rows, index_t cols) {
  TH_CHECK(rows > 0 && cols > 0);
  // The full envelope: every index listed, each map the identity.
  struct Full {
    std::vector<index_t> iota;
    std::vector<std::int16_t> pos;
  };
  auto full = std::make_shared<Full>();
  full->iota.resize(static_cast<std::size_t>(std::max(rows, cols)));
  std::iota(full->iota.begin(), full->iota.end(), 0);
  full->pos = position_map(full->iota, std::max(rows, cols));
  env_ = {{full->iota.data(), static_cast<std::size_t>(rows)},
          {full->iota.data(), static_cast<std::size_t>(cols)},
          {full->pos.data(), static_cast<std::size_t>(rows)},
          {full->pos.data(), static_cast<std::size_t>(cols)}};
  lists_owner_ = std::move(full);
  data_.assign(static_cast<std::size_t>(panel_size()), 0.0);
}

Tile::Tile(const TileEnvelope& env, std::shared_ptr<const void> owner)
    : env_(env), lists_owner_(std::move(owner)) {
  TH_CHECK_MSG(lists_owner_ != nullptr, "a tile panel must own its lists");
  TH_CHECK_MSG(!env.rows.empty() && !env.cols.empty(),
               "a tile panel needs at least one row and one column");
  TH_CHECK_MSG(sorted_in(env.rows, rows()) && sorted_in(env.cols, cols()),
               "tile envelope lists must be sorted in-tile indices");
  TH_CHECK_MSG(maps_invert(env.row_pos, env.rows) &&
                   maps_invert(env.col_pos, env.cols),
               "tile position maps must invert the envelope lists");
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
  TH_CHECK(r >= 0 && r < rows() && c >= 0 && c < cols());
  const index_t pr = env_.row_pos[r];
  const index_t pc = env_.col_pos[c];
  if (pr < 0 || pc < 0) return 0.0;
  return data_[static_cast<std::size_t>(pc) * ld() + pr];
}

TileMatrix::TileMatrix(const Csr& a,
                       std::shared_ptr<const TilePattern> pattern)
    : pattern_(std::move(pattern)) {
  const TilePattern& p = *pattern_;
  TH_CHECK(a.n_rows == p.n && a.n_cols == p.n);
  tiles_.reserve(static_cast<std::size_t>(p.nt + 2 * p.col_ptr.back()));
  auto add = [&](index_t i, index_t j) {
    tiles_.emplace_back(p.envelope(i, j), pattern_);
  };
  for (index_t k = 0; k < p.nt; ++k) {
    add(k, k);
    for (const index_t i : p.below(k)) add(i, k);
    for (const index_t i : p.below(k)) add(k, i);
  }
  // A's rows are duplicate-free (sparse/convert.hpp), so each entry lands
  // in its own panel entry and every other one stays +0.0. The
  // envelope covers A's pattern (the fill includes it). A row's columns
  // ascend, so its entries in one tile are consecutive: the tile and the
  // row's panel row are looked up once per run.
  const index_t b = p.tile_size;
  for (index_t r = 0; r < a.n_rows; ++r) {
    const index_t I = r / b;
    Tile* t = nullptr;
    index_t J = -1;
    index_t pr = -1;
    for (offset_t q = a.row_ptr[r]; q < a.row_ptr[r + 1]; ++q) {
      const index_t cidx = a.col_idx[q];
      if (cidx / b != J) {
        J = cidx / b;
        t = tile(I, J);
        pr = t != nullptr ? t->row_pos()[r - I * b] : -1;
      }
      const index_t pc = pr >= 0 ? t->col_pos()[cidx - J * b] : -1;
      TH_CHECK_MSG(pc >= 0,
                   "entry (" << r << "," << cidx
                             << ") of A lies outside its tile's envelope");
      t->data()[static_cast<offset_t>(pc) * t->ld() + pr] = a.values[q];
    }
  }
}

offset_t TileMatrix::slot(index_t i, index_t j) const {
  TH_CHECK(i >= 0 && i < nt() && j >= 0 && j < nt());
  const index_t k = std::min(i, j);
  const auto& col_ptr = pattern_->col_ptr;
  if (i == j) return k + 2 * col_ptr[k];
  const offset_t q = pattern_->find(i, j);
  if (q < 0) return -1;
  return k + (i > j ? col_ptr[k] : col_ptr[k + 1]) + 1 + q;
}

Tile* TileMatrix::tile(index_t i, index_t j) {
  return const_cast<Tile*>(std::as_const(*this).tile(i, j));
}

const Tile* TileMatrix::tile(index_t i, index_t j) const {
  const offset_t s = slot(i, j);
  return s < 0 ? nullptr : &tiles_[static_cast<std::size_t>(s)];
}

offset_t TileMatrix::total_nnz() const {
  offset_t total = 0;
  for (const Tile& t : tiles_) total += t.nnz();
  return total;
}

offset_t TileMatrix::stored_words() const {
  offset_t total = 0;
  for (const Tile& t : tiles_) total += t.panel_size();
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

  // Inner indices: L's columns ∩ U's rows, as positions in each list, in
  // ascending order. An index missing from either side multiplies an
  // exact zero.
  thread_local std::vector<index_t> lpos_buf, upos_buf, rmap_buf;
  const auto lc = l.col_idx();
  const auto urow = u.row_pos();
  index_t* lpos = workspace(lpos_buf, lc.size());
  index_t* upos = workspace(upos_buf, lc.size());
  index_t k = 0;
  for (std::size_t a = 0; a < lc.size(); ++a) {
    const index_t q = urow[lc[a]];
    if (q < 0) continue;
    lpos[k] = static_cast<index_t>(a);
    upos[k++] = q;
  }
  if (k == 0) return;

  // L's rows as C's panel rows; -1 marks a row C's envelope lacks, whose
  // product is structurally zero and is dropped. When L's rows are one run
  // of C's (C's own rows included), the kernel reads C's columns from the
  // run's first row on, with no map.
  const auto lr = l.row_idx();
  const auto crow = c.row_pos();
  index_t* rmap = workspace(rmap_buf, static_cast<std::size_t>(m));
  bool all_mapped = true;
  for (index_t ii = 0; ii < m; ++ii) {
    rmap[ii] = crow[lr[ii]];
    all_mapped = all_mapped && rmap[ii] >= 0;
  }
  const bool run = all_mapped && rmap[m - 1] - rmap[0] == m - 1;
  const offset_t row0 = run ? rmap[0] : 0;

  // Target columns: U's columns that C's envelope holds (one C lacks is a
  // structurally zero product, dropped).
  thread_local std::vector<real_t*> cols_buf;
  const index_t n = u.panel_cols();
  real_t** cols = workspace(cols_buf, static_cast<std::size_t>(n));
  const auto uc = u.col_idx();
  const auto ccol = c.col_pos();
  for (index_t j = 0; j < n; ++j) {
    const index_t q = ccol[uc[j]];
    cols[j] = q >= 0 ? c.data() + static_cast<offset_t>(q) * c.ld() + row0
                     : nullptr;
  }
  gemm_minus_indexed(m, n, k, l.data(), l.ld(), lpos, u.data(), u.ld(), upos,
                     run ? nullptr : rmap, cols);
}

}  // namespace th
