#include "kernels/tile.hpp"

#include "kernels/dense.hpp"
#include "support/error.hpp"

namespace th {

Tile::Tile(index_t rows, index_t cols)
    : rows_(rows),
      cols_(cols),
      dense_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
             0.0) {
  TH_CHECK(rows > 0 && cols > 0);
}

offset_t Tile::nnz() const {
  offset_t c = 0;
  for (real_t v : dense_) c += (v != 0.0);
  return c;
}

void Tile::adopt_dense(std::vector<real_t> data) {
  TH_CHECK_MSG(data.size() == static_cast<std::size_t>(rows_) * cols_,
               "adopt_dense: got " << data.size() << " elements for a "
                                   << rows_ << "x" << cols_ << " tile");
  dense_ = std::move(data);
}

real_t Tile::at(index_t r, index_t c) const {
  TH_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return dense_[static_cast<std::size_t>(c) * rows_ + r];
}

TileMatrix::TileMatrix(const Csr& a, const TilePattern& pattern)
    : pattern_(pattern) {
  TH_CHECK(a.n_rows == pattern.n && a.n_cols == pattern.n);
  const index_t nt = pattern_.nt;
  tiles_.resize(static_cast<std::size_t>(nt) * nt);
  const index_t b = pattern_.tile_size;
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j < nt; ++j) {
      if (pattern_.has(i, j)) {
        tiles_[static_cast<std::size_t>(i) * nt + j] = std::make_unique<Tile>(
            pattern_.rows_in_tile(i), pattern_.rows_in_tile(j));
      }
    }
  }
  // A's rows are duplicate-free (sparse/convert.hpp), so each entry lands
  // in its own slot and every other slot of a present tile stays +0.0.
  for (index_t r = 0; r < a.n_rows; ++r) {
    const index_t I = r / b;
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t cidx = a.col_idx[p];
      const index_t J = cidx / b;
      Tile* t = tile(I, J);
      TH_ASSERT(t != nullptr);
      t->dense_data()[static_cast<offset_t>(cidx - J * b) * t->ld() +
                      (r - I * b)] = a.values[p];
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

// ---- Tile-level kernels -------------------------------------------------

void tile_getrf(Tile& diag) {
  TH_CHECK(diag.rows() == diag.cols());
  getrf_nopiv(diag.rows(), diag.dense_data(), diag.ld());
}

void tile_tstrf(Tile& target, const Tile& diag_factored) {
  TH_CHECK(target.cols() == diag_factored.rows());
  trsm_upper_right(target.rows(), target.cols(), diag_factored.dense_data(),
                   diag_factored.ld(), target.dense_data(), target.ld());
}

void tile_geesm(Tile& target, const Tile& diag_factored) {
  TH_CHECK(target.rows() == diag_factored.cols());
  trsm_lower_left_unit(target.rows(), target.cols(),
                       diag_factored.dense_data(), diag_factored.ld(),
                       target.dense_data(), target.ld());
}

void tile_ssssm_cols(real_t* c_data, index_t ldc, const Tile& l,
                     const Tile& u, index_t c0, index_t c1) {
  TH_CHECK(l.cols() == u.rows());
  TH_CHECK(c0 >= 0 && c0 <= c1 && c1 <= u.cols());
  if (c0 == c1) return;
  real_t* cs = c_data + static_cast<offset_t>(c0) * ldc;
  const real_t* us = u.dense_data() + static_cast<offset_t>(c0) * u.ld();
  gemm_minus(l.rows(), c1 - c0, l.cols(), l.dense_data(), l.ld(), us,
             u.ld(), cs, ldc);
}

void tile_ssssm(Tile& c, const Tile& l, const Tile& u) {
  TH_CHECK(l.cols() == u.rows());
  TH_CHECK(c.rows() == l.rows() && c.cols() == u.cols());
  tile_ssssm_cols(c.dense_data(), c.ld(), l, u, 0, c.cols());
}

void tile_tstrf_rows(Tile& target, const Tile& diag_factored, index_t r0,
                     index_t r1) {
  TH_CHECK(target.cols() == diag_factored.rows());
  TH_CHECK(r0 >= 0 && r0 <= r1 && r1 <= target.rows());
  if (r0 == r1) return;
  // trsm_upper_right treats rows independently: offsetting the base
  // pointer by r0 rows solves exactly those rows, bitwise identical to the
  // whole-tile call.
  trsm_upper_right(r1 - r0, target.cols(), diag_factored.dense_data(),
                   diag_factored.ld(), target.dense_data() + r0,
                   target.ld());
}

void tile_geesm_cols(Tile& target, const Tile& diag_factored, index_t c0,
                     index_t c1) {
  TH_CHECK(target.rows() == diag_factored.cols());
  TH_CHECK(c0 >= 0 && c0 <= c1 && c1 <= target.cols());
  if (c0 == c1) return;
  trsm_lower_left_unit(
      target.rows(), c1 - c0, diag_factored.dense_data(),
      diag_factored.ld(),
      target.dense_data() + static_cast<offset_t>(c0) * target.ld(),
      target.ld());
}

}  // namespace th
