#include "kernels/tile.hpp"

#include <algorithm>

#include "kernels/dense.hpp"
#include "support/error.hpp"

namespace th {

Tile::Tile(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
  TH_CHECK(rows > 0 && cols > 0);
  col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);
}

offset_t Tile::nnz() const {
  if (storage_ == Storage::kSparse) {
    return static_cast<offset_t>(row_idx_.size());
  }
  offset_t c = 0;
  for (real_t v : dense_) c += (v != 0.0);
  return c;
}

void Tile::insert(index_t r, index_t c, real_t v) {
  TH_CHECK(storage_ == Storage::kSparse && !frozen_);
  TH_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  // Buffered as (col-counted) triplets: row_idx_/values_ carry entries,
  // col_ptr_ carries per-column counts until freeze().
  row_idx_.push_back(r);
  values_.push_back(v);
  ++col_ptr_[static_cast<std::size_t>(c) + 1];
  pending_cols_.push_back(c);
}

void Tile::freeze() {
  TH_CHECK(storage_ == Storage::kSparse && !frozen_);
  for (index_t c = 0; c < cols_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  std::vector<offset_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  std::vector<index_t> rows(row_idx_.size());
  std::vector<real_t> vals(values_.size());
  for (std::size_t k = 0; k < pending_cols_.size(); ++k) {
    const offset_t p = cursor[pending_cols_[k]]++;
    rows[static_cast<std::size_t>(p)] = row_idx_[k];
    vals[static_cast<std::size_t>(p)] = values_[k];
  }
  // Sort rows within each column.
  for (index_t c = 0; c < cols_; ++c) {
    const offset_t lo = col_ptr_[c], hi = col_ptr_[c + 1];
    std::vector<std::pair<index_t, real_t>> tmp;
    tmp.reserve(static_cast<std::size_t>(hi - lo));
    for (offset_t p = lo; p < hi; ++p) {
      tmp.emplace_back(rows[static_cast<std::size_t>(p)],
                       vals[static_cast<std::size_t>(p)]);
    }
    std::sort(tmp.begin(), tmp.end());
    for (offset_t p = lo; p < hi; ++p) {
      rows[static_cast<std::size_t>(p)] = tmp[static_cast<std::size_t>(p - lo)].first;
      vals[static_cast<std::size_t>(p)] = tmp[static_cast<std::size_t>(p - lo)].second;
    }
  }
  row_idx_ = std::move(rows);
  values_ = std::move(vals);
  pending_cols_.clear();
  pending_cols_.shrink_to_fit();
  frozen_ = true;
}

void Tile::densify() {
  if (storage_ == Storage::kDense) return;
  TH_CHECK_MSG(frozen_, "densify before freeze()");
  dense_.assign(static_cast<std::size_t>(rows_) * cols_, 0.0);
  for (index_t c = 0; c < cols_; ++c) {
    for (offset_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
      dense_[static_cast<std::size_t>(c) * rows_ + row_idx_[p]] = values_[p];
    }
  }
  storage_ = Storage::kDense;
  col_ptr_.clear();
  row_idx_.clear();
  values_.clear();
  col_ptr_.shrink_to_fit();
  row_idx_.shrink_to_fit();
  values_.shrink_to_fit();
}

std::vector<real_t> Tile::release_dense() {
  TH_CHECK(storage_ == Storage::kDense);
  std::vector<real_t> out = std::move(dense_);
  dense_.clear();
  return out;
}

void Tile::adopt_dense(std::vector<real_t> data) {
  TH_CHECK_MSG(data.size() == static_cast<std::size_t>(rows_) * cols_,
               "adopt_dense: got " << data.size() << " elements for a "
                                   << rows_ << "x" << cols_ << " tile");
  dense_ = std::move(data);
  storage_ = Storage::kDense;
  col_ptr_.clear();
  row_idx_.clear();
  values_.clear();
}

real_t* Tile::dense_data() {
  TH_CHECK(storage_ == Storage::kDense);
  return dense_.data();
}

const real_t* Tile::dense_data() const {
  TH_CHECK(storage_ == Storage::kDense);
  return dense_.data();
}

real_t Tile::at(index_t r, index_t c) const {
  TH_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  if (storage_ == Storage::kDense) {
    return dense_[static_cast<std::size_t>(c) * rows_ + r];
  }
  TH_CHECK(frozen_);
  for (offset_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
    if (row_idx_[p] == r) return values_[p];
  }
  return 0.0;
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
  for (index_t r = 0; r < a.n_rows; ++r) {
    const index_t I = r / b;
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t cidx = a.col_idx[p];
      const index_t J = cidx / b;
      Tile* t = tile(I, J);
      TH_ASSERT(t != nullptr);
      t->insert(r - I * b, cidx - J * b, a.values[p]);
    }
  }
  for (auto& t : tiles_) {
    if (t) t->freeze();
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
  diag.densify();
  getrf_nopiv(diag.rows(), diag.dense_data(), diag.ld());
}

void tile_tstrf(Tile& target, const Tile& diag_factored) {
  TH_CHECK(diag_factored.storage() == Tile::Storage::kDense);
  TH_CHECK(target.cols() == diag_factored.rows());
  target.densify();
  trsm_upper_right(target.rows(), target.cols(), diag_factored.dense_data(),
                   diag_factored.ld(), target.dense_data(), target.ld());
}

void tile_geesm(Tile& target, const Tile& diag_factored) {
  TH_CHECK(diag_factored.storage() == Tile::Storage::kDense);
  TH_CHECK(target.rows() == diag_factored.cols());
  target.densify();
  trsm_lower_left_unit(target.rows(), target.cols(),
                       diag_factored.dense_data(), diag_factored.ld(),
                       target.dense_data(), target.ld());
}

void tile_ssssm_cols(real_t* c_data, index_t ldc, const Tile& l,
                     const Tile& u, index_t c0, index_t c1) {
  TH_CHECK(l.cols() == u.rows());
  // Both operands are factor output, which TSTRF/GEESM leave dense: every
  // SSSSM(i,k,j) depends on TSTRF(i,k) and GEESM(k,j).
  TH_CHECK_MSG(l.storage() == Tile::Storage::kDense,
               "SSSSM requires a factored (dense) L operand");
  TH_CHECK_MSG(u.storage() == Tile::Storage::kDense,
               "SSSSM requires a factored (dense) U operand");
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
  c.densify();
  tile_ssssm_cols(c.dense_data(), c.ld(), l, u, 0, c.cols());
}

void tile_tstrf_rows(Tile& target, const Tile& diag_factored, index_t r0,
                     index_t r1) {
  TH_CHECK(diag_factored.storage() == Tile::Storage::kDense);
  TH_CHECK_MSG(target.storage() == Tile::Storage::kDense,
               "sliced TSTRF needs a prepared (dense) target");
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
  TH_CHECK(diag_factored.storage() == Tile::Storage::kDense);
  TH_CHECK_MSG(target.storage() == Tile::Storage::kDense,
               "sliced GEESM needs a prepared (dense) target");
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
