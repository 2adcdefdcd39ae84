// Tiles: the unit of storage and computation of the PLU (PanguLU-style)
// solver core. A tile is an envelope panel (DESIGN.md §3): the sorted
// in-tile rows and columns of its symbolic L+U nonzeros (from the
// TilePattern's envelope) and a dense column-major block over exactly those
// rows × columns. Diagonal tiles are full, and every panel has at least one
// row and one column (a tile exists only where it holds scalar fill).
// TileMatrix scatters A's entries into zeroed panels and the four kernels
// update them in place. Every entry outside a panel is a structural zero
// of the factors, so the panel is the whole tile.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "symbolic/tiles.hpp"

namespace th {

class Tile {
 public:
  /// A full rows × cols tile (every in-tile row and column listed), zeroed.
  Tile(index_t rows, index_t cols);
  /// A zeroed panel over sorted, non-empty in-tile row and column lists.
  /// `owner` (required) keeps the lists alive for the tile and its copies;
  /// TileMatrix passes its pattern's envelope.
  Tile(index_t rows, index_t cols, std::span<const index_t> row_idx,
       std::span<const index_t> col_idx, std::shared_ptr<const void> owner);

  /// The logical tile shape (b × b, smaller on the last block row/col).
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  /// The envelope: panel row p is in-tile row row_idx()[p], likewise cols.
  std::span<const index_t> row_idx() const { return row_idx_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  index_t panel_rows() const { return static_cast<index_t>(row_idx_.size()); }
  index_t panel_cols() const { return static_cast<index_t>(col_idx_.size()); }
  offset_t panel_size() const {
    return static_cast<offset_t>(panel_rows()) * panel_cols();
  }
  /// True when the panel covers the whole tile (diagonal tiles).
  bool full() const {
    return panel_rows() == rows_ && panel_cols() == cols_;
  }

  /// Number of stored entries that are not zero.
  offset_t nnz() const;

  /// Panel storage, column-major with leading dimension ld() ==
  /// panel_rows().
  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }
  index_t ld() const { return panel_rows(); }

  /// Install a panel_size() column-major buffer as the storage — restores
  /// a spilled or committed payload byte-exact (src/mem, src/serve).
  void adopt_panel(std::vector<real_t> data);

  /// Read one logical element: 0 outside the envelope (bounds-checked;
  /// tests and diagnostics only).
  real_t at(index_t r, index_t c) const;

 private:
  index_t rows_;
  index_t cols_;
  std::span<const index_t> row_idx_;
  std::span<const index_t> col_idx_;
  std::shared_ptr<const void> lists_owner_;
  std::vector<real_t> data_;
};

/// The tiled matrix: owns one Tile per structurally present block of the
/// TilePattern (absent blocks stay null and are structurally zero), each a
/// panel over the pattern's envelope lists.
class TileMatrix {
 public:
  TileMatrix(const Csr& a, const TilePattern& pattern);

  index_t nt() const { return pattern_.nt; }
  index_t tile_size() const { return pattern_.tile_size; }
  const TilePattern& pattern() const { return pattern_; }

  bool has(index_t i, index_t j) const { return tile(i, j) != nullptr; }
  Tile* tile(index_t i, index_t j);
  const Tile* tile(index_t i, index_t j) const;

  /// Exact nnz over all tiles (post-factorisation this is nnz(L+U) with the
  /// diagonal counted once).
  offset_t total_nnz() const;

  /// Words held by all panels together (the factor storage).
  offset_t stored_words() const;

 private:
  TilePattern pattern_;
  std::vector<std::unique_ptr<Tile>> tiles_;
};

// ---- Tile-level numeric kernels (the four task bodies) -----------------
//
// Each kernel works on the panels: TSTRF over L's rows and columns with
// U(k,k) read through the column list, GEESM over U's rows with L(k,k)
// read through the row list, SSSSM over L's rows × U's columns × (L's
// columns ∩ U's rows), gathering C's target rows, folding and scattering
// them back. A product row (column) that C's envelope lacks is a structural
// zero and is dropped. Every stored entry gets the nonzero terms the dense
// b×b kernels gave it, in the same order (DESIGN.md §17).

/// GETRF: in-place LU of a (full) diagonal tile.
void tile_getrf(Tile& diag);

/// TSTRF: L(i,k) = A(i,k) * U(k,k)^{-1}, in place.
void tile_tstrf(Tile& target, const Tile& diag_factored);

/// GEESM: U(k,j) = L(k,k)^{-1} * A(k,j), in place.
void tile_geesm(Tile& target, const Tile& diag_factored);

/// SSSSM: C(i,j) -= L(i,k) * U(k,j), skipping the zero entries of U.
void tile_ssssm(Tile& c, const Tile& l, const Tile& u);

}  // namespace th
