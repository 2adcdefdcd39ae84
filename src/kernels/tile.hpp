// Tiles: the unit of storage and computation of the PLU (PanguLU-style)
// solver core. A tile is a dense column-major buffer from assembly on:
// TileMatrix scatters A's entries into zeroed tiles and the four kernels
// update them in place (DESIGN.md §3; the *cost model* uses symbolic
// sparsity, so scheduling behaviour is unaffected).
#pragma once

#include <memory>
#include <vector>

#include "sparse/csr.hpp"
#include "symbolic/tiles.hpp"

namespace th {

class Tile {
 public:
  /// Construct an all-zero tile.
  Tile(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  /// Number of entries that are not zero.
  offset_t nnz() const;

  /// Column-major storage with leading dimension ld() == rows().
  real_t* dense_data() { return dense_.data(); }
  const real_t* dense_data() const { return dense_.data(); }
  index_t ld() const { return rows_; }

  /// Install a rows()*cols() column-major buffer as the storage — restores
  /// a spilled payload byte-exact (out-of-core spill, src/mem).
  void adopt_dense(std::vector<real_t> data);

  /// Read one element (bounds-checked; tests only).
  real_t at(index_t r, index_t c) const;

 private:
  index_t rows_;
  index_t cols_;
  std::vector<real_t> dense_;
};

/// The tiled matrix: owns one Tile per structurally present block of the
/// TilePattern (absent blocks stay null and are structurally zero).
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

 private:
  TilePattern pattern_;
  std::vector<std::unique_ptr<Tile>> tiles_;
};

// ---- Tile-level numeric kernels (the four task bodies) -----------------

/// GETRF: in-place LU of a diagonal tile.
void tile_getrf(Tile& diag);

/// TSTRF: L(i,k) = A(i,k) * U(k,k)^{-1}, in place.
void tile_tstrf(Tile& target, const Tile& diag_factored);

/// GEESM: U(k,j) = L(k,k)^{-1} * A(k,j), in place.
void tile_geesm(Tile& target, const Tile& diag_factored);

/// SSSSM: C(i,j) -= L(i,k) * U(k,j) via gemm_minus, which skips the zero
/// entries of U.
void tile_ssssm(Tile& c, const Tile& l, const Tile& u);

// ---- Block-sliced (re-entrant) kernel forms ----------------------------
//
// One CUDA block per target row (TSTRF) or column (GEESM/SSSSM), as priced
// in Task::cost.cuda_blocks. Each kernel iterates its rows/columns
// independently, so executing a slice [b0, b1) is bitwise identical to the
// corresponding part of the whole-tile kernel — concurrent slices of one
// task write disjoint rows/columns and need no synchronisation.

/// TSTRF restricted to target rows [r0, r1).
void tile_tstrf_rows(Tile& target, const Tile& diag_factored, index_t r0,
                     index_t r1);

/// GEESM restricted to target columns [c0, c1).
void tile_geesm_cols(Tile& target, const Tile& diag_factored, index_t c0,
                     index_t c1);

/// SSSSM on target columns [c0, c1), accumulating into `c_data` (leading
/// dimension ldc, same shape as the target tile) — either the target's
/// storage or a write-conflicting member's private scratch buffer.
void tile_ssssm_cols(real_t* c_data, index_t ldc, const Tile& l,
                     const Tile& u, index_t c0, index_t c1);

}  // namespace th
