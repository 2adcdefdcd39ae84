// Tiles: the unit of storage and computation of the PLU (PanguLU-style)
// solver core. A tile starts out sparse (CSC within the tile) and is
// densified on first write, so every kernel operand that is factor output
// is dense (simplification documented in DESIGN.md §7; the *cost model*
// uses symbolic sparsity, so scheduling behaviour is unaffected).
#pragma once

#include <memory>
#include <vector>

#include "sparse/csr.hpp"
#include "symbolic/tiles.hpp"

namespace th {

class Tile {
 public:
  enum class Storage { kSparse, kDense };

  /// Construct an empty (all-zero) sparse tile.
  Tile(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  Storage storage() const { return storage_; }

  /// Structural nonzero count (exact for sparse, counted for dense).
  offset_t nnz() const;
  real_t density() const {
    return static_cast<real_t>(nnz()) /
           (static_cast<real_t>(rows_) * static_cast<real_t>(cols_));
  }

  /// Insert entries while building (sparse storage only, before freeze()).
  void insert(index_t r, index_t c, real_t v);
  /// Sort/compress the inserted entries into CSC form.
  void freeze();

  /// Convert to dense column-major storage (no-op if already dense).
  void densify();

  /// Mutable dense buffer; requires dense storage.
  real_t* dense_data();
  const real_t* dense_data() const;
  index_t ld() const { return rows_; }

  /// Move the dense buffer out (out-of-core spill, src/mem). Requires
  /// dense storage; the tile keeps its shape but every dense access until
  /// the matching adopt_dense() is invalid.
  std::vector<real_t> release_dense();
  /// Install a rows()*cols() column-major buffer as the dense storage —
  /// the inverse of release_dense(), also used to restore a spilled
  /// payload byte-exact.
  void adopt_dense(std::vector<real_t> data);

  /// Sparse view; requires sparse storage.
  const std::vector<offset_t>& col_ptr() const { return col_ptr_; }
  const std::vector<index_t>& row_idx() const { return row_idx_; }
  const std::vector<real_t>& values() const { return values_; }

  /// Read one element regardless of storage (slow; tests only).
  real_t at(index_t r, index_t c) const;

 private:
  index_t rows_;
  index_t cols_;
  Storage storage_ = Storage::kSparse;
  // Sparse (CSC) representation.
  std::vector<offset_t> col_ptr_;
  std::vector<index_t> row_idx_;
  std::vector<real_t> values_;
  bool frozen_ = false;
  std::vector<index_t> pending_cols_;  // column of each inserted entry,
                                       // consumed by freeze()
  // Dense representation (column-major, ld = rows_).
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

/// GETRF: in-place LU of a diagonal tile (densifies it).
void tile_getrf(Tile& diag);

/// TSTRF: L(i,k) = A(i,k) * U(k,k)^{-1}; densifies the target.
void tile_tstrf(Tile& target, const Tile& diag_factored);

/// GEESM: U(k,j) = L(k,k)^{-1} * A(k,j); densifies the target.
void tile_geesm(Tile& target, const Tile& diag_factored);

/// SSSSM: C(i,j) -= L(i,k) * U(k,j) via gemm_minus, which skips the zero
/// entries of U. L and U must be dense (factored); densifies C.
void tile_ssssm(Tile& c, const Tile& l, const Tile& u);

// ---- Block-sliced (re-entrant) kernel forms ----------------------------
//
// One CUDA block per target row (TSTRF) or column (GEESM/SSSSM), as priced
// in Task::cost.cuda_blocks. Each kernel iterates its rows/columns
// independently, so executing a slice [b0, b1) is bitwise identical to the
// corresponding part of the whole-tile kernel — concurrent slices of one
// task need no synchronisation beyond a densified target.

/// TSTRF restricted to target rows [r0, r1). Target must already be dense
/// (NumericBackend::prepare_task densifies it once, serially).
void tile_tstrf_rows(Tile& target, const Tile& diag_factored, index_t r0,
                     index_t r1);

/// GEESM restricted to target columns [c0, c1). Target must be dense.
void tile_geesm_cols(Tile& target, const Tile& diag_factored, index_t c0,
                     index_t c1);

/// SSSSM on target columns [c0, c1), accumulating into `c_data` (leading
/// dimension ldc, same shape as the target tile) — either the target's
/// dense storage or a write-conflicting member's private scratch buffer.
/// L and U must be dense.
void tile_ssssm_cols(real_t* c_data, index_t ldc, const Tile& l,
                     const Tile& u, index_t c0, index_t c1);

}  // namespace th
