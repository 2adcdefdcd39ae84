// Tile-level (2-D block) symbolic structure — the PanguLU-style blocking.
//
// The matrix is cut into a fixed grid of b-by-b tiles, and the exact scalar
// symbolic factorisation decides which tiles of L+U exist: a tile is
// present iff it holds a scalar nonzero of L+U (diagonal tiles always are).
// Those tiles and their envelopes are the task structure the PLU solver
// core and the Trojan Horse schedule over (Figure 4 of the paper).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace th {

/// The symbolic envelope of every tile: the sorted in-tile rows and the
/// sorted in-tile columns that hold at least one scalar L+U nonzero. Cells
/// are indexed like TilePattern::present; each list is a slice of `idx`.
/// A tile (I,J) above the diagonal shares its lists with (J,I) transposed
/// (the fill pattern is structurally symmetric).
struct TileEnvelope {
  std::vector<offset_t> row_off, col_off;  // slice starts in idx
  std::vector<index_t> row_len, col_len;   // slice lengths
  std::vector<index_t> idx;
};

struct TilePattern {
  index_t n = 0;          // matrix dimension
  index_t tile_size = 0;  // b
  index_t nt = 0;         // number of tile rows/cols = ceil(n / b)

  /// present[I * nt + J] != 0 iff fill_nnz of tile (I, J) is nonzero or
  /// I == J.
  std::vector<char> present;

  /// Scalar-fill nonzeros of L+U that fall in each tile, computed from the
  /// exact symbolic factorisation. It decides which tiles exist, and the
  /// cost model prices tile density from it.
  std::vector<offset_t> fill_nnz;

  /// Envelope lists of every tile, built with fill_nnz. Shared, so copies
  /// of a pattern (TileMatrix, the serve layer's symbolic donors) point at
  /// one set of lists. Diagonal tiles are full; every other present tile
  /// has non-empty lists, and an absent one empty lists.
  std::shared_ptr<const TileEnvelope> envelope;

  std::span<const index_t> env_rows(index_t i, index_t j) const {
    const std::size_t c = static_cast<std::size_t>(i) * nt + j;
    return {envelope->idx.data() + envelope->row_off[c],
            static_cast<std::size_t>(envelope->row_len[c])};
  }
  std::span<const index_t> env_cols(index_t i, index_t j) const {
    const std::size_t c = static_cast<std::size_t>(i) * nt + j;
    return {envelope->idx.data() + envelope->col_off[c],
            static_cast<std::size_t>(envelope->col_len[c])};
  }

  bool has(index_t i, index_t j) const {
    return present[static_cast<std::size_t>(i) * nt + j] != 0;
  }

  /// Tiles of block-column J below the diagonal (i > J), ascending.
  std::vector<index_t> col_tiles_below(index_t J) const;
  /// Tiles of block-row I right of the diagonal (j > I), ascending.
  std::vector<index_t> row_tiles_right(index_t I) const;

  index_t rows_in_tile(index_t I) const {
    return std::min<index_t>(tile_size, n - I * tile_size);
  }
};

/// Build the tile pattern of A from its scalar symbolic fill: fill_nnz,
/// the envelopes and the present tiles (those with fill, plus the
/// diagonal). The pattern is closed under the Schur updates that exist: if
/// L(i,k)'s envelope columns meet U(k,j)'s envelope rows, tile (i,j) has
/// fill.
TilePattern tile_symbolic(const Csr& a, index_t tile_size);

/// nnz(L+U) from the scalar symbolic fill binned into tiles (exact for a
/// factorisation without pivoting). Feeds Table 2/4 reporting.
offset_t estimate_tile_nnz_lu(const TilePattern& p);

}  // namespace th
