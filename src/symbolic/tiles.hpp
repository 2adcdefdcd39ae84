// Tile-level (2-D block) symbolic structure — the PanguLU-style blocking.
//
// The matrix is cut into a fixed grid of b-by-b tiles, and the exact scalar
// symbolic factorisation decides which tiles of L+U exist: a tile is
// present iff it holds a scalar nonzero of L+U (diagonal tiles always are).
// Those tiles and their envelopes are the task structure the PLU solver
// core and the Trojan Horse schedule over (Figure 4 of the paper). The
// fill is structurally symmetric, so only the strictly lower block
// triangle is stored (DESIGN.md §3); an upper tile reads its mirror.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace th {

/// A tile's envelope: its sorted in-tile rows and columns holding an L+U
/// nonzero, and their position maps: row_pos[x] is in-tile row x's
/// position in `rows` (its panel row), -1 when x is not in the envelope;
/// likewise col_pos for the columns. The maps span the tile's extent.
struct TileEnvelope {
  std::span<const index_t> rows;
  std::span<const index_t> cols;
  std::span<const std::int16_t> row_pos;
  std::span<const std::int16_t> col_pos;
};

/// The position map of a sorted list of in-tile indices over [0, extent):
/// map[idx[p]] = p, -1 elsewhere. Throws when extent > 32767.
std::vector<std::int16_t> position_map(std::span<const index_t> idx,
                                       index_t extent);

struct TilePattern {
  index_t n = 0;          // matrix dimension
  index_t tile_size = 0;  // b
  index_t nt = 0;         // number of tile rows/cols = ceil(n / b)

  /// Block column J's lower tiles (I, J), I > J, are the positions
  /// [col_ptr[J], col_ptr[J + 1]) of the per-tile arrays, I ascending.
  std::vector<offset_t> col_ptr;  // nt + 1
  std::vector<index_t> tile_row;  // I of each lower tile
  /// Scalar L+U fill of each lower tile (as much as its mirror's) and each
  /// diagonal tile: it decides which tiles exist and prices tile density.
  std::vector<offset_t> tile_fill;
  std::vector<offset_t> diag_fill;
  /// Lower tile p's envelope, its sorted in-tile rows and columns holding
  /// an L+U nonzero: env[env_ptr[2p], env_ptr[2p + 1]) and
  /// env[env_ptr[2p + 1], env_ptr[2p + 2]), both non-empty.
  std::vector<offset_t> env_ptr;
  std::vector<index_t> env;
  std::vector<index_t> iota;  // 0..b-1: the full diagonal tiles' lists
  /// Lower tile p's position maps, stride b: pos[2p * b + x] is in-tile
  /// row x's panel row and pos[(2p + 1) * b + x] in-tile column x's panel
  /// column, -1 outside the envelope and past the tile's extent. An upper
  /// tile reads its mirror's maps swapped, a diagonal tile `pos_iota`.
  std::vector<std::int16_t> pos;
  std::vector<std::int16_t> pos_iota;  // 0..b-1

  /// Block rows I > k of block column k's tiles, ascending; by symmetry
  /// also the block columns J > k of block row k's tiles.
  std::span<const index_t> below(index_t k) const {
    return {tile_row.data() + col_ptr[k],
            static_cast<std::size_t>(col_ptr[k + 1] - col_ptr[k])};
  }

  /// Position of the lower tile of the pair (i,j), (j,i), found in block
  /// column min(i, j); -1 when the pair is absent or i == j.
  offset_t find(index_t i, index_t j) const {
    const auto last = tile_row.begin() + col_ptr[std::min(i, j) + 1];
    const auto it = std::lower_bound(
        tile_row.begin() + col_ptr[std::min(i, j)], last, std::max(i, j));
    return it != last && *it == std::max(i, j) ? it - tile_row.begin() : -1;
  }
  bool has(index_t i, index_t j) const { return i == j || find(i, j) >= 0; }
  /// Scalar fill of tile (i, j); 0 when absent.
  offset_t fill(index_t i, index_t j) const {
    if (i == j) return diag_fill[i];
    const offset_t p = find(i, j);
    return p < 0 ? 0 : tile_fill[p];
  }

  /// Envelope of tile (i, j): full on the diagonal, its mirror's lists
  /// and maps swapped above it, empty when absent.
  TileEnvelope envelope(index_t i, index_t j) const;

  index_t rows_in_tile(index_t I) const {
    return std::min<index_t>(tile_size, n - I * tile_size);
  }
};

/// Build the tile pattern of A from L's exact structure, binned from the
/// fundamental supernodes' row sets (supernodal_symbolic): the present
/// tiles (those with fill, plus the diagonal), their fill counts and
/// envelopes. The pattern is closed under the Schur updates that exist: if
/// L(i,k)'s envelope columns meet U(k,j)'s envelope rows, tile (i,j) has
/// fill.
TilePattern tile_symbolic(const Csr& a, index_t tile_size);

/// nnz(L+U) from the scalar symbolic fill binned into tiles (exact for a
/// factorisation without pivoting). Feeds Table 2/4 reporting.
offset_t estimate_tile_nnz_lu(const TilePattern& p);

}  // namespace th
