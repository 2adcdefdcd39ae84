#include "symbolic/tiles.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"
#include "symbolic/supernodes.hpp"

namespace th {

namespace {
constexpr index_t kMaxMapExtent = 32767;  // every position fits int16
}  // namespace

std::vector<std::int16_t> position_map(std::span<const index_t> idx,
                                       index_t extent) {
  TH_CHECK_MSG(extent <= kMaxMapExtent,
               "position maps hold tiles of at most " << kMaxMapExtent
                                                      << " rows");
  std::vector<std::int16_t> map(static_cast<std::size_t>(extent), -1);
  for (std::size_t q = 0; q < idx.size(); ++q) {
    TH_CHECK(idx[q] >= 0 && idx[q] < extent);
    map[static_cast<std::size_t>(idx[q])] = static_cast<std::int16_t>(q);
  }
  return map;
}

TileEnvelope TilePattern::envelope(index_t i, index_t j) const {
  const auto len = [&](index_t x) {
    return static_cast<std::size_t>(rows_in_tile(x));
  };
  if (i == j) {
    return {{iota.data(), len(i)},
            {iota.data(), len(i)},
            {pos_iota.data(), len(i)},
            {pos_iota.data(), len(i)}};
  }
  const offset_t p = find(i, j);
  if (p < 0) return {};
  // Slice s of the lower tile: its rows (s = 2p) or columns (2p + 1).
  const auto list = [&](offset_t s) -> std::span<const index_t> {
    return {env.data() + env_ptr[s],
            static_cast<std::size_t>(env_ptr[s + 1] - env_ptr[s])};
  };
  const auto map = [&](offset_t s,
                        index_t x) -> std::span<const std::int16_t> {
    return {pos.data() + s * tile_size, len(x)};
  };
  const offset_t r = 2 * p + (i < j ? 1 : 0);  // the slice of (i, j)'s rows
  const offset_t c = 2 * p + (i < j ? 0 : 1);
  return {list(r), list(c), map(r, i), map(c, j)};
}

TilePattern tile_symbolic(const Csr& a, index_t tile_size) {
  TH_CHECK(a.n_rows == a.n_cols);
  TH_CHECK(tile_size > 0);
  TilePattern p;
  p.n = a.n_rows;
  p.tile_size = tile_size;
  p.nt = (a.n_rows + tile_size - 1) / tile_size;
  p.iota.resize(static_cast<std::size_t>(tile_size));
  std::iota(p.iota.begin(), p.iota.end(), 0);
  p.pos_iota = position_map(p.iota, tile_size);
  p.col_ptr.reserve(static_cast<std::size_t>(p.nt) + 1);
  p.col_ptr.push_back(0);
  p.diag_fill.assign(static_cast<std::size_t>(p.nt), 0);
  p.env_ptr.push_back(0);

  // L's structure binned into tiles: L's entry (i,j), i > j, counts once
  // in tile (i/b, j/b) and once in its mirror, which holds U's (j,i) — so
  // twice in a diagonal tile — and the pivot (j,j) counts once. Block
  // column J's columns are consecutive, so per J a global row mark (rows of
  // the lower tiles (I,J)) and per-tile column marks give the envelope of
  // each (I,J); the mirror (J,I) reads it transposed. The columns come as
  // pieces [lo, lo + w) of fundamental supernodes s clipped to J: column j
  // of a piece holds rows(s) ∩ [j, n), so a row r >= lo + w is in all w of
  // its columns and a row r in the piece in the r - lo + 1 up to r.
  const AdjacencyGraph g = build_adjacency(a);
  const SupernodalStructure sym = supernodal_symbolic(g, elimination_tree(g));
  std::vector<char> row_mark(static_cast<std::size_t>(p.n), 0);
  std::vector<char> col_mark(static_cast<std::size_t>(p.nt) * tile_size, 0);
  std::vector<offset_t> count(static_cast<std::size_t>(p.nt), 0);
  std::vector<index_t> below;
  // Append the in-tile indices x in [0, len) with mark[lo + x] set as the
  // next envelope slice, clearing the marks.
  auto emit = [&](index_t lo, index_t len, std::vector<char>& mark) {
    for (index_t x = 0; x < len; ++x) {
      if (mark[lo + x] != 0) p.env.push_back(x);
    }
    std::fill_n(mark.begin() + lo, len, 0);
    p.env_ptr.push_back(static_cast<offset_t>(p.env.size()));
  };
  for (index_t J = 0; J < p.nt; ++J) {
    const index_t j0 = J * tile_size;
    const index_t bj = p.rows_in_tile(J);
    const index_t s_last = sym.part.sn_of_col[j0 + bj - 1];
    for (index_t s = sym.part.sn_of_col[j0]; s <= s_last; ++s) {
      const index_t lo = std::max(sym.part.start[s], j0);
      const index_t w = std::min(sym.part.start[s + 1], j0 + bj) - lo;
      // Rows lo..lo+w-1 open the column list: Σ (1 + 2(r - lo)) = w².
      p.diag_fill[J] += static_cast<offset_t>(w) * w;
      index_t last_tile = J;
      for (const index_t i : sym.column(lo).subspan(w)) {
        const index_t I = i / tile_size;
        if (I == J) {
          p.diag_fill[J] += 2 * static_cast<offset_t>(w);
          continue;
        }
        if (I != last_tile) {  // rows ascend: the piece's first row in I
          last_tile = I;
          if (count[I] == 0) below.push_back(I);
          std::fill_n(col_mark.begin() +
                          (static_cast<std::ptrdiff_t>(I) * tile_size +
                           (lo - j0)),
                      w, 1);
        }
        count[I] += w;
        row_mark[i] = 1;
      }
    }
    std::sort(below.begin(), below.end());
    for (const index_t I : below) {
      const index_t i0 = I * tile_size;
      p.tile_row.push_back(I);
      p.tile_fill.push_back(count[I]);
      count[I] = 0;
      emit(i0, p.rows_in_tile(I), row_mark);
      emit(i0, bj, col_mark);
    }
    p.col_ptr.push_back(static_cast<offset_t>(p.tile_row.size()));
    below.clear();
  }
  // Each envelope slice's position map, b apart.
  const std::size_t slices = p.env_ptr.size() - 1;
  p.pos.assign(slices * static_cast<std::size_t>(tile_size), -1);
  for (std::size_t s = 0; s < slices; ++s) {
    for (offset_t q = p.env_ptr[s]; q < p.env_ptr[s + 1]; ++q) {
      p.pos[s * tile_size + p.env[q]] =
          static_cast<std::int16_t>(q - p.env_ptr[s]);
    }
  }
  return p;
}

offset_t estimate_tile_nnz_lu(const TilePattern& p) {
  offset_t total = 0;
  for (const offset_t c : p.diag_fill) total += c;
  for (const offset_t c : p.tile_fill) total += 2 * c;
  return total;
}

}  // namespace th
