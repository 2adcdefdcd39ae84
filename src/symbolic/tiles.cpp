#include "symbolic/tiles.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "symbolic/fill.hpp"

namespace th {

std::vector<index_t> TilePattern::col_tiles_below(index_t J) const {
  std::vector<index_t> out;
  for (index_t i = J + 1; i < nt; ++i) {
    if (has(i, J)) out.push_back(i);
  }
  return out;
}

std::vector<index_t> TilePattern::row_tiles_right(index_t I) const {
  std::vector<index_t> out;
  for (index_t j = I + 1; j < nt; ++j) {
    if (has(I, j)) out.push_back(j);
  }
  return out;
}

TilePattern tile_symbolic(const Csr& a, index_t tile_size) {
  TH_CHECK(a.n_rows == a.n_cols);
  TH_CHECK(tile_size > 0);
  TilePattern p;
  p.n = a.n_rows;
  p.tile_size = tile_size;
  p.nt = (a.n_rows + tile_size - 1) / tile_size;
  const std::size_t cells =
      static_cast<std::size_t>(p.nt) * static_cast<std::size_t>(p.nt);
  p.fill_nnz.assign(cells, 0);

  // Exact scalar fill binned into tiles: entry (i,j) of L contributes to
  // tile (i/b, j/b), and its structural mirror to (j/b, i/b); the diagonal
  // contributes once. The same pass records each tile's envelope. Block
  // column J's fill columns are consecutive, so per J a global row mark
  // (rows of the tiles (I,J) below the diagonal) and per-tile column marks
  // give the lists of (I,J); (J,I) takes them transposed.
  {
    const FillPattern f = symbolic_fill(a);
    auto env = std::make_shared<TileEnvelope>();
    env->row_off.assign(cells, 0);
    env->col_off.assign(cells, 0);
    env->row_len.assign(cells, 0);
    env->col_len.assign(cells, 0);
    std::vector<char> row_mark(static_cast<std::size_t>(p.n), 0);
    std::vector<char> col_mark(static_cast<std::size_t>(p.nt) * tile_size, 0);
    std::vector<char> touched(static_cast<std::size_t>(p.nt), 0);
    std::vector<index_t> below;
    // Append the in-tile indices x in [0, len) with mark[lo + x] set (all
    // of them without a mark); returns the slice's offset and length.
    auto emit = [&](index_t lo, index_t len, const char* mark) {
      const std::size_t off = env->idx.size();
      for (index_t x = 0; x < len; ++x) {
        if (mark == nullptr || mark[lo + x] != 0) env->idx.push_back(x);
      }
      return std::pair<offset_t, index_t>(
          static_cast<offset_t>(off),
          static_cast<index_t>(env->idx.size() - off));
    };
    for (index_t J = 0; J < p.nt; ++J) {
      const index_t j0 = J * tile_size;
      const index_t bj = p.rows_in_tile(J);
      for (index_t j = j0; j < j0 + bj; ++j) {
        for (offset_t q = f.col_ptr[j]; q < f.col_ptr[j + 1]; ++q) {
          const index_t i = f.row_idx[q];
          const index_t I = i / tile_size;
          ++p.fill_nnz[static_cast<std::size_t>(I) * p.nt + J];
          if (i == j) continue;
          ++p.fill_nnz[static_cast<std::size_t>(J) * p.nt + I];
          if (I == J) continue;  // diagonal tiles are full
          row_mark[i] = 1;
          col_mark[static_cast<std::size_t>(I) * tile_size + (j - j0)] = 1;
          if (touched[I] == 0) {
            touched[I] = 1;
            below.push_back(I);
          }
        }
      }
      const std::size_t diag = static_cast<std::size_t>(J) * p.nt + J;
      const auto [doff, dlen] = emit(0, bj, nullptr);
      env->row_off[diag] = env->col_off[diag] = doff;
      env->row_len[diag] = env->col_len[diag] = dlen;
      for (const index_t I : below) {
        const index_t i0 = I * tile_size;
        const auto [roff, rlen] =
            emit(i0, p.rows_in_tile(I), row_mark.data());
        const auto [coff, clen] = emit(i0, bj, col_mark.data());
        const std::size_t lo = static_cast<std::size_t>(I) * p.nt + J;
        const std::size_t up = static_cast<std::size_t>(J) * p.nt + I;
        env->row_off[lo] = env->col_off[up] = roff;
        env->row_len[lo] = env->col_len[up] = rlen;
        env->col_off[lo] = env->row_off[up] = coff;
        env->col_len[lo] = env->row_len[up] = clen;
        std::fill_n(row_mark.begin() + i0, p.rows_in_tile(I), 0);
        std::fill_n(col_mark.begin() + i0, bj, 0);
        touched[I] = 0;
      }
      below.clear();
    }
    p.envelope = std::move(env);
  }

  // A tile exists iff it holds scalar fill; the diagonal tiles (the
  // pivots) always do.
  p.present.resize(cells);
  for (std::size_t c = 0; c < cells; ++c) p.present[c] = p.fill_nnz[c] != 0;
  for (index_t k = 0; k < p.nt; ++k) {
    p.present[static_cast<std::size_t>(k) * p.nt + k] = 1;
  }
  return p;
}

offset_t estimate_tile_nnz_lu(const TilePattern& p) {
  offset_t total = 0;
  for (offset_t c : p.fill_nnz) total += c;
  return total;
}

}  // namespace th
