#include "sparse/adjacency.hpp"

namespace th {

AdjacencyGraph build_adjacency(const Csr& a) {
  TH_CHECK(a.n_rows == a.n_cols);
  const index_t n = a.n_rows;
  const auto un = static_cast<std::size_t>(n);

  // The off-diagonal pattern of A^T: a counting sort by column that visits
  // rows in order, so each transposed row comes out ascending.
  std::vector<offset_t> tptr(un + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      if (a.col_idx[p] != r) ++tptr[a.col_idx[p] + 1];
    }
  }
  for (index_t c = 0; c < n; ++c) tptr[c + 1] += tptr[c];
  std::vector<index_t> tidx(static_cast<std::size_t>(tptr[un]));
  std::vector<offset_t> cursor(tptr.begin(), tptr.end() - 1);
  for (index_t r = 0; r < n; ++r) {
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t c = a.col_idx[p];
      if (c != r) tidx[cursor[c]++] = r;
    }
  }

  // Row r of the graph merges row r of A with row r of A^T.
  AdjacencyGraph g;
  g.n = n;
  g.ptr.reserve(un + 1);
  g.ptr.push_back(0);
  g.adj.reserve(2 * tidx.size());
  for (index_t r = 0; r < n; ++r) {
    offset_t pa = a.row_ptr[r];
    const offset_t ea = a.row_ptr[r + 1];
    offset_t pt = tptr[r];
    const offset_t et = tptr[r + 1];
    while (pa < ea || pt < et) {
      const index_t ca = pa < ea ? a.col_idx[pa] : n;
      const index_t ct = pt < et ? tidx[pt] : n;
      const index_t c = ca < ct ? ca : ct;
      pa += ca == c ? 1 : 0;
      pt += ct == c ? 1 : 0;
      if (c != r) g.adj.push_back(c);
    }
    g.ptr.push_back(static_cast<offset_t>(g.adj.size()));
  }
  return g;
}

}  // namespace th
