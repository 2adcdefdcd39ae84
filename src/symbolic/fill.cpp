#include "symbolic/fill.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace th {

FillPattern symbolic_fill(const AdjacencyGraph& g, const EliminationTree& t) {
  const index_t n = g.n;
  TH_CHECK(t.n() == n);
  const EtreeChildren kids = etree_children(t);

  FillPattern f;
  f.n = n;
  f.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);

  offset_t total = 0;
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t>& col = cols[j];
    col.push_back(j);
    mark[j] = j;
    // Neighbours below the diagonal in column j (== row j by symmetry).
    for (offset_t p = g.ptr[j]; p < g.ptr[j + 1]; ++p) {
      const index_t i = g.adj[p];
      if (i > j && mark[i] != j) {
        mark[i] = j;
        col.push_back(i);
      }
    }
    // Merge children columns (minus their diagonals, minus anything <= j).
    for (index_t q = kids.ptr[j]; q < kids.ptr[j + 1]; ++q) {
      for (const index_t i : cols[kids.child[q]]) {
        if (i > j && mark[i] != j) {
          mark[i] = j;
          col.push_back(i);
        }
      }
    }
    std::sort(col.begin(), col.end());
    total += static_cast<offset_t>(col.size());
    f.col_ptr[static_cast<std::size_t>(j) + 1] = total;
  }

  f.row_idx.reserve(static_cast<std::size_t>(total));
  for (index_t j = 0; j < n; ++j) {
    f.row_idx.insert(f.row_idx.end(), cols[j].begin(), cols[j].end());
  }
  return f;
}

FillPattern symbolic_fill(const Csr& a) {
  const AdjacencyGraph g = build_adjacency(a);
  return symbolic_fill(g, elimination_tree(g));
}

}  // namespace th
