#include "symbolic/supernodes.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace th {

SupernodalStructure supernodal_symbolic(const AdjacencyGraph& g,
                                        const EliminationTree& t) {
  const index_t n = g.n;
  TH_CHECK(t.n() == n);
  const EtreeChildren kids = etree_children(t);

  SupernodalStructure sym;
  SupernodePartition& part = sym.part;
  part.sn_of_col.assign(static_cast<std::size_t>(n), 0);
  sym.row_ptr.push_back(0);
  // mark[r] == s: r is a row of supernode s.
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  std::vector<index_t> below;  // the rows > j of a column opening s

  // Calls f on the rows of L's column j other than j itself that j's
  // adjacency and its etree children c != skip bring: struct(L_c) \ {c}
  // for each child, which is all >= j. A child is the last column of its
  // supernode (a non-last column's parent is the next column), so its
  // supernode's row set is final.
  const auto for_each_source = [&](index_t j, index_t skip, auto&& f) {
    for (offset_t p = g.ptr[j]; p < g.ptr[j + 1]; ++p) {
      if (g.adj[p] > j && !f(g.adj[p])) return false;
    }
    for (index_t q = kids.ptr[j]; q < kids.ptr[j + 1]; ++q) {
      const index_t c = kids.child[q];
      if (c == skip) continue;
      for (const index_t r : sym.column(c).subspan(1)) {
        if (r > j && !f(r)) return false;
      }
    }
    return true;
  };

  index_t s = -1;  // the open supernode
  const auto close = [&] {
    if (s >= 0) sym.row_ptr.push_back(static_cast<offset_t>(sym.rows.size()));
  };
  for (index_t j = 0; j < n; ++j) {
    // Column j joins s when parent(j-1) == j, which makes struct(L_j) ⊇
    // rows(s) ∩ [j, n), and j brings no row s lacks.
    if (j > 0 && t.parent[j - 1] == j &&
        for_each_source(j, j - 1, [&](index_t r) { return mark[r] == s; })) {
      part.sn_of_col[j] = s;
      continue;
    }
    close();
    ++s;
    part.start.push_back(j);
    part.sn_of_col[j] = s;
    mark[j] = s;
    below.clear();
    for_each_source(j, -1, [&](index_t r) {
      if (mark[r] != s) {
        mark[r] = s;
        below.push_back(r);
      }
      return true;
    });
    std::sort(below.begin(), below.end());
    sym.rows.push_back(j);
    sym.rows.insert(sym.rows.end(), below.begin(), below.end());
  }
  close();
  part.start.push_back(n);
  return sym;
}

SupernodePartition find_supernodes(const SupernodalStructure& sym,
                                   const EliminationTree& etree,
                                   index_t max_size, index_t relax_slack) {
  TH_CHECK(max_size > 0);
  TH_CHECK(relax_slack >= 0);
  const index_t n = sym.n();
  TH_CHECK(etree.n() == n);

  SupernodePartition part;
  part.sn_of_col.assign(static_cast<std::size_t>(n), 0);
  part.start.push_back(0);

  index_t cur_start = 0;
  for (index_t j = 1; j <= n; ++j) {
    bool extend = false;
    if (j < n) {
      const bool chain = etree.parent[j - 1] == j;
      // parent(j-1) == j gives struct(L_j) ⊇ struct(L_{j-1}) \ {j-1}, so
      // col_count(j) >= col_count(j-1) - 1 always holds. Exact nesting is
      // equality; relaxation lets column j add up to relax_slack rows that
      // column j-1 lacks (padded with explicit zeros in j-1's panel).
      const bool nested =
          sym.col_count(j) <= sym.col_count(j - 1) - 1 + relax_slack;
      const bool fits = j - cur_start < max_size;
      extend = chain && nested && fits;
    }
    if (!extend) {
      for (index_t c = cur_start; c < j; ++c) {
        part.sn_of_col[c] = part.count();
      }
      part.start.push_back(j);
      cur_start = j;
    }
  }
  return part;
}

std::vector<index_t> supernode_rows(const SupernodalStructure& sym,
                                    const SupernodePartition& part,
                                    index_t s) {
  TH_CHECK(s >= 0 && s < part.count());
  const index_t first = part.start[s];
  const index_t last = part.start[s + 1];
  // Within a fundamental supernode the column patterns are nested, so the
  // union of the member columns' patterns is the union, over the
  // fundamental supernodes they meet, of the first member column's.
  const auto head = sym.column(first);
  std::vector<index_t> rows(head.begin(), head.end());
  const index_t f_last = sym.part.sn_of_col[last - 1];
  for (index_t f = sym.part.sn_of_col[first] + 1; f <= f_last; ++f) {
    const auto col = sym.rows_of(f);
    std::vector<index_t> merged;
    merged.reserve(rows.size() + col.size());
    std::set_union(rows.begin(), rows.end(), col.begin(), col.end(),
                   std::back_inserter(merged));
    rows = std::move(merged);
  }
  // Every member column must appear: c is in its own pattern and the
  // parent chain guarantees c+1 is in pattern(c).
  for (index_t c = first; c < last; ++c) {
    TH_ASSERT(rows[c - first] == c);
  }
  return rows;
}

}  // namespace th
