#include "symbolic/supernodes.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace th {

SupernodePartition find_supernodes(const FillPattern& fill,
                                   const EliminationTree& etree,
                                   index_t max_size, index_t relax_slack) {
  TH_CHECK(max_size > 0);
  TH_CHECK(relax_slack >= 0);
  const index_t n = fill.n;
  TH_CHECK(etree.n() == n);

  SupernodePartition part;
  part.sn_of_col.assign(static_cast<std::size_t>(n), 0);
  part.start.push_back(0);

  auto col_count = [&](index_t j) {
    return fill.col_ptr[j + 1] - fill.col_ptr[j];
  };

  index_t cur_start = 0;
  for (index_t j = 1; j <= n; ++j) {
    bool extend = false;
    if (j < n) {
      const bool chain = etree.parent[j - 1] == j;
      // parent(j-1) == j gives struct(L_j) ⊇ struct(L_{j-1}) \ {j-1}, so
      // col_count(j) >= col_count(j-1) - 1 always holds. Exact nesting is
      // equality; relaxation lets column j add up to relax_slack rows that
      // column j-1 lacks (padded with explicit zeros in j-1's panel).
      const bool nested = col_count(j) <= col_count(j - 1) - 1 + relax_slack;
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

std::vector<index_t> supernode_rows(const FillPattern& fill,
                                    const SupernodePartition& part,
                                    index_t s) {
  TH_CHECK(s >= 0 && s < part.count());
  const index_t first = part.start[s];
  const index_t last = part.start[s + 1];
  // Sorted union of the member columns' patterns (equals the first
  // column's pattern when the partition is fundamental).
  std::vector<index_t> rows(fill.row_idx.begin() + fill.col_ptr[first],
                            fill.row_idx.begin() + fill.col_ptr[first + 1]);
  for (index_t c = first + 1; c < last; ++c) {
    std::vector<index_t> merged;
    merged.reserve(rows.size() +
                   static_cast<std::size_t>(fill.col_ptr[c + 1] -
                                            fill.col_ptr[c]));
    std::set_union(rows.begin(), rows.end(),
                   fill.row_idx.begin() + fill.col_ptr[c],
                   fill.row_idx.begin() + fill.col_ptr[c + 1],
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
