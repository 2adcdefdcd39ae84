// Scalar symbolic factorisation: the exact nonzero pattern of L (and, by
// structural symmetry, U^T) for an LU factorisation without pivoting of
// A's symmetrized pattern, read from its adjacency graph, one sorted row
// list per column. No solver path builds it: both cores read L's
// structure from supernodal_symbolic (symbolic/supernodes.hpp), and this
// stays as the column-by-column reference the tests compare against.
#pragma once

#include <vector>

#include "symbolic/etree.hpp"

namespace th {

/// Column-compressed pattern of L, including the diagonal. row_idx within a
/// column is sorted ascending; the first entry of each column is the
/// diagonal.
struct FillPattern {
  index_t n = 0;
  std::vector<offset_t> col_ptr;
  std::vector<index_t> row_idx;

  offset_t nnz_l() const { return static_cast<offset_t>(row_idx.size()); }
  /// nnz(L+U) counting the shared diagonal once, assuming pattern symmetry.
  offset_t nnz_lu() const {
    return 2 * nnz_l() - static_cast<offset_t>(n);
  }
};

/// Exact fill pattern via child-merge on the elimination tree t of g:
///   struct(L(:,j)) = {j} ∪ {i > j adjacent to j in g}
///                    ∪ ⋃_{c: parent(c)=j} struct(L(:,c)) \ {c}
/// g is A + A^T's structure, so this is the fill of A's symmetrized
/// pattern. Runs in O(|L|) time and memory.
FillPattern symbolic_fill(const AdjacencyGraph& g, const EliminationTree& t);

/// Convenience: build A's adjacency, its etree, and the fill.
FillPattern symbolic_fill(const Csr& a);

}  // namespace th
