// The undirected graph of a square matrix, the one structure every
// analysis pass reads: the orderings (order/), the elimination tree and
// the fill (symbolic/). It is the pattern of A + A^T without the diagonal,
// so its structure is symmetric whatever A's is.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace th {

struct AdjacencyGraph {
  index_t n = 0;
  std::vector<offset_t> ptr;
  std::vector<index_t> adj;  // each vertex's neighbours, ascending

  index_t degree(index_t v) const {
    return static_cast<index_t>(ptr[v + 1] - ptr[v]);
  }
};

/// The pattern of A + A^T with the diagonal removed, neighbours sorted:
/// the only place the analysis symmetrizes A.
AdjacencyGraph build_adjacency(const Csr& a);

}  // namespace th
