// Undirected adjacency view used by the ordering algorithms: the pattern of
// A + A^T with the diagonal removed.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace th {

struct AdjacencyGraph {
  index_t n = 0;
  std::vector<offset_t> ptr;
  std::vector<index_t> adj;

  index_t degree(index_t v) const {
    return static_cast<index_t>(ptr[v + 1] - ptr[v]);
  }
};

/// Build the symmetrized, diagonal-free adjacency of a square matrix.
AdjacencyGraph build_adjacency(const Csr& a);

/// BFS state owned by one ordering call and reused by every bfs() it
/// makes: `level` is n long, and a call resets only the vertices the
/// previous call reached, so a BFS costs the size of what it visits.
struct BfsWorkspace {
  explicit BfsWorkspace(index_t n)
      : level(static_cast<std::size_t>(n), -1) {}
  /// level[v] = BFS depth of v in the last search, -1 if unreached.
  std::vector<index_t> level;
  /// The last search's reached vertices in BFS order (also its queue).
  std::vector<index_t> order;
};

/// BFS from `start` over `g` into `ws`, visiting only vertices where
/// mask[v] == true (mask may be empty = all true).
void bfs(const AdjacencyGraph& g, index_t start, BfsWorkspace& ws,
         const std::vector<char>& mask = {});

/// A vertex approximately maximising eccentricity in the component of
/// `start` (George-Liu pseudo-peripheral search). Leaves in `ws` the BFS
/// of its last search.
index_t pseudo_peripheral(const AdjacencyGraph& g, index_t start,
                          BfsWorkspace& ws,
                          const std::vector<char>& mask = {});

}  // namespace th
