// Breadth-first search over the adjacency graph (sparse/adjacency.hpp),
// the building block of RCM and nested dissection.
#pragma once

#include <vector>

#include "sparse/adjacency.hpp"

namespace th {

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
