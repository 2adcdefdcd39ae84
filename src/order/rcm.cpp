#include <algorithm>

#include "order/graph.hpp"
#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th {

Permutation rcm_order(const Csr& a) {
  const AdjacencyGraph g = build_adjacency(a);
  Permutation order;
  order.reserve(static_cast<std::size_t>(g.n));
  // unvisited[v] == !visited: the mask that restricts each component's
  // pseudo-peripheral search to the rest of the graph, cleared as the BFS
  // reaches vertices, so no component pays for the whole graph.
  std::vector<char> unvisited(static_cast<std::size_t>(g.n), 1);
  BfsWorkspace ws(g.n);

  for (index_t root_scan = 0; root_scan < g.n; ++root_scan) {
    if (!unvisited[root_scan]) continue;
    const index_t root = pseudo_peripheral(g, root_scan, ws, unvisited);

    // Cuthill-McKee: BFS where each vertex's neighbours are expanded in
    // increasing-degree order.
    std::vector<index_t> frontier{root};
    unvisited[root] = 0;
    std::size_t head = 0;
    while (head < frontier.size()) {
      const index_t v = frontier[head++];
      std::vector<index_t> nbrs;
      for (offset_t p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
        const index_t u = g.adj[p];
        if (unvisited[u]) {
          unvisited[u] = 0;
          nbrs.push_back(u);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](index_t x, index_t y) {
        return g.degree(x) < g.degree(y);
      });
      frontier.insert(frontier.end(), nbrs.begin(), nbrs.end());
    }
    order.insert(order.end(), frontier.begin(), frontier.end());
  }

  // Reverse (the "R" in RCM) — reduces profile for factorisation.
  std::reverse(order.begin(), order.end());
  TH_ASSERT(is_valid_permutation(order));
  return order;
}

}  // namespace th
