#include <algorithm>

#include "order/graph.hpp"
#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th {

Permutation rcm_order(const Csr& a) {
  const AdjacencyGraph g = build_adjacency(a);
  Permutation order;
  order.reserve(static_cast<std::size_t>(g.n));
  std::vector<char> visited(static_cast<std::size_t>(g.n), 0);
  BfsWorkspace ws(g.n);

  for (index_t root_scan = 0; root_scan < g.n; ++root_scan) {
    if (visited[root_scan]) continue;
    std::vector<char> mask(static_cast<std::size_t>(g.n), 0);
    // Restrict to the unvisited portion of the graph.
    for (index_t v = 0; v < g.n; ++v) mask[v] = !visited[v];
    const index_t root = pseudo_peripheral(g, root_scan, ws, mask);

    // Cuthill-McKee: BFS where each vertex's neighbours are expanded in
    // increasing-degree order.
    std::vector<index_t> frontier{root};
    visited[root] = 1;
    std::size_t head = 0;
    while (head < frontier.size()) {
      const index_t v = frontier[head++];
      std::vector<index_t> nbrs;
      for (offset_t p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
        const index_t u = g.adj[p];
        if (!visited[u]) {
          visited[u] = 1;
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
