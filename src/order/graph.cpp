#include "order/graph.hpp"

#include "support/error.hpp"

namespace th {

void bfs(const AdjacencyGraph& g, index_t start, BfsWorkspace& ws,
         const std::vector<char>& mask) {
  TH_CHECK(start >= 0 && start < g.n);
  TH_CHECK(static_cast<index_t>(ws.level.size()) == g.n);
  for (index_t v : ws.order) ws.level[v] = -1;
  ws.order.clear();
  auto allowed = [&](index_t v) { return mask.empty() || mask[v]; };
  TH_CHECK(allowed(start));
  ws.order.push_back(start);
  ws.level[start] = 0;
  // `order` is the FIFO queue: vertices before `head` have been expanded.
  for (std::size_t head = 0; head < ws.order.size(); ++head) {
    const index_t v = ws.order[head];
    for (offset_t p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      const index_t u = g.adj[p];
      if (ws.level[u] < 0 && allowed(u)) {
        ws.level[u] = ws.level[v] + 1;
        ws.order.push_back(u);
      }
    }
  }
}

index_t pseudo_peripheral(const AdjacencyGraph& g, index_t start,
                          BfsWorkspace& ws, const std::vector<char>& mask) {
  index_t v = start;
  index_t ecc = -1;
  // Iterate: BFS, take a minimum-degree vertex in the last level; stop when
  // eccentricity no longer grows.
  for (int iter = 0; iter < 8; ++iter) {
    bfs(g, v, ws, mask);
    // BFS order visits levels in turn: the last vertex has the deepest.
    const index_t max_level = ws.level[ws.order.back()];
    if (max_level <= ecc) break;
    ecc = max_level;
    index_t best = v;
    index_t best_deg = g.n + 1;
    for (index_t u : ws.order) {
      if (ws.level[u] == max_level && g.degree(u) < best_deg) {
        best = u;
        best_deg = g.degree(u);
      }
    }
    v = best;
  }
  return v;
}

}  // namespace th
