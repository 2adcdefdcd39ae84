// Quotient-graph approximate minimum-degree ordering.
//
// Classic element-based formulation (George & Liu): eliminated vertices
// become *elements*; a variable's fill neighbourhood is the union of its
// remaining variable neighbours and the boundaries of its adjacent
// elements. Elements adjacent to the pivot are absorbed on elimination,
// which keeps memory proportional to the original graph plus frontier
// instead of the filled graph. Degrees use the AMD-style upper bound
// |A_v| + sum_e (|L_e| - 1) instead of the exact boundary union — the
// standard trade of slight ordering quality for near-linear runtime.
// Supervariable detection is omitted. The elimination order is finished by
// an etree postorder (reorder.hpp).
#include <algorithm>
#include <queue>
#include <vector>

#include "order/graph.hpp"
#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th {

namespace {

struct HeapItem {
  index_t degree;
  index_t version;
  index_t vertex;
  bool operator>(const HeapItem& o) const {
    if (degree != o.degree) return degree > o.degree;
    return vertex > o.vertex;  // deterministic tie-break
  }
};

}  // namespace

Permutation detail::min_degree_elimination(const Csr& a) {
  const AdjacencyGraph g = build_adjacency(a);
  const index_t n = g.n;

  std::vector<std::vector<index_t>> var_adj(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    var_adj[v].assign(g.adj.begin() + g.ptr[v], g.adj.begin() + g.ptr[v + 1]);
  }
  std::vector<std::vector<index_t>> var_elems(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> elem_verts;  // indexed by element id
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<index_t> version(static_cast<std::size_t>(n), 0);
  std::vector<char> mark(static_cast<std::size_t>(n), 0);

  // AMD-style approximate external degree: variable neighbours plus the
  // element boundary sizes (an upper bound on the true union).
  auto compute_degree = [&](index_t v) -> index_t {
    offset_t deg = static_cast<offset_t>(var_adj[v].size());
    for (index_t e : var_elems[v]) {
      deg += static_cast<offset_t>(elem_verts[e].size()) - 1;
    }
    return static_cast<index_t>(std::min<offset_t>(deg, n - 1));
  };

  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (index_t v = 0; v < n; ++v) {
    heap.push({compute_degree(v), 0, v});
  }

  Permutation order;
  order.reserve(static_cast<std::size_t>(n));

  while (!heap.empty()) {
    const HeapItem top = heap.top();
    heap.pop();
    const index_t v = top.vertex;
    if (eliminated[v] || top.version != version[v]) continue;  // stale entry
    eliminated[v] = 1;
    order.push_back(v);

    // Boundary of the new element: union of variable neighbours and
    // absorbed element boundaries, minus eliminated vertices.
    std::vector<index_t> boundary;
    auto touch = [&](index_t u) {
      if (u == v || eliminated[u] || mark[u]) return;
      mark[u] = 1;
      boundary.push_back(u);
    };
    for (index_t u : var_adj[v]) touch(u);
    for (index_t e : var_elems[v]) {
      for (index_t u : elem_verts[e]) touch(u);
    }
    for (index_t u : boundary) mark[u] = 0;

    const auto e_new = static_cast<index_t>(elem_verts.size());
    const std::vector<index_t> absorbed = var_elems[v];

    // Update every boundary variable: drop edges covered by the new
    // element, drop absorbed elements, attach e_new.
    for (index_t u : boundary) mark[u] = 1;
    mark[v] = 1;
    for (index_t u : boundary) {
      auto& adj = var_adj[u];
      adj.erase(std::remove_if(adj.begin(), adj.end(),
                               [&](index_t w) { return mark[w] != 0; }),
                adj.end());
      auto& elems = var_elems[u];
      elems.erase(std::remove_if(elems.begin(), elems.end(),
                                 [&](index_t e) {
                                   return std::find(absorbed.begin(),
                                                    absorbed.end(),
                                                    e) != absorbed.end();
                                 }),
                  elems.end());
      elems.push_back(e_new);
    }
    for (index_t u : boundary) mark[u] = 0;
    mark[v] = 0;

    for (index_t e : absorbed) {
      elem_verts[e].clear();
      elem_verts[e].shrink_to_fit();
    }
    elem_verts.push_back(boundary);
    var_adj[v].clear();
    var_adj[v].shrink_to_fit();
    var_elems[v].clear();

    // Refresh degrees of the affected variables.
    for (index_t u : elem_verts[e_new]) {
      ++version[u];
      heap.push({compute_degree(u), version[u], u});
    }
  }

  TH_ASSERT(is_valid_permutation(order));
  return order;
}

Permutation min_degree_order(const Csr& a) {
  return etree_postorder(a, detail::min_degree_elimination(a));
}

}  // namespace th
