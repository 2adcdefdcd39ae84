#include "symbolic/etree.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace th {

EliminationTree elimination_tree(const AdjacencyGraph& g,
                                 const std::vector<index_t>& perm) {
  const index_t n = g.n;
  // Vertex k of P A P^T is g's vertex perm[k]; g's vertex v is inv[v].
  TH_CHECK(perm.empty() || static_cast<index_t>(perm.size()) == n);
  std::vector<index_t> inv(perm.size(), -1);
  for (index_t k = 0; k < static_cast<index_t>(perm.size()); ++k) {
    const index_t v = perm[k];
    TH_CHECK_MSG(v >= 0 && v < n && inv[v] == -1, "invalid permutation");
    inv[v] = k;
  }
  EliminationTree t;
  t.parent.assign(static_cast<std::size_t>(n), -1);

  // Liu's algorithm with path compression through `ancestor`.
  std::vector<index_t> ancestor(static_cast<std::size_t>(n), -1);
  for (index_t j = 0; j < n; ++j) {
    const index_t v = inv.empty() ? j : perm[j];
    for (offset_t p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      // A neighbour i < j (column j's lower entries == row j's): walk from
      // i to the root of its current subtree, compressing.
      index_t i = inv.empty() ? g.adj[p] : inv[g.adj[p]];
      while (i != -1 && i < j) {
        const index_t next = ancestor[i];
        ancestor[i] = j;
        if (next == -1) {
          t.parent[i] = j;
          break;
        }
        i = next;
      }
    }
  }

  // Bottom-up depth: process vertices in increasing order (parents always
  // have larger indices in an etree).
  t.depth.assign(static_cast<std::size_t>(n), 0);
  for (index_t v = 0; v < n; ++v) {
    const index_t p = t.parent[v];
    if (p != -1) {
      TH_ASSERT(p > v);
      t.depth[p] = std::max(t.depth[p], t.depth[v] + 1);
    }
  }
  index_t max_depth = 0;
  for (index_t v = 0; v < n; ++v) max_depth = std::max(max_depth, t.depth[v]);
  t.height = n > 0 ? max_depth + 1 : 0;
  return t;
}

EtreeChildren etree_children(const EliminationTree& t) {
  const index_t n = t.n();
  EtreeChildren c;
  c.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    if (t.parent[v] != -1) ++c.ptr[t.parent[v] + 1];
  }
  for (index_t v = 0; v < n; ++v) c.ptr[v + 1] += c.ptr[v];
  c.child.resize(static_cast<std::size_t>(c.ptr[n]));
  std::vector<index_t> cursor(c.ptr.begin(), c.ptr.end() - 1);
  for (index_t v = 0; v < n; ++v) {  // in increasing v: lists ascend
    if (t.parent[v] != -1) c.child[cursor[t.parent[v]]++] = v;
  }
  return c;
}

std::vector<index_t> postorder(const EliminationTree& t) {
  const index_t n = t.n();
  const EtreeChildren kids = etree_children(t);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  // Iterative DFS from each root, emitting children before parents; a
  // frame holds a node and its next child's position in kids.child.
  std::vector<std::pair<index_t, index_t>> stack;
  for (index_t r = 0; r < n; ++r) {
    if (t.parent[r] != -1) continue;
    stack.push_back({r, kids.ptr[r]});
    while (!stack.empty()) {
      auto& [v, next_child] = stack.back();
      if (next_child < kids.ptr[v + 1]) {
        const index_t c = kids.child[next_child++];
        stack.push_back({c, kids.ptr[c]});
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  TH_ASSERT(static_cast<index_t>(order.size()) == n);
  return order;
}

}  // namespace th
