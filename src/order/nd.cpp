// Level-set nested dissection.
//
// A BFS from a pseudo-peripheral vertex defines level sets; the median
// level is taken as the separator, the two halves recurse, and the
// separator is numbered last — the ordering that gives wide, balanced
// elimination trees on PDE-style meshes.
#include <algorithm>
#include <functional>

#include "order/graph.hpp"
#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th {

namespace {

// Order the subgraph induced by `verts` (mask is consistent with verts)
// appending to `out`.
void dissect(const AdjacencyGraph& g, std::vector<index_t> verts,
             std::vector<char>& mask, BfsWorkspace& ws, index_t leaf_size,
             std::vector<index_t>& out) {
  if (verts.empty()) return;
  if (static_cast<index_t>(verts.size()) <= leaf_size) {
    // Leaf: keep natural relative order; the final etree postorder
    // renumbers it (at leaf sizes <= 64 the fill difference is noise).
    out.insert(out.end(), verts.begin(), verts.end());
    for (index_t v : verts) mask[v] = 0;
    return;
  }

  const index_t root = pseudo_peripheral(g, verts.front(), ws, mask);
  // The search's last BFS started from root unless it ran out of rounds.
  if (ws.order.front() != root) bfs(g, root, ws, mask);
  // The recursive calls below reuse ws: read the levels only before them.
  const std::vector<index_t>& level = ws.level;

  // Vertices of this component, by level. Disconnected remainder (never
  // reached from root) is handled as its own recursive call.
  index_t max_level = 0;
  std::vector<index_t> component;
  for (index_t v : verts) {
    if (level[v] >= 0) {
      component.push_back(v);
      max_level = std::max(max_level, level[v]);
    }
  }
  std::vector<index_t> rest;
  for (index_t v : verts) {
    if (level[v] < 0) rest.push_back(v);
  }

  if (max_level < 2) {
    // Too shallow to split: number directly.
    out.insert(out.end(), component.begin(), component.end());
    for (index_t v : component) mask[v] = 0;
  } else {
    // Choose the level whose cut best balances the halves.
    index_t best_level = max_level / 2;
    double best_score = 1e300;
    std::vector<offset_t> level_count(static_cast<std::size_t>(max_level) + 1,
                                      0);
    for (index_t v : component) ++level_count[level[v]];
    offset_t below = 0;
    const auto total = static_cast<offset_t>(component.size());
    for (index_t l = 1; l < max_level; ++l) {
      below += level_count[l - 1];
      const offset_t sep = level_count[l];
      const offset_t above = total - below - sep;
      const double imbalance =
          static_cast<double>(std::max(below, above)) /
          std::max<double>(1.0, static_cast<double>(std::min(below, above)));
      const double score = static_cast<double>(sep) * imbalance;
      if (score < best_score) {
        best_score = score;
        best_level = l;
      }
    }

    std::vector<index_t> low, high, sep;
    for (index_t v : component) {
      if (level[v] < best_level) {
        low.push_back(v);
      } else if (level[v] == best_level) {
        sep.push_back(v);
      } else {
        high.push_back(v);
      }
    }
    // Remove the separator from the mask before recursing into halves.
    for (index_t v : sep) mask[v] = 0;
    dissect(g, std::move(low), mask, ws, leaf_size, out);
    dissect(g, std::move(high), mask, ws, leaf_size, out);
    out.insert(out.end(), sep.begin(), sep.end());
  }

  dissect(g, std::move(rest), mask, ws, leaf_size, out);
}

}  // namespace

Permutation nested_dissection_order(const Csr& a, index_t leaf_size) {
  TH_CHECK(leaf_size > 0);
  const AdjacencyGraph g = build_adjacency(a);
  std::vector<char> mask(static_cast<std::size_t>(g.n), 1);
  std::vector<index_t> all(static_cast<std::size_t>(g.n));
  for (index_t v = 0; v < g.n; ++v) all[v] = v;
  Permutation order;
  order.reserve(all.size());
  BfsWorkspace ws(g.n);
  dissect(g, std::move(all), mask, ws, leaf_size, order);
  TH_ASSERT(is_valid_permutation(order));
  return etree_postorder(g, order);
}

const char* ordering_name(Ordering o) {
  switch (o) {
    case Ordering::kNatural:
      return "natural";
    case Ordering::kRcm:
      return "rcm";
    case Ordering::kMinDegree:
      return "mindeg";
    case Ordering::kNestedDissection:
      return "nd";
  }
  return "?";
}

Permutation compute_ordering(const Csr& a, Ordering o) {
  switch (o) {
    case Ordering::kNatural:
      return identity_permutation(a.n_rows);
    case Ordering::kRcm:
      return rcm_order(a);
    case Ordering::kMinDegree:
      return min_degree_order(a);
    case Ordering::kNestedDissection:
      return nested_dissection_order(a);
  }
  throw Error("unknown ordering");
}

}  // namespace th
