// Etree postordering: the finishing step of the min-degree and nested-
// dissection orderings (see reorder.hpp).
#include "order/reorder.hpp"
#include "symbolic/etree.hpp"

namespace th {

Permutation etree_postorder(const AdjacencyGraph& g, const Permutation& p) {
  const std::vector<index_t> post = postorder(elimination_tree(g, p));
  Permutation out(p.size());
  for (std::size_t k = 0; k < p.size(); ++k) out[k] = p[post[k]];
  return out;
}

}  // namespace th
