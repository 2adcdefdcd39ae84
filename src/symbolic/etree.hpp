// Elimination tree (Liu, 1990) of a structurally symmetric matrix, plus the
// derived quantities the schedulers need: postorder, per-node level
// (distance from root), and tree height. The etree is the dependency
// skeleton of the numeric factorisation (Figure 6(b) of the paper).
// It is read from the adjacency graph (sparse/adjacency.hpp), whose type
// guarantees the symmetric structure, so nothing here symmetrizes.
#pragma once

#include <vector>

#include "sparse/adjacency.hpp"

namespace th {

struct EliminationTree {
  std::vector<index_t> parent;  // parent[v] = etree parent, -1 for roots
  std::vector<index_t> depth;   // bottom-up depth: 0 for leaves, and
                                // depth[v] = 1 + max(depth of children).
                                // Columns of equal depth are the "levels"
                                // SuperLU batches within (Figure 6(b)).
  index_t height = 0;           // max depth + 1, i.e. number of tree levels

  index_t n() const { return static_cast<index_t>(parent.size()); }
};

/// The elimination tree of P A P^T (perm[new] = old; empty = natural
/// order), where g is A's adjacency graph. P A P^T is never formed: its
/// row k is g's row perm[k], renumbered through perm's inverse.
EliminationTree elimination_tree(const AdjacencyGraph& g,
                                 const std::vector<index_t>& perm = {});

/// Every node's children, ascending, in one flat list: v's children are
/// child[ptr[v]] .. child[ptr[v + 1] - 1].
struct EtreeChildren {
  std::vector<index_t> ptr;
  std::vector<index_t> child;
};
EtreeChildren etree_children(const EliminationTree& t);

/// Postorder of the etree: children before parents, deterministic.
std::vector<index_t> postorder(const EliminationTree& t);

}  // namespace th
