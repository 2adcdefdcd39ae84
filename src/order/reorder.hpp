// Fill-reducing orderings: the reordering phase of Figure 1.
//
// Three algorithms are provided, mirroring what SuperLU_DIST / PanguLU /
// PaStiX deployments typically choose from:
//   * RCM            — bandwidth reduction (cheap, good for banded systems)
//   * Minimum degree — approximate minimum degree (Amestoy, Davis & Duff),
//                      the paper's default reordering
//   * Nested dissection — level-set bisection, best for PDE grids
//
// All read A's adjacency graph (sparse/adjacency.hpp), built once per call
// and shared with the postorder, and return a new-from-old permutation.
//
// Minimum degree and nested dissection finish with an elimination-tree
// postorder (etree_postorder below). That is an equivalent reordering: the
// fill is unchanged, but every etree subtree, and so every supernode,
// becomes a contiguous index range, which keeps supernodes inside few
// tiles and the task DAG small. RCM is *not* postordered: its value is its
// band, and a postorder scatters the band (on cage_like(4000, 5, 0.1, 8)
// it took the PLU DAG from 2,486 to 23,262 tasks at identical fill).
#pragma once

#include "order/perm.hpp"
#include "sparse/adjacency.hpp"
#include "sparse/csr.hpp"

namespace th {

enum class Ordering {
  kNatural,
  kRcm,
  kMinDegree,
  kNestedDissection,
};

const char* ordering_name(Ordering o);

/// Reverse Cuthill-McKee starting from a pseudo-peripheral vertex of each
/// connected component.
Permutation rcm_order(const Csr& a);

/// Approximate minimum degree (AMD: supervariables, mass elimination,
/// aggressive absorption and the |L_e \ L_p| degree bound, see amd.cpp),
/// etree-postordered.
Permutation min_degree_order(const Csr& a);

/// Recursive level-set nested dissection, etree-postordered; leaves of at
/// most `leaf_size` vertices are numbered by the postorder alone.
Permutation nested_dissection_order(const Csr& a, index_t leaf_size = 64);

/// Compose the postorder of the elimination tree of P A P^T onto `p`,
/// g being A's adjacency graph: returns q with q[k] = p[post[k]], post =
/// postorder(elimination_tree(g, p)), which never forms P A P^T. The etree
/// of Q A Q^T is then postordered (re-applying this is the identity) and
/// its fill equals that of P A P^T.
Permutation etree_postorder(const AdjacencyGraph& g, const Permutation& p);

namespace detail {
/// The AMD elimination order of g that min_degree_order() postorders.
/// Exposed only so tests can check that the postorder preserves its fill.
Permutation amd_elimination(const AdjacencyGraph& g);
}  // namespace detail

/// Dispatch on the Ordering enum.
Permutation compute_ordering(const Csr& a, Ordering o);

}  // namespace th
