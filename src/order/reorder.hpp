// Fill-reducing orderings: the reordering phase of Figure 1.
//
// Three algorithms are provided, mirroring what SuperLU_DIST / PanguLU /
// PaStiX deployments typically choose from:
//   * RCM            — bandwidth reduction (cheap, good for banded systems)
//   * Minimum degree — quotient-graph (element) minimum-degree, the AMD
//                      family used as the paper's default reordering
//   * Nested dissection — level-set bisection, best for PDE grids
//
// All operate on the symmetrized pattern of A and return a new-from-old
// permutation (see perm.hpp).
#pragma once

#include "order/perm.hpp"
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

/// Quotient-graph minimum-degree ordering (element absorption, AMD-style
/// approximate external degrees: an upper bound on the exact boundary
/// union, see mindeg.cpp). Quality comparable to classic MMD at the
/// problem sizes this repository targets.
Permutation min_degree_order(const Csr& a);

/// Recursive level-set nested dissection; leaves smaller than `leaf_size`
/// are ordered by minimum degree.
Permutation nested_dissection_order(const Csr& a, index_t leaf_size = 64);

/// Dispatch on the Ordering enum.
Permutation compute_ordering(const Csr& a, Ordering o);

}  // namespace th
