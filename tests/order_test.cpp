#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "order/graph.hpp"
#include "sparse/convert.hpp"
#include "order/reorder.hpp"
#include "solvers/driver.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/fill.hpp"

namespace th {
namespace {

TEST(Perm, IdentityAndInverse) {
  const Permutation id = identity_permutation(5);
  EXPECT_TRUE(is_valid_permutation(id));
  EXPECT_EQ(invert_permutation(id), id);
  const Permutation p{2, 0, 1};
  const Permutation inv = invert_permutation(p);
  EXPECT_EQ(inv, (Permutation{1, 2, 0}));
}

TEST(Perm, InvalidDetected) {
  EXPECT_FALSE(is_valid_permutation({0, 0, 1}));
  EXPECT_FALSE(is_valid_permutation({0, 3}));
  EXPECT_THROW(invert_permutation({1, 1}), Error);
}

TEST(Perm, SymmetricPermutationPreservesValues) {
  const Csr a = finalize_system(grid2d_laplacian(4, 4), 3);
  const Permutation p = rcm_order(a);
  const Csr b = apply_symmetric_permutation(a, p);
  b.check();
  EXPECT_EQ(b.nnz(), a.nnz());
  // Spot-check: B(i,j) == A(perm[i], perm[j]).
  const auto da = to_dense(a);
  const auto db = to_dense(b);
  for (index_t i = 0; i < a.n_rows; ++i) {
    for (index_t j = 0; j < a.n_cols; ++j) {
      EXPECT_DOUBLE_EQ(
          db[static_cast<std::size_t>(i) * a.n_cols + j],
          da[static_cast<std::size_t>(p[i]) * a.n_cols + p[j]]);
    }
  }
}

TEST(Perm, VectorPermutationRoundTrip) {
  const Permutation p{2, 0, 1};
  const std::vector<real_t> v{10, 20, 30};
  const auto pv = apply_permutation(v, p);
  EXPECT_EQ(pv, (std::vector<real_t>{30, 10, 20}));
  EXPECT_EQ(apply_inverse_permutation(pv, p), v);
}

TEST(Graph, AdjacencyExcludesDiagonal) {
  const Csr a = grid2d_laplacian(3, 3);
  const AdjacencyGraph g = build_adjacency(a);
  EXPECT_EQ(g.n, 9);
  for (index_t v = 0; v < g.n; ++v) {
    for (offset_t p = g.ptr[v]; p < g.ptr[v + 1]; ++p) {
      EXPECT_NE(g.adj[p], v);
    }
  }
  // Center vertex of the 3x3 grid has degree 4.
  EXPECT_EQ(g.degree(4), 4);
}

TEST(Graph, BfsLevelsOnPath) {
  // 1D chain: levels are distances.
  const Csr a = grid2d_laplacian(6, 1);
  const AdjacencyGraph g = build_adjacency(a);
  const BfsResult r = bfs(g, 0);
  for (index_t v = 0; v < 6; ++v) EXPECT_EQ(r.level[v], v);
}

TEST(Graph, PseudoPeripheralOnChainIsEndpoint) {
  const Csr a = grid2d_laplacian(9, 1);
  const AdjacencyGraph g = build_adjacency(a);
  const index_t v = pseudo_peripheral(g, 4);
  EXPECT_TRUE(v == 0 || v == 8);
}

// Bandwidth of the permuted matrix: RCM should shrink it on shuffled
// banded structure.
index_t bandwidth(const Csr& a) {
  index_t bw = 0;
  for (index_t r = 0; r < a.n_rows; ++r) {
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      bw = std::max(bw, std::abs(a.col_idx[p] - r));
    }
  }
  return bw;
}

TEST(Rcm, ReducesBandwidthOfShuffledGrid) {
  const Csr a = finalize_system(grid2d_laplacian(16, 16), 1);
  // Shuffle with a random permutation first.
  Permutation shuffle = identity_permutation(a.n_rows);
  Rng rng(99);
  for (index_t i = a.n_rows - 1; i > 0; --i) {
    std::swap(shuffle[i], shuffle[rng.index_in(0, i)]);
  }
  const Csr shuffled = apply_symmetric_permutation(a, shuffle);
  const Csr rcm = apply_symmetric_permutation(shuffled, rcm_order(shuffled));
  EXPECT_LT(bandwidth(rcm), bandwidth(shuffled) / 2);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Block-diagonal: two disjoint grids.
  Coo c;
  const Csr g1 = grid2d_laplacian(4, 4);
  c.n_rows = c.n_cols = 32;
  for (index_t r = 0; r < 16; ++r) {
    for (offset_t p = g1.row_ptr[r]; p < g1.row_ptr[r + 1]; ++p) {
      c.add(r, g1.col_idx[p], g1.values[p]);
      c.add(r + 16, g1.col_idx[p] + 16, g1.values[p]);
    }
  }
  const Csr a = coo_to_csr(c);
  EXPECT_TRUE(is_valid_permutation(rcm_order(a)));
  EXPECT_TRUE(is_valid_permutation(min_degree_order(a)));
  EXPECT_TRUE(is_valid_permutation(nested_dissection_order(a)));
}

offset_t fill_nnz(const Csr& a, const Permutation& p) {
  return symbolic_fill(apply_symmetric_permutation(a, p)).nnz_l();
}

TEST(MinDegree, ReducesFillVsNatural) {
  const Csr a = finalize_system(grid2d_laplacian(14, 14), 4);
  const offset_t natural = fill_nnz(a, identity_permutation(a.n_rows));
  const offset_t md = fill_nnz(a, min_degree_order(a));
  EXPECT_LT(md, natural);
}

TEST(NestedDissection, ReducesFillVsNaturalOnGrid) {
  const Csr a = finalize_system(grid2d_laplacian(16, 16), 4);
  const offset_t natural = fill_nnz(a, identity_permutation(a.n_rows));
  const offset_t nd = fill_nnz(a, nested_dissection_order(a));
  EXPECT_LT(nd, natural);
}

TEST(Orderings, AllValidOnIrregularMatrix) {
  const Csr a = finalize_system(circuit_like(300, 2.5, 3, 17), 17);
  for (Ordering o : {Ordering::kNatural, Ordering::kRcm,
                     Ordering::kMinDegree, Ordering::kNestedDissection}) {
    EXPECT_TRUE(is_valid_permutation(compute_ordering(a, o)))
        << ordering_name(o);
  }
}

// ---- etree postorder -------------------------------------------------------

// Stand-ins for the registry's grid2d, grid3d, circuit and cage families.
std::vector<std::pair<std::string, Csr>> stand_ins() {
  return {{"grid2d", finalize_system(grid2d_laplacian(30, 30), 1)},
          {"grid3d", finalize_system(grid3d_laplacian(10, 10, 10), 1)},
          {"circuit", finalize_system(circuit_like(1000, 2.6, 3, 7), 1)},
          {"cage", finalize_system(cage_like(1000, 5, 0.1, 8), 1)}};
}

offset_t nnz_lu(const Csr& a, const Permutation& p) {
  return symbolic_fill(apply_symmetric_permutation(a, p)).nnz_lu();
}

TEST(Postorder, PreservesFillOfAnyPermutation) {
  for (const auto& [name, a] : stand_ins()) {
    const std::pair<const char*, Permutation> perms[] = {
        {"natural", identity_permutation(a.n_rows)},
        {"rcm", rcm_order(a)},
        {"mindeg-elimination", detail::min_degree_elimination(a)},
    };
    for (const auto& [pname, p] : perms) {
      const Permutation q = etree_postorder(a, p);
      ASSERT_TRUE(is_valid_permutation(q)) << name << " " << pname;
      EXPECT_EQ(nnz_lu(a, q), nnz_lu(a, p)) << name << " " << pname;
    }
  }
}

TEST(Postorder, MinDegreeAndNdOutputsArePostordered) {
  for (const auto& [name, a] : stand_ins()) {
    for (Ordering o : {Ordering::kMinDegree, Ordering::kNestedDissection}) {
      const Permutation p = compute_ordering(a, o);
      const EliminationTree t =
          elimination_tree(apply_symmetric_permutation(a, p));
      EXPECT_EQ(postorder(t), identity_permutation(a.n_rows))
          << name << " " << ordering_name(o);
    }
  }
}

// FNV-1a over the little-endian bytes of the permutation.
std::uint64_t fnv1a(const Permutation& p) {
  std::uint64_t h = 1469598103934665603ull;
  for (index_t v : p) {
    for (int b = 0; b < 4; ++b) {
      h ^= (static_cast<std::uint32_t>(v) >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Postorder, RcmAndNaturalAreUnchanged) {
  // RCM is not postordered: its value is its band, which a postorder
  // would scatter. The hashes pin its output on each stand-in.
  const std::map<std::string, std::uint64_t> rcm_golden = {
      {"grid2d", 0x69221c5a11a7b3bbull},
      {"grid3d", 0xfc866b85a919a3b7ull},
      {"circuit", 0x91d07542382c0227ull},
      {"cage", 0x9d9dddb34eb7f44full},
  };
  for (const auto& [name, a] : stand_ins()) {
    EXPECT_EQ(fnv1a(compute_ordering(a, Ordering::kRcm)), rcm_golden.at(name))
        << name;
    EXPECT_EQ(compute_ordering(a, Ordering::kNatural),
              identity_permutation(a.n_rows))
        << name;
  }
}

TEST(Postorder, KeepsThePluTaskDagSmall) {
  // Un-postordered min-degree scattered supernodes across tiles and built
  // 40,822 tasks here for a fill pattern that ~8,000 tasks cover.
  const Csr a = finalize_system(grid2d_laplacian(70, 70), 1);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  const SolverInstance inst(a, io);
  EXPECT_LE(inst.graph().size(), 10000);
}

}  // namespace
}  // namespace th
