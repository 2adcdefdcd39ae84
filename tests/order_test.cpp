#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "gen/registry.hpp"
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
  BfsWorkspace ws(g.n);
  bfs(g, 0, ws);
  for (index_t v = 0; v < 6; ++v) EXPECT_EQ(ws.level[v], v);
  // A second search resets what the first reached.
  bfs(g, 5, ws);
  for (index_t v = 0; v < 6; ++v) EXPECT_EQ(ws.level[v], 5 - v);
}

TEST(Graph, PseudoPeripheralOnChainIsEndpoint) {
  const Csr a = grid2d_laplacian(9, 1);
  const AdjacencyGraph g = build_adjacency(a);
  BfsWorkspace ws(g.n);
  const index_t v = pseudo_peripheral(g, 4, ws);
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

// Block-diagonal [g 0; 0 g]: two disjoint copies of g.
Csr two_copies(const Csr& g) {
  Coo c;
  c.n_rows = c.n_cols = 2 * g.n_rows;
  for (index_t r = 0; r < g.n_rows; ++r) {
    for (offset_t p = g.row_ptr[r]; p < g.row_ptr[r + 1]; ++p) {
      c.add(r, g.col_idx[p], g.values[p]);
      c.add(r + g.n_rows, g.col_idx[p] + g.n_rows, g.values[p]);
    }
  }
  return coo_to_csr(c);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  const Csr a = two_copies(grid2d_laplacian(4, 4));
  EXPECT_TRUE(is_valid_permutation(rcm_order(a)));
  EXPECT_TRUE(is_valid_permutation(min_degree_order(a)));
  EXPECT_TRUE(is_valid_permutation(nested_dissection_order(a)));
}

// 40,000 vertices in 15,000 interleaved components: vertex v belongs to
// component v % 15,000, a path of two or three vertices. RCM must order
// each component as one contiguous run, and it once refilled an n-long
// mask per component.
TEST(Rcm, ManyComponentsAreEachContiguous) {
  constexpr index_t kN = 40000;
  constexpr index_t kComponents = 15000;
  Coo c;
  c.n_rows = c.n_cols = kN;
  for (index_t v = 0; v < kN; ++v) {
    c.add(v, v, 4.0);
    if (v + kComponents < kN) {
      c.add(v, v + kComponents, -1.0);
      c.add(v + kComponents, v, -1.0);
    }
  }
  const Permutation p = rcm_order(coo_to_csr(c));
  ASSERT_TRUE(is_valid_permutation(p));
  ASSERT_EQ(static_cast<index_t>(p.size()), kN);
  std::vector<index_t> first(kComponents, kN);
  std::vector<index_t> last(kComponents, -1);
  std::vector<index_t> size(kComponents, 0);
  for (index_t k = 0; k < kN; ++k) {
    const index_t comp = p[k] % kComponents;
    first[comp] = std::min(first[comp], k);
    last[comp] = std::max(last[comp], k);
    ++size[comp];
  }
  for (index_t comp = 0; comp < kComponents; ++comp) {
    EXPECT_EQ(last[comp] - first[comp] + 1, size[comp]) << comp;
  }
}

offset_t fill_nnz(const Csr& a, const Permutation& p) {
  return symbolic_fill(apply_symmetric_permutation(a, p)).nnz_l();
}

offset_t nnz_lu(const Csr& a, const Permutation& p) {
  return symbolic_fill(apply_symmetric_permutation(a, p)).nnz_lu();
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

// ---- approximate minimum degree -------------------------------------------

// A symmetric pattern from an undirected edge list, diagonal included.
Csr from_edges(index_t n, const std::vector<std::pair<index_t, index_t>>& e) {
  Coo c;
  c.n_rows = c.n_cols = n;
  for (index_t v = 0; v < n; ++v) c.add(v, v, 1.0);
  for (const auto& [u, v] : e) {
    c.add(u, v, 1.0);
    c.add(v, u, 1.0);
  }
  return finalize_system(coo_to_csr(c), 1);
}

TEST(Amd, StarKeepsTheHubToTheEndWithoutFill) {
  // The hub outlasts every leaf but one: with one leaf left, both have
  // degree 1 and either order is fill-free.
  const index_t n = 50;
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t v = 1; v < n; ++v) edges.emplace_back(0, v);
  const Csr a = from_edges(n, edges);
  const Permutation p = min_degree_order(a);
  ASSERT_TRUE(is_valid_permutation(p));
  EXPECT_TRUE(p[n - 1] == 0 || p[n - 2] == 0);
  EXPECT_EQ(nnz_lu(a, p), 3 * n - 2);
}

TEST(Amd, CliqueWithPendantsIsEliminatedWithoutFill) {
  // Clique vertices 0..m-1, pendant m + i on clique vertex i. After the
  // pendants go, the first clique pivot leaves every other clique vertex
  // adjacent to nothing but the new element: mass elimination takes the
  // whole clique in one step.
  const index_t m = 12;
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t u = 0; u < m; ++u) {
    for (index_t v = u + 1; v < m; ++v) edges.emplace_back(u, v);
    edges.emplace_back(u, m + u);
  }
  const Csr a = from_edges(2 * m, edges);
  const Permutation elim = detail::amd_elimination(build_adjacency(a));
  ASSERT_TRUE(is_valid_permutation(elim));
  for (index_t k = 0; k < m; ++k) EXPECT_GE(elim[k], m) << k;
  EXPECT_EQ(nnz_lu(a, min_degree_order(a)), a.nnz());
}

TEST(Amd, CliquesAroundAHubMergeAndKeepTheHubLast) {
  // Four 5-cliques, every vertex also tied to hub 20. The members of a
  // clique become indistinguishable once one of them is eliminated, are
  // merged into one supervariable and leave in one block.
  const index_t t = 4, m = 5, hub = t * m;
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t c = 0; c < t; ++c) {
    for (index_t u = c * m; u < (c + 1) * m; ++u) {
      for (index_t v = u + 1; v < (c + 1) * m; ++v) edges.emplace_back(u, v);
      edges.emplace_back(u, hub);
    }
  }
  const Csr a = from_edges(hub + 1, edges);
  const Permutation elim = detail::amd_elimination(build_adjacency(a));
  ASSERT_TRUE(is_valid_permutation(elim));
  EXPECT_EQ(elim.back(), hub);
  for (index_t k = 0; k < t * m; ++k) {
    EXPECT_EQ(elim[k] / m, elim[k - k % m] / m) << k;  // blocks by clique
  }
  EXPECT_EQ(nnz_lu(a, min_degree_order(a)), a.nnz());
}

TEST(Amd, DegenerateInputs) {
  const Csr diagonal = from_edges(5, {});
  EXPECT_TRUE(is_valid_permutation(min_degree_order(diagonal)));
  EXPECT_EQ(nnz_lu(diagonal, min_degree_order(diagonal)), 5);
  EXPECT_EQ(min_degree_order(from_edges(1, {})), Permutation{0});

  // Two disjoint copies of a grid fill exactly twice one copy.
  const Csr g = finalize_system(grid2d_laplacian(6, 6), 1);
  const Csr two = two_copies(g);
  const Permutation p = min_degree_order(two);
  ASSERT_TRUE(is_valid_permutation(p));
  EXPECT_EQ(nnz_lu(two, p), 2 * nnz_lu(g, min_degree_order(g)));
}

TEST(Amd, FillIsAtMostTheQuotientGraphMindegs) {
  // nnz(L+U) of the quotient-graph minimum degree AMD replaced, on the
  // perfbench matrices and every registry stand-in.
  std::vector<std::pair<std::string, Csr>> cases = {
      {"pde2d", finalize_system(grid2d_laplacian(70, 70), 1)},
      {"fill3d", finalize_system(grid3d_laplacian(18, 18, 18), 1)}};
  for (const PaperMatrix& m : paper_matrices()) {
    cases.emplace_back(m.name, m.make());
  }
  const std::map<std::string, offset_t> mindeg_fill = {
      {"pde2d", 361856},       {"fill3d", 1807408}, {"c-71", 1896934},
      {"cage12", 1283200},     {"para-8", 942332},  {"Lin", 832795},
      {"Ga41As41H72", 4451572}, {"RM07R", 1786648}, {"cage13", 2062882},
      {"audikw_1", 315433},    {"nlpkkt80", 483736}, {"Serena", 558476}};
  ASSERT_EQ(cases.size(), mindeg_fill.size());
  for (const auto& [name, a] : cases) {
    EXPECT_LE(nnz_lu(a, min_degree_order(a)), mindeg_fill.at(name)) << name;
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

TEST(Postorder, PreservesFillOfAnyPermutation) {
  for (const auto& [name, a] : stand_ins()) {
    const AdjacencyGraph g = build_adjacency(a);
    const std::pair<const char*, Permutation> perms[] = {
        {"natural", identity_permutation(a.n_rows)},
        {"rcm", rcm_order(a)},
        {"amd-elimination", detail::amd_elimination(g)},
    };
    for (const auto& [pname, p] : perms) {
      // The etree read through p's inverse is the etree of the explicitly
      // permuted pattern.
      const EliminationTree tp = elimination_tree(g, p);
      const EliminationTree te =
          elimination_tree(build_adjacency(apply_symmetric_permutation(a, p)));
      EXPECT_EQ(tp.parent, te.parent) << name << " " << pname;
      EXPECT_EQ(tp.depth, te.depth) << name << " " << pname;
      EXPECT_EQ(tp.height, te.height) << name << " " << pname;
      const Permutation q = etree_postorder(g, p);
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
          elimination_tree(build_adjacency(apply_symmetric_permutation(a, p)));
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

TEST(Postorder, RcmNdAndNaturalAreUnchanged) {
  // RCM is not postordered: its value is its band, which a postorder
  // would scatter. The hashes pin RCM's and ND's output on each stand-in.
  const std::map<std::string, std::uint64_t> rcm_golden = {
      {"grid2d", 0x69221c5a11a7b3bbull},
      {"grid3d", 0xfc866b85a919a3b7ull},
      {"circuit", 0x91d07542382c0227ull},
      {"cage", 0x9d9dddb34eb7f44full},
  };
  const std::map<std::string, std::uint64_t> nd_golden = {
      {"grid2d", 0x9b6101734f917e6full},
      {"grid3d", 0x26088caf0f593ab7ull},
      {"circuit", 0x1f8f3e386a9aa9dbull},
      {"cage", 0xcc1116f311daf72bull},
  };
  for (const auto& [name, a] : stand_ins()) {
    EXPECT_EQ(fnv1a(compute_ordering(a, Ordering::kRcm)), rcm_golden.at(name))
        << name;
    EXPECT_EQ(fnv1a(compute_ordering(a, Ordering::kNestedDissection)),
              nd_golden.at(name))
        << name;
    EXPECT_EQ(compute_ordering(a, Ordering::kNatural),
              identity_permutation(a.n_rows))
        << name;
  }
}

TEST(Amd, OutputIsPinned) {
  // AMD is deterministic: equal degrees are broken by bucket order alone.
  const std::map<std::string, std::uint64_t> golden = {
      {"grid2d", 0x5e50edb00b2002bfull},
      {"grid3d", 0x643c58627dfd03e7ull},
      {"circuit", 0xf8c8d586c54b7da3ull},
      {"cage", 0xdc683438db010b5bull},
  };
  for (const auto& [name, a] : stand_ins()) {
    EXPECT_EQ(fnv1a(min_degree_order(a)), golden.at(name)) << name;
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
