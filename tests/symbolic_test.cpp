#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "order/perm.hpp"
#include "order/reorder.hpp"
#include "solvers/plu.hpp"
#include "solvers/slu.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/ops.hpp"
#include "symbolic/etree.hpp"
#include "symbolic/fill.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/tiles.hpp"
#include "support/rng.hpp"

namespace th {
namespace {

// Dense boolean Gaussian elimination: the ground truth for fill.
std::vector<char> dense_fill(const Csr& a) {
  const index_t n = a.n_rows;
  const Csr s = symmetrize_pattern(a);
  std::vector<char> m(static_cast<std::size_t>(n) * n, 0);
  for (index_t r = 0; r < n; ++r) {
    m[static_cast<std::size_t>(r) * n + r] = 1;
    for (offset_t p = s.row_ptr[r]; p < s.row_ptr[r + 1]; ++p) {
      m[static_cast<std::size_t>(r) * n + s.col_idx[p]] = 1;
    }
  }
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = k + 1; i < n; ++i) {
      if (!m[static_cast<std::size_t>(i) * n + k]) continue;
      for (index_t j = k + 1; j < n; ++j) {
        if (m[static_cast<std::size_t>(k) * n + j]) {
          m[static_cast<std::size_t>(i) * n + j] = 1;
        }
      }
    }
  }
  return m;
}

TEST(Etree, ChainMatrixIsPathTree) {
  // Tridiagonal: parent(v) = v+1.
  const Csr a = grid2d_laplacian(8, 1);
  const EliminationTree t = elimination_tree(build_adjacency(a));
  for (index_t v = 0; v + 1 < 8; ++v) EXPECT_EQ(t.parent[v], v + 1);
  EXPECT_EQ(t.parent[7], -1);
  EXPECT_EQ(t.height, 8);
}

TEST(Etree, ParentsAlwaysLarger) {
  const Csr a = finalize_system(cage_like(150, 5, 0.1, 8), 8);
  const EliminationTree t = elimination_tree(build_adjacency(a));
  for (index_t v = 0; v < t.n(); ++v) {
    if (t.parent[v] != -1) {
      EXPECT_GT(t.parent[v], v);
    }
  }
}

TEST(Etree, PostorderChildrenBeforeParents) {
  const Csr a = finalize_system(grid2d_laplacian(7, 7), 8);
  const EliminationTree t = elimination_tree(build_adjacency(a));
  const std::vector<index_t> post = postorder(t);
  std::vector<index_t> position(post.size());
  for (std::size_t i = 0; i < post.size(); ++i) position[post[i]] = i;
  for (index_t v = 0; v < t.n(); ++v) {
    if (t.parent[v] != -1) {
      EXPECT_LT(position[v], position[t.parent[v]]);
    }
  }
}

TEST(Fill, MatchesDenseEliminationSmall) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Csr a = finalize_system(cage_like(40, 4, 0.2, seed), seed);
    const std::vector<char> truth = dense_fill(a);
    const FillPattern f = symbolic_fill(a);
    // Collect fill columns into a set for comparison (lower triangle).
    std::set<std::pair<index_t, index_t>> got;
    for (index_t j = 0; j < f.n; ++j) {
      for (offset_t p = f.col_ptr[j]; p < f.col_ptr[j + 1]; ++p) {
        got.insert({f.row_idx[p], j});
      }
    }
    for (index_t i = 0; i < a.n_rows; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        const bool expected =
            truth[static_cast<std::size_t>(i) * a.n_rows + j] != 0;
        EXPECT_EQ(got.count({i, j}) > 0, expected)
            << "(" << i << "," << j << ") seed " << seed;
      }
    }
  }
}

TEST(Fill, DiagonalFirstAndSorted) {
  const Csr a = finalize_system(grid2d_laplacian(9, 9), 2);
  const FillPattern f = symbolic_fill(a);
  for (index_t j = 0; j < f.n; ++j) {
    ASSERT_LT(f.col_ptr[j], f.col_ptr[j + 1]);
    EXPECT_EQ(f.row_idx[f.col_ptr[j]], j);
    for (offset_t p = f.col_ptr[j] + 1; p < f.col_ptr[j + 1]; ++p) {
      EXPECT_GT(f.row_idx[p], f.row_idx[p - 1]);
    }
  }
  EXPECT_EQ(f.nnz_lu(), 2 * f.nnz_l() - f.n);
}

// A random unsymmetric pattern with a full diagonal: about `per_row`
// off-diagonal entries per row, a third of them near the diagonal.
Csr random_unsymmetric(index_t n, index_t per_row, std::uint64_t seed) {
  Rng rng(seed);
  Coo coo;
  coo.n_rows = coo.n_cols = n;
  for (index_t r = 0; r < n; ++r) {
    coo.add(r, r, 4.0);
    for (index_t e = 0; e < per_row; ++e) {
      const index_t c =
          rng.next_below(3) == 0
              ? std::clamp<index_t>(r + rng.index_in(-3, 3), 0, n - 1)
              : rng.index_in(0, n - 1);
      if (c != r) coo.add(r, c, rng.uniform(-1.0, 1.0));
    }
  }
  return coo_to_csr(coo);
}

// The supernodal pass against the scalar reference: column j's structure,
// rows(s) ∩ [j, n), is symbolic_fill's column j, and each supernode is a
// maximal run of nested columns along an etree chain.
TEST(SupernodalSymbolic, ColumnsMatchTheScalarFill) {
  const Ordering orders[] = {Ordering::kNatural, Ordering::kRcm,
                             Ordering::kMinDegree,
                             Ordering::kNestedDissection};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const index_t n = static_cast<index_t>(1 + (seed * 37) % 300);
    const Csr a = random_unsymmetric(n, 1 + static_cast<index_t>(seed % 4),
                                     seed);
    for (const Ordering o : orders) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " n " << n << " " << ordering_name(o));
      const Csr pa = apply_symmetric_permutation(a, compute_ordering(a, o));
      const AdjacencyGraph g = build_adjacency(pa);
      const EliminationTree t = elimination_tree(g);
      const FillPattern f = symbolic_fill(g, t);
      const SupernodalStructure sym = supernodal_symbolic(g, t);
      ASSERT_EQ(sym.n(), n);
      ASSERT_EQ(sym.part.start.front(), 0);
      ASSERT_EQ(sym.part.start.back(), n);
      ASSERT_EQ(static_cast<index_t>(sym.row_ptr.size()),
                sym.part.count() + 1);
      for (index_t j = 0; j < n; ++j) {
        const auto col = sym.column(j);
        ASSERT_TRUE(std::ranges::equal(
            col, std::span<const index_t>(f.row_idx).subspan(
                     static_cast<std::size_t>(f.col_ptr[j]),
                     static_cast<std::size_t>(f.col_ptr[j + 1] -
                                              f.col_ptr[j]))))
            << "column " << j;
        if (j == 0) continue;
        const bool nested = t.parent[j - 1] == j &&
                            sym.col_count(j) == sym.col_count(j - 1) - 1;
        EXPECT_EQ(sym.part.sn_of_col[j] == sym.part.sn_of_col[j - 1], nested)
            << "column " << j;
      }
    }
  }
}

TEST(Supernodes, PartitionCoversAllColumns) {
  const Csr a = finalize_system(grid2d_laplacian(10, 10), 3);
  const AdjacencyGraph g = build_adjacency(a);
  const EliminationTree t = elimination_tree(g);
  const SupernodalStructure sym = supernodal_symbolic(g, t);
  const SupernodePartition part = find_supernodes(sym, t, 8);
  EXPECT_EQ(part.start.front(), 0);
  EXPECT_EQ(part.start.back(), a.n_rows);
  for (index_t s = 0; s < part.count(); ++s) {
    EXPECT_GE(part.width(s), 1);
    EXPECT_LE(part.width(s), 8);
    for (index_t c = part.start[s]; c < part.start[s + 1]; ++c) {
      EXPECT_EQ(part.sn_of_col[c], s);
    }
  }
}

TEST(Supernodes, MaxSizeOneIsScalar) {
  const Csr a = finalize_system(grid2d_laplacian(6, 6), 3);
  const AdjacencyGraph g = build_adjacency(a);
  const EliminationTree t = elimination_tree(g);
  const SupernodalStructure sym = supernodal_symbolic(g, t);
  const SupernodePartition part = find_supernodes(sym, t, 1);
  EXPECT_EQ(part.count(), a.n_rows);
}

TEST(Supernodes, LargerCapNeverIncreasesCount) {
  const Csr a = finalize_system(grid3d_laplacian(5, 5, 5), 4);
  const AdjacencyGraph g = build_adjacency(a);
  const EliminationTree t = elimination_tree(g);
  const SupernodalStructure sym = supernodal_symbolic(g, t);
  const index_t c8 = find_supernodes(sym, t, 8).count();
  const index_t c64 = find_supernodes(sym, t, 64).count();
  EXPECT_LE(c64, c8);
}

// Supernodal nnz(L+U) of the SLU core on A, min-degree ordered, against
// the scalar fill of the same permuted matrix.
std::pair<offset_t, offset_t> slu_vs_scalar(const Csr& a, index_t slack) {
  const Csr pa = apply_symmetric_permutation(a, min_degree_order(a));
  SluOptions o;
  o.relax_slack = slack;
  return {SluFactorization(pa, o).nnz_lu(), symbolic_fill(pa).nnz_lu()};
}

// Stand-ins for the registry's grid2d, grid3d, circuit and cage families.
std::vector<Csr> stand_ins() {
  return {finalize_system(grid2d_laplacian(30, 30), 1),
          finalize_system(grid3d_laplacian(10, 10, 10), 1),
          finalize_system(circuit_like(1000, 2.6, 3, 7), 1),
          finalize_system(cage_like(1000, 5, 0.1, 8), 1)};
}

TEST(Supernodes, SlackZeroIsExactlyScalarFill) {
  // Every etree chain used to merge up to the width cap whatever the
  // slack, padding panels with explicit zeros.
  for (const Csr& a : stand_ins()) {
    const auto [slu, scalar] = slu_vs_scalar(a, 0);
    EXPECT_EQ(slu, scalar) << "n=" << a.n_rows;
  }
}

TEST(Supernodes, DefaultSlackPadsAtMostOnePercent) {
  // An absolute slack pads small problems relatively more, so the bound is
  // held at registry scale.
  const std::vector<Csr> registry_scale = {
      finalize_system(grid2d_laplacian(150, 150), 1),
      finalize_system(grid3d_laplacian(18, 18, 18), 1),
      finalize_system(circuit_like(4000, 2.6, 5, 71), 1),
      finalize_system(cage_like(4000, 5, 0.1, 8), 1)};
  for (const Csr& a : registry_scale) {
    const auto [slu, scalar] = slu_vs_scalar(a, SluOptions{}.relax_slack);
    EXPECT_GE(slu, scalar) << "n=" << a.n_rows;
    EXPECT_LE(static_cast<double>(slu), 1.01 * static_cast<double>(scalar))
        << "n=" << a.n_rows;
  }
}

TEST(Tiles, PatternCoversMatrixAndDiagonal) {
  const Csr a = finalize_system(cage_like(130, 5, 0.1, 11), 11);
  const TilePattern p = tile_symbolic(a, 16);
  EXPECT_EQ(p.nt, (a.n_rows + 15) / 16);
  for (index_t k = 0; k < p.nt; ++k) EXPECT_TRUE(p.has(k, k));
  // Every A entry lands in a present tile.
  for (index_t r = 0; r < a.n_rows; ++r) {
    for (offset_t q = a.row_ptr[r]; q < a.row_ptr[r + 1]; ++q) {
      EXPECT_TRUE(p.has(r / 16, a.col_idx[q] / 16));
    }
  }
}

// The solver's default ordering on three matrix families; min-degree on
// the grid leaves many tile pairs whose product has no shared inner index.
std::vector<Csr> tile_cases() {
  std::vector<Csr> out;
  for (const Csr& a : {finalize_system(grid2d_laplacian(16, 16), 3),
                       finalize_system(circuit_like(150, 3.0, 2, 21), 21),
                       finalize_system(cage_like(130, 5, 0.1, 11), 11)}) {
    out.push_back(apply_symmetric_permutation(
        a, compute_ordering(a, Ordering::kMinDegree)));
  }
  return out;
}

TEST(Tiles, SsssmTasksAreExactlyTheMeetingProducts) {
  for (const Csr& a : tile_cases()) {
    for (const index_t b : {8, 16}) {
      PluOptions opts;
      opts.tile_size = b;
      const PluFactorization f(a, opts);
      const TilePattern& p = f.pattern();
      std::set<std::tuple<index_t, index_t, index_t>> in_graph;
      for (const Task& t : f.graph().tasks()) {
        if (t.type != TaskType::kSsssm) continue;
        EXPECT_TRUE(in_graph.emplace(t.row, t.k, t.col).second)
            << "duplicate SSSSM (" << t.row << "," << t.k << "," << t.col
            << ")";
        EXPECT_TRUE(p.has(t.row, t.col));
      }
      std::set<std::tuple<index_t, index_t, index_t>> meeting;
      for (index_t k = 0; k < p.nt; ++k) {
        for (index_t i = k + 1; i < p.nt; ++i) {
          if (!p.has(i, k)) continue;
          for (index_t j = k + 1; j < p.nt; ++j) {
            if (!p.has(k, j)) continue;
            const auto lc = p.envelope(i, k).cols;
            const auto ur = p.envelope(k, j).rows;
            if (std::ranges::find_first_of(lc, ur) != lc.end()) {
              meeting.emplace(i, k, j);
            }
          }
        }
      }
      EXPECT_FALSE(meeting.empty());
      EXPECT_EQ(in_graph, meeting) << "n=" << a.n_rows << " b=" << b;
    }
  }
}

TEST(Tiles, PresentTilesAreTheBinnedScalarFill) {
  for (const Csr& a : tile_cases()) {
    for (const index_t b : {8, 16}) {
      const TilePattern p = tile_symbolic(a, b);
      const FillPattern f = symbolic_fill(a);
      std::vector<char> binned(static_cast<std::size_t>(p.nt) * p.nt, 0);
      for (index_t k = 0; k < p.nt; ++k) {
        binned[static_cast<std::size_t>(k) * p.nt + k] = 1;
      }
      for (index_t j = 0; j < f.n; ++j) {
        for (offset_t q = f.col_ptr[j]; q < f.col_ptr[j + 1]; ++q) {
          const index_t i = f.row_idx[q];
          binned[static_cast<std::size_t>(i / b) * p.nt + j / b] = 1;
          binned[static_cast<std::size_t>(j / b) * p.nt + i / b] = 1;
        }
      }
      for (index_t I = 0; I < p.nt; ++I) {
        for (index_t J = 0; J < p.nt; ++J) {
          EXPECT_EQ(p.has(I, J),
                    binned[static_cast<std::size_t>(I) * p.nt + J] != 0)
              << "tile (" << I << "," << J << "), b=" << b;
        }
      }
    }
  }
}

// The pattern keeps one tile list per block column. Tile presence is
// structurally symmetric, so the same list is also block row k's tiles
// right of the diagonal.
TEST(Tiles, BelowIsBothTheColumnAndTheRowScan) {
  for (const Csr& a : tile_cases()) {
    for (const index_t b : {8, 16}) {
      const TilePattern p = tile_symbolic(a, b);
      for (index_t k = 0; k < p.nt; ++k) {
        std::vector<index_t> col;
        std::vector<index_t> row;
        for (index_t x = k + 1; x < p.nt; ++x) {
          if (p.has(x, k)) col.push_back(x);
          if (p.has(k, x)) row.push_back(x);
        }
        EXPECT_TRUE(std::ranges::equal(p.below(k), col)) << k << ", b=" << b;
        EXPECT_TRUE(std::ranges::equal(p.below(k), row)) << k << ", b=" << b;
      }
      EXPECT_GT(estimate_tile_nnz_lu(p), a.nnz() / 2);
    }
  }
}

// Pattern and tile bookkeeping grow with n and the present tiles, not with
// nt²: a tridiagonal system at b = 4 has nt = 1,000 block columns and
// under 3,000 present tiles.
TEST(Tiles, StorageScalesWithPresentTiles) {
  const Csr a = finalize_system(grid2d_laplacian(4000, 1), 5);
  PluOptions opts;
  opts.tile_size = 4;
  const PluFactorization f(a, opts);
  const TilePattern& p = f.pattern();
  const TileMatrix& tm = f.tiles();
  ASSERT_EQ(p.nt, 1000);
  EXPECT_EQ(tm.size(), p.nt + 2 * p.col_ptr.back());
  EXPECT_LT(tm.size(), 3000);
  const auto bound =
      static_cast<std::size_t>(4 * (a.n_rows + p.nt + tm.size()));
  for (const std::size_t size :
       {p.col_ptr.size(), p.tile_row.size(), p.tile_fill.size(),
        p.diag_fill.size(), p.env_ptr.size(), p.env.size(), p.iota.size(),
        static_cast<std::size_t>(tm.size())}) {
    EXPECT_LE(size, bound);
  }
}

// Every tile's position maps span its extent, send each envelope index to
// its list position and read -1 everywhere else; a diagonal tile's maps
// are the identity, and an absent tile has no envelope.
TEST(Tiles, PositionMapsInvertTheEnvelopeLists) {
  const auto check = [](std::span<const index_t> list,
                        std::span<const std::int16_t> map, index_t extent) {
    ASSERT_EQ(static_cast<index_t>(map.size()), extent);
    for (index_t x = 0; x < extent; ++x) {
      const auto it = std::ranges::find(list, x);
      EXPECT_EQ(map[x], it == list.end() ? -1 : it - list.begin()) << x;
    }
  };
  for (const Csr& a : tile_cases()) {
    for (const index_t b : {8, 16}) {
      const TilePattern p = tile_symbolic(a, b);
      for (index_t i = 0; i < p.nt; ++i) {
        for (index_t j = 0; j < p.nt; ++j) {
          SCOPED_TRACE(::testing::Message() << "tile (" << i << "," << j
                                            << "), b=" << b);
          const TileEnvelope e = p.envelope(i, j);
          if (!p.has(i, j)) {
            EXPECT_TRUE(e.rows.empty() && e.cols.empty() &&
                        e.row_pos.empty() && e.col_pos.empty());
            continue;
          }
          check(e.rows, e.row_pos, p.rows_in_tile(i));
          check(e.cols, e.col_pos, p.rows_in_tile(j));
          if (i != j) continue;
          for (index_t x = 0; x < p.rows_in_tile(i); ++x) {
            EXPECT_EQ(e.row_pos[x], x);
            EXPECT_EQ(e.col_pos[x], x);
          }
        }
      }
    }
  }
}

// Assembly places A's entries through the maps and still rejects an entry
// the envelope lacks, inside a present tile or in an absent one.
TEST(Tiles, AssemblyRejectsAnEntryOutsideTheEnvelope) {
  const Csr a = tile_cases()[0];
  const index_t b = 8;
  const auto p = std::make_shared<const TilePattern>(tile_symbolic(a, b));
  EXPECT_NO_THROW(TileMatrix(a, p));
  // (I, J, x): a present lower tile lacking in-tile row x, and an absent
  // tile.
  index_t I = -1, J = -1, x = -1, absent_i = -1, absent_j = -1;
  for (index_t i = 0; i < p->nt; ++i) {
    for (index_t j = 0; j < i; ++j) {
      if (!p->has(i, j)) {
        absent_i = i;
        absent_j = j;
        continue;
      }
      const auto row_pos = p->envelope(i, j).row_pos;
      const auto gap = std::ranges::find(row_pos, -1);
      if (gap != row_pos.end()) {
        I = i;
        J = j;
        x = static_cast<index_t>(gap - row_pos.begin());
      }
    }
  }
  ASSERT_GE(I, 0);
  ASSERT_GE(absent_i, 0);
  for (const auto& [r, c] :
       {std::pair{I * b + x, J * b + p->envelope(I, J).cols[0]},
        std::pair{absent_i * b, absent_j * b}}) {
    Coo coo;
    coo.n_rows = coo.n_cols = a.n_rows;
    for (index_t row = 0; row < a.n_rows; ++row) {
      for (offset_t q = a.row_ptr[row]; q < a.row_ptr[row + 1]; ++q) {
        coo.add(row, a.col_idx[q], a.values[q]);
      }
    }
    coo.add(r, c, 1.0);
    try {
      TileMatrix(coo_to_csr(coo), p);
      ADD_FAILURE() << "entry (" << r << "," << c << ") was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("lies outside its tile's envelope"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Tiles, LastTileMayBeSmaller) {
  const Csr a = finalize_system(grid2d_laplacian(5, 5), 23);  // n = 25
  const TilePattern p = tile_symbolic(a, 8);
  EXPECT_EQ(p.nt, 4);
  EXPECT_EQ(p.rows_in_tile(3), 1);
  EXPECT_EQ(p.rows_in_tile(0), 8);
}

// Dense LU without pivoting: the numeric ground truth for the envelope.
std::vector<real_t> dense_lu(const Csr& a) {
  const index_t n = a.n_rows;
  std::vector<real_t> m = to_dense(a);  // row-major
  for (index_t k = 0; k < n; ++k) {
    const real_t piv = m[static_cast<std::size_t>(k) * n + k];
    for (index_t i = k + 1; i < n; ++i) {
      real_t& lik = m[static_cast<std::size_t>(i) * n + k];
      if (lik == 0.0) continue;
      lik /= piv;
      for (index_t j = k + 1; j < n; ++j) {
        m[static_cast<std::size_t>(i) * n + j] -=
            lik * m[static_cast<std::size_t>(k) * n + j];
      }
    }
  }
  return m;
}

TEST(Tiles, EnvelopeHoldsEveryNumericNonzero) {
  const Csr circuit = finalize_system(circuit_like(120, 3.0, 2, 21), 21);
  const Csr grid = finalize_system(grid2d_laplacian(11, 11), 3);
  // Natural order, and the solver's default (min-degree) order.
  const Csr grid_md = apply_symmetric_permutation(
      grid, compute_ordering(grid, Ordering::kMinDegree));
  for (const Csr& a : {circuit, grid, grid_md}) {
    for (const index_t b : {8, 16}) {
      const TilePattern p = tile_symbolic(a, b);
      auto holds = [](std::span<const index_t> list, index_t x) {
        return std::binary_search(list.begin(), list.end(), x);
      };
      const std::vector<real_t> lu = dense_lu(a);
      const index_t n = a.n_rows;
      offset_t nonzeros = 0;
      for (index_t i = 0; i < n; ++i) {
        for (index_t j = 0; j < n; ++j) {
          if (lu[static_cast<std::size_t>(i) * n + j] == 0.0) continue;
          ++nonzeros;
          const index_t I = i / b, J = j / b;
          ASSERT_TRUE(p.has(I, J)) << i << "," << j;
          EXPECT_TRUE(holds(p.envelope(I, J).rows, i - I * b) &&
                      holds(p.envelope(I, J).cols, j - J * b))
              << "numeric nonzero (" << i << "," << j << ") outside tile ("
              << I << "," << J << ")'s envelope, b=" << b;
        }
      }
      EXPECT_GT(nonzeros, a.nnz());
      for (index_t I = 0; I < p.nt; ++I) {
        for (index_t J = 0; J < p.nt; ++J) {
          if (!p.has(I, J)) continue;
          const auto rows = p.envelope(I, J).rows;
          const auto cols = p.envelope(I, J).cols;
          EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
          EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
          if (I == J) {
            // Diagonal tiles are full: every pivot is a nonzero.
            EXPECT_EQ(static_cast<index_t>(rows.size()), p.rows_in_tile(I));
            EXPECT_EQ(static_cast<index_t>(cols.size()), p.rows_in_tile(J));
          } else {
            // Every other present tile holds scalar fill, so both its
            // lists are non-empty.
            EXPECT_FALSE(rows.empty() || cols.empty()) << I << "," << J;
          }
          const offset_t fill = p.fill(I, J);
          EXPECT_GE(static_cast<offset_t>(rows.size() * cols.size()), fill);
          // Above the diagonal a tile's lists and fill are its mirror's,
          // transposed.
          if (I < J) {
            EXPECT_EQ(fill, p.fill(J, I));
            EXPECT_TRUE(std::ranges::equal(rows, p.envelope(J, I).cols));
            EXPECT_TRUE(std::ranges::equal(cols, p.envelope(J, I).rows));
          }
        }
      }
    }
  }
}


// ---- Pins: byte-identical symbolic structure ------------------------------
//
// FNV-1a hashes of the analysis outputs, recorded before the symbolic phase
// moved from the scalar fill to supernode row sets. Any change that moves a
// tile, an envelope index, a supernode boundary or a DAG edge fails here.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void array(const std::vector<T>& v) {
    value(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
};

// The perfbench workloads' matrices: pde2d, fill3d and c-71.
std::vector<std::pair<std::string, Csr>> workload_matrices() {
  return {{"pde2d", finalize_system(grid2d_laplacian(70, 70), 1)},
          {"fill3d", finalize_system(grid3d_laplacian(18, 18, 18), 1)},
          {"c-71", finalize_system(circuit_like(4000, 2.6, 5, 71), 71)}};
}

std::uint64_t tile_pattern_hash(const TilePattern& p) {
  Fnv f;
  f.value(p.n);
  f.value(p.tile_size);
  f.value(p.nt);
  f.array(p.col_ptr);
  f.array(p.tile_row);
  f.array(p.tile_fill);
  f.array(p.diag_fill);
  f.array(p.env_ptr);
  f.array(p.env);
  f.array(p.iota);
  f.array(p.pos);
  f.array(p.pos_iota);
  return f.h;
}

TEST(TilePatternBits, WorkloadPatternsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"pde2d/mindeg/b16", 0x0d78c9d1fd47049cULL},
      {"pde2d/mindeg/b64", 0xaa130a4101993a78ULL},
      {"pde2d/nd/b16", 0xdd68dd1122831e10ULL},
      {"pde2d/nd/b64", 0xe5db0285c2e888a3ULL},
      {"fill3d/mindeg/b16", 0x60dc72244ee38547ULL},
      {"fill3d/mindeg/b64", 0x8568ecfdaf912838ULL},
      {"fill3d/nd/b16", 0xe5dcfbd2d7ff88a8ULL},
      {"fill3d/nd/b64", 0xe3e5ffa62f7e4ed2ULL},
      {"c-71/mindeg/b16", 0xe98f1be700cf9bf3ULL},
      {"c-71/mindeg/b64", 0x7935d235538ee7efULL},
      {"c-71/nd/b16", 0x3757fdfee9d2d7acULL},
      {"c-71/nd/b64", 0xaf674ba7d6751697ULL},
  };
  for (const auto& [name, a] : workload_matrices()) {
    for (const Ordering o :
         {Ordering::kMinDegree, Ordering::kNestedDissection}) {
      const Csr pa = apply_symmetric_permutation(a, compute_ordering(a, o));
      for (const index_t b : {16, 64}) {
        const std::string key =
            name + "/" + ordering_name(o) + "/b" + std::to_string(b);
        const std::uint64_t h = tile_pattern_hash(tile_symbolic(pa, b));
        ASSERT_TRUE(golden.contains(key)) << key;
        EXPECT_EQ(h, golden.at(key)) << key;
      }
    }
  }
}

// The cage and circuit stand-ins at registry scale.
std::vector<std::pair<std::string, Csr>> slu_matrices() {
  return {{"cage", finalize_system(cage_like(4000, 5, 0.1, 8), 1)},
          {"circuit", finalize_system(circuit_like(4000, 2.6, 5, 71), 1)}};
}

TEST(SluSymbolicBits, PartitionRowsAndSegmentsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"cage/mindeg", 0x5f928f22a3e412e7ULL},
      {"cage/nd", 0xe524c00754974680ULL},
      {"circuit/mindeg", 0xf4f81ed5edf00b86ULL},
      {"circuit/nd", 0xdfed37d9218a3fe2ULL},
  };
  for (const auto& [name, a] : slu_matrices()) {
    for (const Ordering o :
         {Ordering::kMinDegree, Ordering::kNestedDissection}) {
      const Csr pa = apply_symmetric_permutation(a, compute_ordering(a, o));
      const SluFactorization slu(pa, SluOptions{});
      const SupernodePartition& part = slu.supernodes();
      Fnv f;
      f.array(part.start);
      f.array(part.sn_of_col);
      for (index_t s = 0; s < part.count(); ++s) {
        f.array(slu.below(s));
        for (const SluFactorization::Segment& seg : slu.segments(s)) {
          f.value(seg.target_sn);
          f.value(seg.pos0);
          f.value(seg.pos1);
        }
      }
      f.value(slu.nnz_lu());
      const std::string key = name + "/" + ordering_name(o);
      ASSERT_TRUE(golden.contains(key)) << key;
      EXPECT_EQ(f.h, golden.at(key)) << key;
    }
  }
}

std::uint64_t graph_hash(const TaskGraph& g) {
  Fnv f;
  f.value(g.size());
  for (const Task& t : g.tasks()) {
    f.value(t.id);
    f.value(static_cast<int>(t.type));
    f.value(t.k);
    f.value(t.row);
    f.value(t.col);
    f.value(t.cost.flops);
    f.value(t.cost.bytes);
    f.value(t.cost.cuda_blocks);
    f.value(t.cost.shmem_per_block);
    f.value(t.cost.sparse);
    f.value(t.out_bytes);
    f.value(t.atomic_ok);
    f.value(t.owner_rank);
    const auto [sb, se] = g.successors(t.id);
    f.value(se - sb);
    f.bytes(sb, static_cast<std::size_t>(se - sb) * sizeof(index_t));
    const auto [pb, pe] = g.predecessors(t.id);
    f.value(pe - pb);
    f.bytes(pb, static_cast<std::size_t>(pe - pb) * sizeof(index_t));
    f.value(g.in_degree(t.id));
  }
  f.array(g.levels());
  return f.h;
}

TEST(GraphBits, BothCoresTaskGraphsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"plu/c-71/b16", 0x2972eae9a451251eULL},
      {"plu/c-71/b64", 0x0667053273197369ULL},
      {"slu/c-71", 0x96064fe1972d200eULL},
      {"slu/cage-nd", 0xaf94e2d8ce769ae8ULL},
  };
  const Csr c71 = finalize_system(circuit_like(4000, 2.6, 5, 71), 71);
  const Csr cage = finalize_system(cage_like(4000, 5, 0.1, 8), 1);
  const Csr c71_md = apply_symmetric_permutation(
      c71, compute_ordering(c71, Ordering::kMinDegree));
  const Csr cage_nd = apply_symmetric_permutation(
      cage, compute_ordering(cage, Ordering::kNestedDissection));
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const index_t b : {16, 64}) {
    PluOptions o;
    o.tile_size = b;
    o.grid = ProcessGrid{2, 2};
    got.emplace_back("plu/c-71/b" + std::to_string(b),
                     graph_hash(PluFactorization(c71_md, o).graph()));
  }
  SluOptions so;
  so.grid = ProcessGrid{2, 2};
  got.emplace_back("slu/c-71",
                   graph_hash(SluFactorization(c71_md, so).graph()));
  got.emplace_back("slu/cage-nd",
                   graph_hash(SluFactorization(cage_nd, so).graph()));
  for (const auto& [key, h] : got) {
    ASSERT_TRUE(golden.contains(key)) << key;
    EXPECT_EQ(h, golden.at(key)) << key;
  }
}

}  // namespace
}  // namespace th
