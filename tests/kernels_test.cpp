#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "kernels/dense.hpp"
#include "kernels/flops.hpp"
#include "kernels/simd.hpp"
#include "kernels/tile.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

namespace th {
namespace {

// Reference column-major matrix multiply C = A * B.
std::vector<real_t> matmul(const std::vector<real_t>& a,
                           const std::vector<real_t>& b, index_t m, index_t k,
                           index_t n) {
  std::vector<real_t> c(static_cast<std::size_t>(m) * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = 0; p < k; ++p) {
      for (index_t i = 0; i < m; ++i) {
        c[i + static_cast<std::size_t>(j) * m] +=
            a[i + static_cast<std::size_t>(p) * m] *
            b[p + static_cast<std::size_t>(j) * k];
      }
    }
  }
  return c;
}

std::vector<real_t> random_dd_matrix(index_t n, Rng& rng) {
  std::vector<real_t> a(static_cast<std::size_t>(n) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  for (index_t i = 0; i < n; ++i) {
    a[i + static_cast<std::size_t>(i) * n] += static_cast<real_t>(n) + 1;
  }
  return a;
}

TEST(DenseGetrf, ReconstructsMatrix) {
  Rng rng(5);
  const index_t n = 12;
  const std::vector<real_t> a0 = random_dd_matrix(n, rng);
  std::vector<real_t> lu = a0;
  getrf_nopiv(n, lu.data(), n);
  // Rebuild A = L * U from the packed factors.
  std::vector<real_t> l(static_cast<std::size_t>(n) * n, 0.0);
  std::vector<real_t> u(static_cast<std::size_t>(n) * n, 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const real_t v = lu[i + static_cast<std::size_t>(j) * n];
      if (i > j) {
        l[i + static_cast<std::size_t>(j) * n] = v;
      } else {
        u[i + static_cast<std::size_t>(j) * n] = v;
      }
    }
    l[j + static_cast<std::size_t>(j) * n] = 1.0;
  }
  const std::vector<real_t> a1 = matmul(l, u, n, n, n);
  for (std::size_t i = 0; i < a0.size(); ++i) {
    EXPECT_NEAR(a1[i], a0[i], 1e-9);
  }
}

TEST(DenseGetrf, ZeroPivotThrows) {
  std::vector<real_t> a{0.0, 1.0, 1.0, 0.0};  // 2x2 antidiagonal
  EXPECT_THROW(getrf_nopiv(2, a.data(), 2), Error);
}

TEST(DenseTrsm, LowerLeftUnitSolves) {
  Rng rng(7);
  const index_t m = 9, n = 4;
  std::vector<real_t> l = random_dd_matrix(m, rng);
  // Zero the strict upper part; diagonal treated as unit (not read).
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i < j; ++i) l[i + static_cast<std::size_t>(j) * m] = 0;
    l[j + static_cast<std::size_t>(j) * m] = 1.0;
  }
  std::vector<real_t> x(static_cast<std::size_t>(m) * n);
  for (real_t& v : x) v = rng.uniform(-1.0, 1.0);
  const std::vector<real_t> b = matmul(l, x, m, m, n);
  std::vector<real_t> solved = b;
  trsm_lower_left_unit(m, n, l.data(), m, solved.data(), m);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(solved[i], x[i], 1e-9);
}

TEST(DenseTrsm, UpperRightSolves) {
  Rng rng(9);
  const index_t m = 5, n = 8;
  std::vector<real_t> u = random_dd_matrix(n, rng);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      u[i + static_cast<std::size_t>(j) * n] = 0;
    }
  }
  std::vector<real_t> x(static_cast<std::size_t>(m) * n);
  for (real_t& v : x) v = rng.uniform(-1.0, 1.0);
  const std::vector<real_t> b = matmul(x, u, m, n, n);
  std::vector<real_t> solved = b;
  trsm_upper_right(m, n, u.data(), n, solved.data(), m);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(solved[i], x[i], 1e-9);
}

TEST(DenseGemm, MinusMatchesReference) {
  Rng rng(11);
  const index_t m = 6, k = 5, n = 7;
  std::vector<real_t> a(static_cast<std::size_t>(m) * k);
  std::vector<real_t> b(static_cast<std::size_t>(k) * n);
  std::vector<real_t> c(static_cast<std::size_t>(m) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  for (real_t& v : b) v = rng.uniform(-1.0, 1.0);
  for (real_t& v : c) v = rng.uniform(-1.0, 1.0);
  const std::vector<real_t> ab = matmul(a, b, m, k, n);
  std::vector<real_t> got = c;
  gemm_minus(m, n, k, a.data(), m, b.data(), k, got.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(got[i], c[i] - ab[i], 1e-12);
  }
}

TEST(DenseGemm, AtomicMatchesPlainSequentially) {
  Rng rng(13);
  const index_t m = 4, k = 3, n = 5;
  std::vector<real_t> a(static_cast<std::size_t>(m) * k);
  std::vector<real_t> b(static_cast<std::size_t>(k) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  for (real_t& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<real_t> c1(static_cast<std::size_t>(m) * n, 1.0);
  std::vector<real_t> c2 = c1;
  gemm_minus(m, n, k, a.data(), m, b.data(), k, c1.data(), m);
  gemm_minus_atomic(m, n, k, a.data(), m, b.data(), k, c2.data(), m);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_DOUBLE_EQ(c1[i], c2[i]);
}

TEST(AtomicAdd, ConcurrentAccumulationIsExact) {
  // Sum of integers is exact in FP64, so concurrent accumulation must give
  // the exact total regardless of interleaving.
  real_t target = 0.0;
  constexpr int kThreads = 8;
  constexpr int kAdds = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) atomic_add(target, 1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(target, kThreads * kAdds);
}

TEST(Tile, InsertFreezeAt) {
  Tile t(4, 3);
  t.insert(2, 1, 5.0);
  t.insert(0, 0, 1.0);
  t.insert(3, 1, -2.0);
  t.freeze();
  EXPECT_EQ(t.nnz(), 3);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 0.0);
  EXPECT_NEAR(t.density(), 3.0 / 12.0, 1e-12);
}

TEST(Tile, DensifyPreservesValues) {
  Tile t(3, 3);
  t.insert(1, 2, 4.0);
  t.insert(0, 0, -1.0);
  t.freeze();
  t.densify();
  EXPECT_EQ(t.storage(), Tile::Storage::kDense);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), -1.0);
  EXPECT_EQ(t.nnz(), 2);
}

TEST(TileMatrix, AssembleMatchesSource) {
  const Csr a = finalize_system(cage_like(60, 4, 0.2, 21), 21);
  const TilePattern p = tile_symbolic(a, 8);
  const TileMatrix tm(a, p);
  const auto dense = to_dense(a);
  for (index_t r = 0; r < a.n_rows; ++r) {
    for (index_t c = 0; c < a.n_cols; ++c) {
      const Tile* t = tm.tile(r / 8, c / 8);
      const real_t expected = dense[static_cast<std::size_t>(r) * a.n_cols + c];
      if (t == nullptr) {
        EXPECT_EQ(expected, 0.0);
      } else {
        EXPECT_DOUBLE_EQ(t->at(r % 8, c % 8), expected);
      }
    }
  }
  EXPECT_EQ(tm.total_nnz(), a.nnz());
}

TEST(TileKernels, SsssmSparseMatchesDense) {
  // C -= L * U computed twice: once with sparse L, once densified.
  Rng rng(31);
  auto make_sparse_tile = [&](index_t rows, index_t cols, real_t density) {
    Tile t(rows, cols);
    for (index_t c = 0; c < cols; ++c) {
      for (index_t r = 0; r < rows; ++r) {
        if (rng.next_real() < density) t.insert(r, c, rng.uniform(-1, 1));
      }
    }
    t.freeze();
    return t;
  };
  Tile l_sparse = make_sparse_tile(6, 5, 0.3);
  Tile l_dense = l_sparse;
  l_dense.densify();
  Tile u = make_sparse_tile(5, 7, 0.8);
  u.densify();
  Tile c1 = make_sparse_tile(6, 7, 0.5);
  Tile c2 = c1;
  tile_ssssm(c1, l_sparse, u, /*atomic=*/false);
  tile_ssssm(c2, l_dense, u, /*atomic=*/false);
  for (index_t r = 0; r < 6; ++r) {
    for (index_t c = 0; c < 7; ++c) {
      EXPECT_NEAR(c1.at(r, c), c2.at(r, c), 1e-12);
    }
  }
}

TEST(TileKernels, GetrfTstrfGeesmConsistency) {
  // Factor a 2x2 block matrix via tile kernels and verify L*U == A on the
  // off-diagonal blocks.
  Rng rng(33);
  const index_t b = 6;
  auto rnd_tile = [&](bool dd) {
    Tile t(b, b);
    for (index_t c = 0; c < b; ++c) {
      for (index_t r = 0; r < b; ++r) {
        real_t v = rng.uniform(-1, 1);
        if (dd && r == c) v += b + 1;
        t.insert(r, c, v);
      }
    }
    t.freeze();
    return t;
  };
  Tile diag = rnd_tile(true);
  Tile below0 = rnd_tile(false);
  Tile below = below0;
  Tile right0 = rnd_tile(false);
  Tile right = right0;

  tile_getrf(diag);
  tile_tstrf(below, diag);   // below := below0 * U^{-1}
  tile_geesm(right, diag);   // right := L^{-1} * right0

  // Check below * U == below0 and L * right == right0.
  for (index_t r = 0; r < b; ++r) {
    for (index_t c = 0; c < b; ++c) {
      real_t bu = 0, lr = 0;
      for (index_t k = 0; k < b; ++k) {
        const real_t u_kc = k <= c ? diag.at(k, c) : 0.0;
        bu += below.at(r, k) * u_kc;
        const real_t l_rk = r > k ? diag.at(r, k) : (r == k ? 1.0 : 0.0);
        lr += l_rk * right.at(k, c);
      }
      EXPECT_NEAR(bu, below0.at(r, c), 1e-9);
      EXPECT_NEAR(lr, right0.at(r, c), 1e-9);
    }
  }
}

TEST(Flops, CountsArePositiveAndMonotone) {
  EXPECT_GT(getrf_flops(8), getrf_flops(4));
  EXPECT_GT(trsm_flops(8, 8), trsm_flops(4, 8));
  EXPECT_EQ(gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(gemm_flops(2, 3, 4, 0.5), 24);
  EXPECT_EQ(words_to_bytes(10), 80);
}

// ---- SIMD inner loops --------------------------------------------------

TEST(Simd, AxpyMinusMatchesScalarBitwise) {
  std::vector<real_t> x(67), y(67), ref(67);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 / (1.0 + static_cast<real_t>(i));
    y[i] = ref[i] = 3.0 - 0.125 * static_cast<real_t>(i);
  }
  const real_t alpha = 1.0 / 3.0;
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] -= x[i] * alpha;
  simd::axpy_minus(static_cast<index_t>(x.size()), x.data(), alpha, y.data());
  EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(real_t)), 0);
}

TEST(Simd, ScaleMatchesScalarBitwise) {
  std::vector<real_t> x(61), ref(61);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = ref[i] = 0.7 + static_cast<real_t>(i) * 0.031;
  }
  const real_t alpha = 1.0 / 7.0;
  for (real_t& v : ref) v *= alpha;
  simd::scale(static_cast<index_t>(x.size()), x.data(), alpha);
  EXPECT_EQ(std::memcmp(x.data(), ref.data(), x.size() * sizeof(real_t)), 0);
}

TEST(Simd, DispatchNameIsCoherent) {
  const char* name = simd::dispatch_name();
  ASSERT_NE(name, nullptr);
  if (simd::avx2_active()) {
    EXPECT_STREQ(name, "avx2");
  } else {
    EXPECT_TRUE(std::strncmp(name, "portable", 8) == 0) << name;
  }
}

}  // namespace
}  // namespace th
