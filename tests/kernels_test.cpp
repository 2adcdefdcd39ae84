#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
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

// Writes one entry of a tile's column-major storage.
void set(Tile& t, index_t r, index_t c, real_t v) {
  t.data()[r + static_cast<std::size_t>(c) * t.ld()] = v;
}

TEST(Tile, ZeroedColumnMajorStorage) {
  Tile t(4, 3);
  EXPECT_EQ(t.ld(), 4);
  EXPECT_EQ(t.nnz(), 0);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_FALSE(std::signbit(t.data()[i]));
    EXPECT_EQ(t.data()[i], 0.0);
  }
  set(t, 2, 1, 5.0);
  set(t, 0, 0, 1.0);
  set(t, 3, 1, -2.0);
  EXPECT_EQ(t.nnz(), 3);
  EXPECT_DOUBLE_EQ(t.data()[2 + 1 * 4], 5.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(3, 1), -2.0);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 0.0);
  EXPECT_THROW(t.at(4, 0), Error);
}

TEST(TileMatrix, AssembleMatchesSource) {
  // The circuit's dense rails fill tiles that hold no entry of A.
  int fill_only = 0;
  for (const Csr& a : {finalize_system(cage_like(60, 4, 0.2, 21), 21),
                       finalize_system(circuit_like(120, 3.0, 2, 21), 21)}) {
    const TilePattern p = tile_symbolic(a, 8);
    const TileMatrix tm(a, p);
    const auto dense = to_dense(a);
    for (index_t r = 0; r < a.n_rows; ++r) {
      for (index_t c = 0; c < a.n_cols; ++c) {
        const Tile* t = tm.tile(r / 8, c / 8);
        const real_t expected =
            dense[static_cast<std::size_t>(r) * a.n_cols + c];
        if (t == nullptr) {
          EXPECT_EQ(expected, 0.0);
        } else {
          EXPECT_DOUBLE_EQ(t->at(r % 8, c % 8), expected);
        }
      }
    }
    EXPECT_EQ(tm.total_nnz(), a.nnz());

    // A fill-only tile (present in the pattern, no entry of A) holds
    // exactly +0.0 bytes.
    const index_t nt = tm.nt();
    std::vector<char> has_a(static_cast<std::size_t>(nt) * nt, 0);
    for (index_t r = 0; r < a.n_rows; ++r) {
      for (offset_t q = a.row_ptr[r]; q < a.row_ptr[r + 1]; ++q) {
        has_a[static_cast<std::size_t>(r / 8) * nt + a.col_idx[q] / 8] = 1;
      }
    }
    for (index_t i = 0; i < nt; ++i) {
      for (index_t j = 0; j < nt; ++j) {
        const Tile* t = tm.tile(i, j);
        if (t == nullptr || has_a[static_cast<std::size_t>(i) * nt + j]) {
          continue;
        }
        ++fill_only;
        for (offset_t e = 0; e < t->panel_size(); ++e) {
          EXPECT_FALSE(std::signbit(t->data()[e])) << i << "," << j;
          EXPECT_EQ(t->data()[e], 0.0) << i << "," << j;
        }
      }
    }
  }
  EXPECT_GT(fill_only, 0);
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
        set(t, r, c, v);
      }
    }
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

// ---- Bitwise kernel contract -------------------------------------------
//
// gemm_minus and trsm_upper_right must give every element exactly the IEEE
// operations of the right-looking loops below (one multiply, one subtract
// per nonzero coefficient, ascending coefficient index), on every dispatch
// path. The references are those loops with scalar inner bodies.

void ref_gemm_minus(index_t m, index_t n, index_t k, const real_t* a,
                    index_t lda, const real_t* b, index_t ldb, real_t* c,
                    index_t ldc) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = 0; p < k; ++p) {
      const real_t bpj = b[p + static_cast<std::size_t>(j) * ldb];
      if (bpj == 0.0) continue;
      for (index_t i = 0; i < m; ++i) {
        const real_t prod = a[i + static_cast<std::size_t>(p) * lda] * bpj;
        real_t& cij = c[i + static_cast<std::size_t>(j) * ldc];
        cij = cij - prod;
      }
    }
  }
}

void ref_trsm_upper_right(index_t m, index_t n, const real_t* u, index_t ldu,
                          real_t* b, index_t ldb) {
  for (index_t k = 0; k < n; ++k) {
    const real_t inv = 1.0 / u[k + static_cast<std::size_t>(k) * ldu];
    real_t* colk = b + static_cast<std::size_t>(k) * ldb;
    for (index_t i = 0; i < m; ++i) colk[i] = colk[i] * inv;
    for (index_t j = k + 1; j < n; ++j) {
      const real_t ukj = u[k + static_cast<std::size_t>(j) * ldu];
      if (ukj == 0.0) continue;
      real_t* colj = b + static_cast<std::size_t>(j) * ldb;
      for (index_t i = 0; i < m; ++i) {
        const real_t prod = colk[i] * ukj;
        colj[i] = colj[i] - prod;
      }
    }
  }
}

// Random values with explicit +0.0 / -0.0 entries sprinkled in.
std::vector<real_t> signed_zero_values(std::size_t n, Rng& rng) {
  std::vector<real_t> v(n);
  for (real_t& x : v) {
    const real_t r = rng.next_real();
    x = r < 0.05 ? 0.0 : (r < 0.10 ? -0.0 : rng.uniform(-1.0, 1.0));
  }
  return v;
}

// k x n coefficients, nonzero (and not +-0) with probability `density`.
std::vector<real_t> sparse_coefficients(index_t k, index_t n, index_t ld,
                                        real_t density, Rng& rng) {
  std::vector<real_t> b(static_cast<std::size_t>(ld) * std::max<index_t>(n, 1),
                        0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = 0; p < k; ++p) {
      real_t& v = b[p + static_cast<std::size_t>(j) * ld];
      v = rng.next_real() < density ? rng.uniform(-1.0, 1.0)
                                    : (rng.next_real() < 0.5 ? 0.0 : -0.0);
    }
  }
  return b;
}

bool same_bits(const std::vector<real_t>& x, const std::vector<real_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(real_t)) == 0;
}

TEST(KernelContract, GemmMinusMatchesRightLookingBitwise) {
  Rng rng(41);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  for (index_t m : {1, 3, 15, 16, 17, 64}) {
    for (index_t n : {0, 1, 5, 64}) {
      // k = 150 folds the coefficient list in several chunks.
      for (index_t k : {0, 1, 7, 64, 150}) {
        for (real_t density : {0.1, 1.0}) {
          const index_t lda = m + 2, ldb = k + 1, ldc = m + 3;
          std::vector<real_t> a = signed_zero_values(
              static_cast<std::size_t>(lda) * std::max<index_t>(k, 1), rng);
          if (k > 3) {
            a[static_cast<std::size_t>(m - 1) + lda * 1] = inf;
            a[0 + static_cast<std::size_t>(lda) * 3] = nan;
          }
          const std::vector<real_t> b =
              sparse_coefficients(k, n, ldb, density, rng);
          const std::vector<real_t> c0 = signed_zero_values(
              static_cast<std::size_t>(ldc) * std::max<index_t>(n, 1), rng);
          std::vector<real_t> want = c0, got = c0;
          ref_gemm_minus(m, n, k, a.data(), lda, b.data(), ldb, want.data(),
                         ldc);
          gemm_minus(m, n, k, a.data(), lda, b.data(), ldb, got.data(), ldc);
          EXPECT_TRUE(same_bits(got, want))
              << "m=" << m << " n=" << n << " k=" << k << " density="
              << density;
        }
      }
    }
  }
}

TEST(KernelContract, TrsmUpperRightMatchesRightLookingBitwise) {
  Rng rng(43);
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  for (index_t m : {1, 3, 15, 16, 17, 64}) {
    // n = 100 with a dense U gives columns with more than one chunk of
    // coefficients.
    for (index_t n : {0, 1, 5, 64, 100}) {
      for (real_t density : {0.1, 1.0}) {
        const index_t ldu = n + 1, ldb = m + 3;
        std::vector<real_t> u = sparse_coefficients(n, n, ldu, density, rng);
        for (index_t j = 0; j < n; ++j) {
          for (index_t i = j + 1; i < n; ++i) {
            u[i + static_cast<std::size_t>(j) * ldu] = 0.0;
          }
          u[j + static_cast<std::size_t>(j) * ldu] = rng.uniform(1.0, 2.0);
        }
        std::vector<real_t> b0 = signed_zero_values(
            static_cast<std::size_t>(ldb) * std::max<index_t>(n, 1), rng);
        if (n > 3) {
          b0[static_cast<std::size_t>(m - 1) + ldb * 1] = inf;
          b0[0 + static_cast<std::size_t>(ldb) * 2] = nan;
        }
        std::vector<real_t> want = b0, got = b0;
        ref_trsm_upper_right(m, n, u.data(), ldu, want.data(), ldb);
        trsm_upper_right(m, n, u.data(), ldu, got.data(), ldb);
        EXPECT_TRUE(same_bits(got, want))
            << "m=" << m << " n=" << n << " density=" << density;
      }
    }
  }
}

TEST(KernelContract, TrsmUpperRightThrowsOnTinyPivot) {
  const index_t n = 3;
  std::vector<real_t> u{2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 4.0};
  std::vector<real_t> b(2 * n, 1.0);
  EXPECT_THROW(trsm_upper_right(2, n, u.data(), n, b.data(), 2), Error);
}

// a = b = 1 + 2^-30 and c = fl(a*b): mul-then-sub leaves exactly 0, while a
// fused multiply-subtract leaves -2^-60 (the rounding error of a*b). m in
// {1, 4, 16} reaches the scalar, 4-wide and 16-wide row bodies.
TEST(KernelContract, NoFmaContraction) {
  volatile real_t av = 1.0 + 0x1.0p-30;  // not a compile-time constant
  const real_t a = av;
  const real_t c = a * a;
  ASSERT_NE(std::fma(a, a, -c), 0.0);  // the product is inexact
  for (index_t m : {1, 4, 16}) {
    std::vector<real_t> x(static_cast<std::size_t>(m), a);
    std::vector<real_t> y(static_cast<std::size_t>(m), c);
    const real_t coef = a;
    gemm_minus(m, 1, 1, x.data(), m, &coef, 1, y.data(), m);
    for (real_t v : y) EXPECT_EQ(v, 0.0) << "gemm_minus m=" << m;

    // Column 1 of B*U^{-1} with U = [1 a; 0 1] is c - a*a.
    std::vector<real_t> b(static_cast<std::size_t>(2 * m), a);
    std::fill(b.begin() + m, b.end(), c);
    const std::vector<real_t> u{1.0, 0.0, a, 1.0};
    trsm_upper_right(m, 2, u.data(), 2, b.data(), m);
    for (index_t i = 0; i < m; ++i) {
      EXPECT_EQ(b[static_cast<std::size_t>(m + i)], 0.0)
          << "trsm_upper_right m=" << m;
    }
  }
}

// A full, diagonally dominant b×b tile with random entries.
Tile dominant_tile(index_t b, Rng& rng) {
  Tile t(b, b);
  for (index_t c = 0; c < b; ++c) {
    for (index_t r = 0; r < b; ++r) {
      set(t, r, c, rng.uniform(-1, 1) + (r == c ? b + 1 : 0));
    }
  }
  return t;
}

// ---- Envelope-panel kernels against the dense b×b reference -------------
//
// The dense reference runs the dense.hpp kernels on full b×b buffers that
// hold the panel's values at its envelope positions and zeros elsewhere.
// Every stored panel entry must equal the reference entry bit for bit;
// only the sign of an exact zero may differ (DESIGN.md §17: a dropped term
// was C - (+-0)).

// Sorted random subset of [0, b) with `count` members.
std::vector<index_t> random_list(index_t b, index_t count, Rng& rng) {
  std::vector<index_t> all(static_cast<std::size_t>(b));
  for (index_t i = 0; i < b; ++i) all[i] = i;
  for (index_t i = 0; i < count; ++i) {
    std::swap(all[i], all[rng.index_in(i, b - 1)]);
  }
  all.resize(static_cast<std::size_t>(count));
  std::sort(all.begin(), all.end());
  return all;
}

// A zeroed b×b panel over copies of `rows` and `cols`, which it owns.
Tile make_panel(index_t b, const std::vector<index_t>& rows,
                const std::vector<index_t>& cols) {
  using Lists = std::pair<std::vector<index_t>, std::vector<index_t>>;
  const auto lists = std::make_shared<const Lists>(rows, cols);
  return Tile(b, b, lists->first, lists->second, lists);
}

// A panel with random entries (about `density` of them nonzero).
Tile random_panel(index_t b, const std::vector<index_t>& rows,
                  const std::vector<index_t>& cols, real_t density, Rng& rng) {
  Tile t = make_panel(b, rows, cols);
  for (offset_t i = 0; i < t.panel_size(); ++i) {
    if (rng.next_real() < density) t.data()[i] = rng.uniform(-1, 1);
  }
  return t;
}

// The panel scattered into a zeroed dense b×b buffer.
std::vector<real_t> to_dense(const Tile& t) {
  const index_t b = t.rows();
  std::vector<real_t> d(static_cast<std::size_t>(b) * t.cols(), 0.0);
  for (index_t q = 0; q < t.panel_cols(); ++q) {
    for (index_t p = 0; p < t.panel_rows(); ++p) {
      d[t.row_idx()[p] + static_cast<std::size_t>(t.col_idx()[q]) * b] =
          t.data()[p + static_cast<std::size_t>(q) * t.ld()];
    }
  }
  return d;
}

// Stored entries of `t` that differ from the dense reference other than in
// the sign of an exact zero.
int stored_mismatches(const Tile& t, const std::vector<real_t>& ref) {
  int bad = 0;
  for (index_t q = 0; q < t.panel_cols(); ++q) {
    for (index_t p = 0; p < t.panel_rows(); ++p) {
      const real_t got = t.data()[p + static_cast<std::size_t>(q) * t.ld()];
      const real_t want =
          ref[t.row_idx()[p] + static_cast<std::size_t>(t.col_idx()[q]) *
                                   t.rows()];
      if (got == 0.0 && want == 0.0) continue;
      bad += std::memcmp(&got, &want, sizeof(real_t)) != 0;
    }
  }
  return bad;
}

struct PackedCase {
  index_t b = 40;
  Tile diag;
  explicit PackedCase(Rng& rng) : diag(dominant_tile(40, rng)) {
    tile_getrf(diag);
  }
};

TEST(PackedKernels, TstrfMatchesDenseReference) {
  Rng rng(61);
  PackedCase pc(rng);
  const index_t b = pc.b;
  const std::vector<index_t> rows = random_list(b, 17, rng);
  const std::vector<index_t> cols = random_list(b, 23, rng);
  // Structural closure of the factors: U(k,j) with k a panel column and j
  // outside the list is a structural zero, so the target's columns
  // outside the list stay zero in the dense solve too.
  Tile diag = pc.diag;
  for (index_t j = 0; j < b; ++j) {
    if (std::binary_search(cols.begin(), cols.end(), j)) continue;
    for (const index_t k : cols) {
      if (k < j) diag.data()[k + static_cast<std::size_t>(j) * b] = 0.0;
    }
  }
  const Tile a = random_panel(b, rows, cols, 0.6, rng);
  std::vector<real_t> ref = to_dense(a);
  trsm_upper_right(b, b, diag.data(), b, ref.data(), b);

  Tile whole = a;
  tile_tstrf(whole, diag);
  EXPECT_EQ(stored_mismatches(whole, ref), 0);
}

TEST(PackedKernels, GeesmMatchesDenseReference) {
  Rng rng(62);
  PackedCase pc(rng);
  const index_t b = pc.b;
  const std::vector<index_t> rows = random_list(b, 19, rng);
  const std::vector<index_t> cols = random_list(b, 13, rng);
  // Closure: L(i,k) with k a panel row and i outside the list is zero.
  Tile diag = pc.diag;
  for (index_t i = 0; i < b; ++i) {
    if (std::binary_search(rows.begin(), rows.end(), i)) continue;
    for (const index_t k : rows) {
      if (k < i) diag.data()[i + static_cast<std::size_t>(k) * b] = 0.0;
    }
  }
  const Tile a = random_panel(b, rows, cols, 0.6, rng);
  std::vector<real_t> ref = to_dense(a);
  trsm_lower_left_unit(b, b, diag.data(), b, ref.data(), b);

  Tile whole = a;
  tile_geesm(whole, diag);
  EXPECT_EQ(stored_mismatches(whole, ref), 0);
}

TEST(PackedKernels, SsssmMatchesDenseReferenceWithDroppedRowsAndColumns) {
  Rng rng(63);
  const index_t b = 40;
  const std::vector<index_t> l_rows = random_list(b, 21, rng);
  const std::vector<index_t> l_cols = random_list(b, 26, rng);
  const std::vector<index_t> u_rows = random_list(b, 24, rng);
  const std::vector<index_t> u_cols = random_list(b, 18, rng);
  const Tile l = random_panel(b, l_rows, l_cols, 0.7, rng);
  const Tile u = random_panel(b, u_rows, u_cols, 0.3, rng);
  for (const bool c_has_all_rows : {true, false}) {
    // C's rows: either a superset of L's (L's rows one gathered subset of
    // C's) or a list that misses some of L's rows, whose products drop.
    std::vector<index_t> c_rows = random_list(b, 25, rng);
    if (c_has_all_rows) {
      c_rows.insert(c_rows.end(), l_rows.begin(), l_rows.end());
      std::sort(c_rows.begin(), c_rows.end());
      c_rows.erase(std::unique(c_rows.begin(), c_rows.end()), c_rows.end());
    }
    const std::vector<index_t> c_cols = random_list(b, 22, rng);
    int l_rows_dropped = 0;
    for (const index_t r : l_rows) {
      l_rows_dropped += !std::binary_search(c_rows.begin(), c_rows.end(), r);
    }
    EXPECT_EQ(l_rows_dropped > 0, !c_has_all_rows);
    const Tile c = random_panel(b, c_rows, c_cols, 1.0, rng);

    std::vector<real_t> ref = to_dense(c);
    const std::vector<real_t> ld = to_dense(l);
    const std::vector<real_t> ud = to_dense(u);
    gemm_minus(b, b, b, ld.data(), b, ud.data(), b, ref.data(), b);

    Tile whole = c;
    tile_ssssm(whole, l, u);
    EXPECT_EQ(stored_mismatches(whole, ref), 0) << c_has_all_rows;
  }
}

TEST(PackedKernels, SsssmMatchesDenseReferenceOnARunOfCsRows) {
  // L's rows are a consecutive run of C's panel rows.
  Rng rng(64);
  const index_t b = 32;
  const std::vector<index_t> c_rows{1, 4, 5, 9, 12, 20, 21, 30};
  const std::vector<index_t> l_rows{4, 5, 9, 12};
  const std::vector<index_t> l_cols = random_list(b, 20, rng);
  const std::vector<index_t> u_rows = random_list(b, 20, rng);
  const std::vector<index_t> u_cols = random_list(b, 11, rng);
  const std::vector<index_t> c_cols = random_list(b, 16, rng);
  const Tile l = random_panel(b, l_rows, l_cols, 1.0, rng);
  const Tile u = random_panel(b, u_rows, u_cols, 0.4, rng);
  const Tile c = random_panel(b, c_rows, c_cols, 1.0, rng);
  std::vector<real_t> ref = to_dense(c);
  const std::vector<real_t> ld = to_dense(l);
  const std::vector<real_t> ud = to_dense(u);
  gemm_minus(b, b, b, ld.data(), b, ud.data(), b, ref.data(), b);
  Tile got = c;
  tile_ssssm(got, l, u);
  EXPECT_EQ(stored_mismatches(got, ref), 0);
}

TEST(PackedKernels, EmptyPanelsAreRejected) {
  // A tile exists only where it holds scalar fill, so a panel always has a
  // row and a column; building one without is a caller bug.
  Rng rng(65);
  const index_t b = 40;
  const std::vector<index_t> none;
  const std::vector<index_t> some = random_list(b, 12, rng);
  EXPECT_THROW(make_panel(b, none, none), Error);
  EXPECT_THROW(make_panel(b, none, some), Error);
  EXPECT_THROW(make_panel(b, some, none), Error);
  EXPECT_EQ(make_panel(b, {7}, {3}).panel_size(), 1);
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
