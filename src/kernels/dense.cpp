#include "kernels/dense.hpp"

#include <cmath>
#include <vector>

#include "kernels/simd.hpp"
#include "support/error.hpp"

namespace th {

namespace {
constexpr real_t kTinyPivot = 1e-300;
}

void getrf_nopiv(index_t n, real_t* a, index_t lda) {
  for (index_t k = 0; k < n; ++k) {
    const real_t pivot = a[k + k * static_cast<offset_t>(lda)];
    TH_CHECK_MSG(std::fabs(pivot) > kTinyPivot,
                 "zero pivot at column " << k << " (matrix not factorisable "
                                            "without pivoting)");
    const real_t inv = 1.0 / pivot;
    simd::scale(n - (k + 1), a + (k + 1) + k * static_cast<offset_t>(lda),
                inv);
    for (index_t j = k + 1; j < n; ++j) {
      const real_t ukj = a[k + j * static_cast<offset_t>(lda)];
      if (ukj == 0.0) continue;
      real_t* colj = a + j * static_cast<offset_t>(lda);
      const real_t* colk = a + k * static_cast<offset_t>(lda);
      simd::axpy_minus(n - (k + 1), colk + (k + 1), ukj, colj + (k + 1));
    }
  }
}

void trsm_lower_left_unit(index_t m, index_t n, const real_t* l, index_t ldl,
                          real_t* b, index_t ldb) {
  for (index_t j = 0; j < n; ++j) {
    real_t* colb = b + j * static_cast<offset_t>(ldb);
    for (index_t k = 0; k < m; ++k) {
      const real_t bk = colb[k];
      if (bk == 0.0) continue;
      const real_t* coll = l + k * static_cast<offset_t>(ldl);
      simd::axpy_minus(m - (k + 1), coll + (k + 1), bk, colb + (k + 1));
    }
  }
}

namespace {

// Portable reference bodies: right-looking, one axpy_minus per nonzero
// coefficient. The AVX2 bodies below give every element the same IEEE
// operations in the same order.
void trsm_upper_right_portable(index_t m, index_t n, const real_t* u,
                               index_t ldu, real_t* b, index_t ldb) {
  for (index_t k = 0; k < n; ++k) {
    const real_t ukk = u[k + k * static_cast<offset_t>(ldu)];
    TH_CHECK_MSG(std::fabs(ukk) > kTinyPivot,
                 "singular U diagonal in trsm_upper_right at " << k);
    const real_t inv = 1.0 / ukk;
    real_t* colk = b + k * static_cast<offset_t>(ldb);
    simd::scale(m, colk, inv);
    for (index_t j = k + 1; j < n; ++j) {
      const real_t ukj = u[k + j * static_cast<offset_t>(ldu)];
      if (ukj == 0.0) continue;
      real_t* colj = b + j * static_cast<offset_t>(ldb);
      simd::axpy_minus(m, colk, ukj, colj);
    }
  }
}

void gemm_minus_indexed_portable(index_t m, index_t n, index_t k,
                                 const real_t* a, index_t lda,
                                 const index_t* a_idx, const real_t* b,
                                 index_t ldb, const index_t* b_idx,
                                 real_t* const* c_cols) {
  for (index_t j = 0; j < n; ++j) {
    if (c_cols[j] == nullptr) continue;
    const real_t* bj = b + j * static_cast<offset_t>(ldb);
    for (index_t q = 0; q < k; ++q) {
      const real_t coef = bj[b_idx != nullptr ? b_idx[q] : q];
      if (coef == 0.0) continue;
      const index_t p = a_idx != nullptr ? a_idx[q] : q;
      simd::axpy_minus(m, a + p * static_cast<offset_t>(lda), coef,
                       c_cols[j]);
    }
  }
}

#if defined(TH_KERNELS_SIMD_AVX2)
// Register-resident bodies. A target column's nonzero coefficients are
// gathered, in ascending source order, into a fixed stack list; each row
// block of the column is then loaded once, receives one mul and one sub
// per list entry, and is stored once. A longer list is folded in chunks,
// which keeps the order.
constexpr index_t kFoldChunk = 64;

struct FoldList {
  const real_t* col[kFoldChunk];
  real_t coef[kFoldChunk];
  index_t len = 0;
};

// c[i] = (...((c[i] - x_0[i]*a_0) - x_1[i]*a_1) ...) for i in [0, m).
__attribute__((target("avx2"))) void fold_minus_avx2(index_t m,
                                                     const FoldList& f,
                                                     real_t* c) {
  if (f.len == 0) return;
  index_t i = 0;
  for (; i + 16 <= m; i += 16) {
    __m256d c0 = _mm256_loadu_pd(c + i);
    __m256d c1 = _mm256_loadu_pd(c + i + 4);
    __m256d c2 = _mm256_loadu_pd(c + i + 8);
    __m256d c3 = _mm256_loadu_pd(c + i + 12);
    for (index_t q = 0; q < f.len; ++q) {
      const real_t* x = f.col[q] + i;
      const __m256d a = _mm256_set1_pd(f.coef[q]);
      c0 = _mm256_sub_pd(c0, _mm256_mul_pd(_mm256_loadu_pd(x), a));
      c1 = _mm256_sub_pd(c1, _mm256_mul_pd(_mm256_loadu_pd(x + 4), a));
      c2 = _mm256_sub_pd(c2, _mm256_mul_pd(_mm256_loadu_pd(x + 8), a));
      c3 = _mm256_sub_pd(c3, _mm256_mul_pd(_mm256_loadu_pd(x + 12), a));
    }
    _mm256_storeu_pd(c + i, c0);
    _mm256_storeu_pd(c + i + 4, c1);
    _mm256_storeu_pd(c + i + 8, c2);
    _mm256_storeu_pd(c + i + 12, c3);
  }
  for (; i + 4 <= m; i += 4) {
    __m256d c0 = _mm256_loadu_pd(c + i);
    for (index_t q = 0; q < f.len; ++q) {
      const __m256d a = _mm256_set1_pd(f.coef[q]);
      c0 = _mm256_sub_pd(c0, _mm256_mul_pd(_mm256_loadu_pd(f.col[q] + i), a));
    }
    _mm256_storeu_pd(c + i, c0);
  }
  for (; i < m; ++i) {
    real_t acc = c[i];
    for (index_t q = 0; q < f.len; ++q) {
      const real_t p = f.col[q][i] * f.coef[q];
      acc = acc - p;
    }
    c[i] = acc;
  }
}

// c -= sum over p in [0, len) with coef[p] != 0.0, ascending, of
// src(:,p) * coef[p], where src(:,p) = src + p*ld. The zero test runs four
// coefficients per compare (NEQ_UQ keeps NaN, drops +-0.0, as != does).
__attribute__((target("avx2"))) void gather_fold_minus_avx2(
    index_t m, const real_t* coef, index_t len, const real_t* src,
    index_t ld, real_t* c) {
  FoldList f;
  auto push = [&](index_t p) {
    f.col[f.len] = src + p * static_cast<offset_t>(ld);
    f.coef[f.len] = coef[p];
    if (++f.len == kFoldChunk) {
      fold_minus_avx2(m, f, c);
      f.len = 0;
    }
  };
  const __m256d zero = _mm256_setzero_pd();
  index_t p = 0;
  for (; p + 4 <= len; p += 4) {
    unsigned mask = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(coef + p), zero, _CMP_NEQ_UQ)));
    while (mask != 0) {
      push(p + __builtin_ctz(mask));
      mask &= mask - 1;
    }
  }
  for (; p < len; ++p) {
    if (coef[p] != 0.0) push(p);
  }
  fold_minus_avx2(m, f, c);
}

// Left-looking: column j folds in every final column k < j with
// U(k,j) != 0, then is scaled by 1/U(j,j).
__attribute__((target("avx2"))) void trsm_upper_right_avx2(
    index_t m, index_t n, const real_t* u, index_t ldu, real_t* b,
    index_t ldb) {
  for (index_t j = 0; j < n; ++j) {
    const real_t* ucol = u + j * static_cast<offset_t>(ldu);
    const real_t ujj = ucol[j];
    TH_CHECK_MSG(std::fabs(ujj) > kTinyPivot,
                 "singular U diagonal in trsm_upper_right at " << j);
    real_t* colj = b + j * static_cast<offset_t>(ldb);
    gather_fold_minus_avx2(m, ucol, j, b, ldb, colj);
    simd::detail::scale_avx2(m, colj, 1.0 / ujj);
  }
}

// The indexed form of gather_fold_minus_avx2: coefficient q is
// b[b_idx[q]] and multiplies A's column a_idx[q]. The zero test still runs
// four coefficients per compare, on a hardware gather of them.
__attribute__((target("avx2"))) void gather_fold_minus_indexed_avx2(
    index_t m, const real_t* b, const index_t* b_idx, index_t k,
    const real_t* a, index_t lda, const index_t* a_idx, real_t* c) {
  FoldList f;
  auto push = [&](index_t q) {
    f.col[f.len] = a + a_idx[q] * static_cast<offset_t>(lda);
    f.coef[f.len] = b[b_idx[q]];
    if (++f.len == kFoldChunk) {
      fold_minus_avx2(m, f, c);
      f.len = 0;
    }
  };
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  index_t q = 0;
  for (; q + 4 <= k; q += 4) {
    const __m256d v = _mm256_mask_i32gather_pd(
        zero, b, _mm_loadu_si128(reinterpret_cast<const __m128i*>(b_idx + q)),
        all, 8);
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_NEQ_UQ)));
    while (mask != 0) {
      push(q + __builtin_ctz(mask));
      mask &= mask - 1;
    }
  }
  for (; q < k; ++q) {
    if (b[b_idx[q]] != 0.0) push(q);
  }
  fold_minus_avx2(m, f, c);
}

__attribute__((target("avx2"))) void gemm_minus_indexed_avx2(
    index_t m, index_t n, index_t k, const real_t* a, index_t lda,
    const index_t* a_idx, const real_t* b, index_t ldb, const index_t* b_idx,
    real_t* const* c_cols) {
  for (index_t j = 0; j < n; ++j) {
    if (c_cols[j] == nullptr) continue;
    const real_t* bj = b + j * static_cast<offset_t>(ldb);
    if (a_idx == nullptr && b_idx == nullptr) {
      gather_fold_minus_avx2(m, bj, k, a, lda, c_cols[j]);
    } else {
      gather_fold_minus_indexed_avx2(m, bj, b_idx, k, a, lda, a_idx,
                                     c_cols[j]);
    }
  }
}
#endif  // TH_KERNELS_SIMD_AVX2

}  // namespace

void trsm_upper_right(index_t m, index_t n, const real_t* u, index_t ldu,
                      real_t* b, index_t ldb) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (simd::avx2_active()) {
    trsm_upper_right_avx2(m, n, u, ldu, b, ldb);
    return;
  }
#endif
  trsm_upper_right_portable(m, n, u, ldu, b, ldb);
}

void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc) {
  thread_local std::vector<real_t*> cols;
  cols.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) cols[j] = c + j * static_cast<offset_t>(ldc);
  gemm_minus_indexed(m, n, k, a, lda, nullptr, b, ldb, nullptr, cols.data());
}

void gemm_minus_indexed(index_t m, index_t n, index_t k, const real_t* a,
                        index_t lda, const index_t* a_idx, const real_t* b,
                        index_t ldb, const index_t* b_idx,
                        real_t* const* c_cols) {
  TH_CHECK((a_idx == nullptr) == (b_idx == nullptr));
#if defined(TH_KERNELS_SIMD_AVX2)
  if (simd::avx2_active()) {
    gemm_minus_indexed_avx2(m, n, k, a, lda, a_idx, b, ldb, b_idx, c_cols);
    return;
  }
#endif
  gemm_minus_indexed_portable(m, n, k, a, lda, a_idx, b, ldb, b_idx, c_cols);
}

}  // namespace th
