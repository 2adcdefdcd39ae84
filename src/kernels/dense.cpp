#include "kernels/dense.hpp"

#include <algorithm>
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

namespace {

// Right-looking: one axpy_minus per nonzero coefficient.
void trsm_lower_left_unit_portable(index_t m, index_t n, const real_t* l,
                                   index_t ldl, real_t* b, index_t ldb) {
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

// Portable reference bodies: right-looking, one axpy_minus per nonzero
// coefficient. The AVX2 and AVX-512 bodies below give every element the
// same IEEE operations in the same order.
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

// Runs fold(j, col) on every target column j, where col holds C's rows
// in A's row order: C's column itself under the identity row map, else a
// gathered copy (0.0 where C lacks the row) that is scattered back after.
template <typename Fold>
void gather_fold_scatter(index_t m, index_t n, const index_t* c_rows,
                         real_t* const* c_cols, Fold&& fold) {
  thread_local std::vector<real_t> tmp;
  if (c_rows != nullptr && tmp.size() < static_cast<std::size_t>(m)) {
    tmp.resize(static_cast<std::size_t>(m));
  }
  for (index_t j = 0; j < n; ++j) {
    real_t* c = c_cols[j];
    if (c == nullptr) continue;
    if (c_rows == nullptr) {
      fold(j, c);
      continue;
    }
    for (index_t i = 0; i < m; ++i) {
      tmp[i] = c_rows[i] >= 0 ? c[c_rows[i]] : 0.0;
    }
    fold(j, tmp.data());
    for (index_t i = 0; i < m; ++i) {
      if (c_rows[i] >= 0) c[c_rows[i]] = tmp[i];
    }
  }
}

void gemm_minus_indexed_portable(index_t m, index_t n, index_t k,
                                 const real_t* a, index_t lda,
                                 const index_t* a_idx, const real_t* b,
                                 index_t ldb, const index_t* b_idx,
                                 const index_t* c_rows,
                                 real_t* const* c_cols) {
  gather_fold_scatter(m, n, c_rows, c_cols, [&](index_t j, real_t* c) {
    const real_t* bj = b + j * static_cast<offset_t>(ldb);
    for (index_t q = 0; q < k; ++q) {
      const real_t coef = bj[b_idx != nullptr ? b_idx[q] : q];
      if (coef == 0.0) continue;
      const index_t p = a_idx != nullptr ? a_idx[q] : q;
      simd::axpy_minus(m, a + p * static_cast<offset_t>(lda), coef, c);
    }
  });
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

void gemm_minus_indexed_avx2(index_t m, index_t n, index_t k,
                             const real_t* a, index_t lda,
                             const index_t* a_idx, const real_t* b,
                             index_t ldb, const index_t* b_idx,
                             const index_t* c_rows, real_t* const* c_cols) {
  gather_fold_scatter(m, n, c_rows, c_cols, [&](index_t j, real_t* c) {
    const real_t* bj = b + j * static_cast<offset_t>(ldb);
    if (a_idx == nullptr) {
      gather_fold_minus_avx2(m, bj, k, a, lda, c);
    } else {
      gather_fold_minus_indexed_avx2(m, bj, b_idx, k, a, lda, a_idx, c);
    }
  });
}

// The fused AVX-512 SSSSM body. A's rows run in blocks of up to 64, and
// each block folds two target columns at a time in 2 x ceil(rows/8) zmm
// accumulators (one column when a single one is left):
//
//   - C's rows are read straight from its columns: a masked gather through
//     the row map (masked loads under the identity), with lanes past m or
//     mapped to -1 masked off, and written back the same way after the
//     fold. There is no scratch copy;
//   - each inner index q loads A's column once for both targets and
//     applies acc = acc - x*u under the lane mask (u != 0.0): a masked lane
//     keeps acc's bits exactly, so the result equals skipping the term,
//     and a NaN coefficient counts as nonzero, as with != 0.0. An index
//     whose coefficients are both zero is skipped.
constexpr index_t kRowBlock = 64;

// One row block of one call.
struct RowBlock {
  index_t k;
  const real_t* a;  // A's first row of the block
  index_t lda;
  const index_t* a_idx;
  const index_t* b_idx;
  const index_t* rows;  // the block's row map, or null for the identity
  index_t i0;           // the block's first row
  __mmask8 tail;        // lanes of the last vector inside m
};

// The v loops are unrolled before scalar replacement (GCC unroll pragma),
// so the accumulator arrays live in registers. The masked subtract is a
// mask_mov over a plain sub rather than _mm512_mask_sub_pd: GCC fuses the
// plain form into an FMA unless -ffp-contract=off, so the contract tests
// fail when the flag is missing instead of passing by luck.
template <int NV, bool kPair>
__attribute__((target("avx512f,avx512vl"))) void fold_block_avx512(
    const RowBlock& blk, const real_t* b0, const real_t* b1, real_t* c0,
    real_t* c1) {
  const index_t k = blk.k;
  const real_t* const a = blk.a;
  const offset_t lda = blk.lda;
  const index_t* const a_idx = blk.a_idx;
  const index_t* const b_idx = blk.b_idx;
  const index_t* const rows = blk.rows;
  __m512d acc0[NV], acc1[NV];
  __m256i idx[NV];
  __mmask8 in[NV], live[NV];
  // in: lanes inside m. live and idx start as the identity's and are
  // replaced below under a row map.
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    in[v] = live[v] = v == NV - 1 ? blk.tail : static_cast<__mmask8>(0xFF);
    idx[v] = _mm256_setzero_si256();
  }
  if (rows != nullptr) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      idx[v] = _mm256_maskz_loadu_epi32(in[v], rows + 8 * v);
      live[v] = _mm256_mask_cmpge_epi32_mask(in[v], idx[v],
                                             _mm256_setzero_si256());
      acc0[v] = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), live[v],
                                         idx[v], c0, 8);
      if (kPair) {
        acc1[v] = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), live[v],
                                           idx[v], c1, 8);
      }
    }
  } else {
    c0 += blk.i0;
    c1 += kPair ? blk.i0 : 0;
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc0[v] = _mm512_maskz_loadu_pd(in[v], c0 + 8 * v);
      if (kPair) acc1[v] = _mm512_maskz_loadu_pd(in[v], c1 + 8 * v);
    }
  }
  const __m512d zero = _mm512_setzero_pd();
  for (index_t q = 0; q < k; ++q) {
    const index_t bq = b_idx != nullptr ? b_idx[q] : q;
    // NEQ_UQ keeps NaN and drops +-0.0, as != 0.0 does.
    const __m512d vu0 = _mm512_set1_pd(b0[bq]);
    const __m512d vu1 = kPair ? _mm512_set1_pd(b1[bq]) : zero;
    const __mmask8 k0 = _mm512_cmp_pd_mask(vu0, zero, _CMP_NEQ_UQ);
    const __mmask8 k1 = _mm512_cmp_pd_mask(vu1, zero, _CMP_NEQ_UQ);
    if ((k0 | k1) == 0) continue;
    const real_t* x = a + (a_idx != nullptr ? a_idx[q] : q) * lda;
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      const __m512d xv = _mm512_maskz_loadu_pd(in[v], x + 8 * v);
      acc0[v] = _mm512_mask_mov_pd(
          acc0[v], k0, _mm512_sub_pd(acc0[v], _mm512_mul_pd(xv, vu0)));
      if (kPair) {
        acc1[v] = _mm512_mask_mov_pd(
            acc1[v], k1, _mm512_sub_pd(acc1[v], _mm512_mul_pd(xv, vu1)));
      }
    }
  }
  if (rows != nullptr) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_i32scatter_pd(c0, live[v], idx[v], acc0[v], 8);
      if (kPair) _mm512_mask_i32scatter_pd(c1, live[v], idx[v], acc1[v], 8);
    }
  } else {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      _mm512_mask_storeu_pd(c0 + 8 * v, in[v], acc0[v]);
      if (kPair) _mm512_mask_storeu_pd(c1 + 8 * v, in[v], acc1[v]);
    }
  }
}

// fold_block_avx512 with its vector count NV = ceil(rows / 8) in [1, 8].
template <bool kPair>
__attribute__((target("avx512f,avx512vl"))) void fold_rows_avx512(
    int nv, const RowBlock& blk, const real_t* b0, const real_t* b1,
    real_t* c0, real_t* c1) {
  switch (nv) {
    case 1: return fold_block_avx512<1, kPair>(blk, b0, b1, c0, c1);
    case 2: return fold_block_avx512<2, kPair>(blk, b0, b1, c0, c1);
    case 3: return fold_block_avx512<3, kPair>(blk, b0, b1, c0, c1);
    case 4: return fold_block_avx512<4, kPair>(blk, b0, b1, c0, c1);
    case 5: return fold_block_avx512<5, kPair>(blk, b0, b1, c0, c1);
    case 6: return fold_block_avx512<6, kPair>(blk, b0, b1, c0, c1);
    case 7: return fold_block_avx512<7, kPair>(blk, b0, b1, c0, c1);
    default: return fold_block_avx512<8, kPair>(blk, b0, b1, c0, c1);
  }
}

__attribute__((target("avx512f,avx512vl"))) void gemm_minus_indexed_avx512(
    index_t m, index_t n, index_t k, const real_t* a, index_t lda,
    const index_t* a_idx, const real_t* b, index_t ldb, const index_t* b_idx,
    const index_t* c_rows, real_t* const* c_cols) {
  for (index_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const index_t rows = std::min(kRowBlock, m - i0);
    const int nv = static_cast<int>((rows + 7) / 8);
    const RowBlock blk{k,
                       a + i0,
                       lda,
                       a_idx,
                       b_idx,
                       c_rows != nullptr ? c_rows + i0 : nullptr,
                       i0,
                       static_cast<__mmask8>(0xFFu >> (8 * nv - rows))};
    // Live target columns, two at a time.
    for (index_t j = 0;;) {
      while (j < n && c_cols[j] == nullptr) ++j;
      if (j == n) break;
      const index_t j0 = j++;
      while (j < n && c_cols[j] == nullptr) ++j;
      const real_t* b0 = b + j0 * static_cast<offset_t>(ldb);
      if (j == n) {
        fold_rows_avx512<false>(nv, blk, b0, nullptr, c_cols[j0], nullptr);
        break;
      }
      const index_t j1 = j++;
      fold_rows_avx512<true>(nv, blk, b0, b + j1 * static_cast<offset_t>(ldb),
                             c_cols[j0], c_cols[j1]);
    }
  }
}

// trsm_upper_right's AVX-512 body: the AVX2 body's left-looking order,
// each column folded by the SSSSM row-block body (identity lists, one
// target column), then scaled.
__attribute__((target("avx512f,avx512vl"))) void trsm_upper_right_avx512(
    index_t m, index_t n, const real_t* u, index_t ldu, real_t* b,
    index_t ldb) {
  for (index_t j = 0; j < n; ++j) {
    const real_t* ucol = u + j * static_cast<offset_t>(ldu);
    const real_t ujj = ucol[j];
    TH_CHECK_MSG(std::fabs(ujj) > kTinyPivot,
                 "singular U diagonal in trsm_upper_right at " << j);
    real_t* colj = b + j * static_cast<offset_t>(ldb);
    for (index_t i0 = 0; i0 < m; i0 += kRowBlock) {
      const index_t rows = std::min(kRowBlock, m - i0);
      const int nv = static_cast<int>((rows + 7) / 8);
      const RowBlock blk{j,       b + i0, ldb, nullptr, nullptr, nullptr, i0,
                         static_cast<__mmask8>(0xFFu >> (8 * nv - rows))};
      fold_rows_avx512<false>(nv, blk, ucol, nullptr, colj, nullptr);
    }
    simd::detail::scale_avx2(m, colj, 1.0 / ujj);
  }
}

// The forward substitution on RHS-interleaved groups. Rows run in blocks,
// left-looking: a block's lanes stay in registers while the final rows
// c < i0 are applied, then the in-block triangle. Each element still takes
// its terms in ascending c from final x[c], so it equals the portable
// right-looking sweep bit for bit. A zero x[c] is masked per lane
// (NEQ_UQ drops +-0.0 and keeps NaN, as != 0.0 does), and a masked step is
// mask_mov over a plain subtract, as in the SSSSM body.
template <int NR>
__attribute__((target("avx512f,avx512vl"))) void forward_rows_avx512(
    const real_t* l, offset_t ldl, index_t i0, real_t* x) {
  constexpr index_t kL = kGroupLanes;
  const __m512d zero = _mm512_setzero_pd();
  __m512d acc[NR];
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) acc[j] = _mm512_loadu_pd(x + (i0 + j) * kL);
  for (index_t c = 0; c < i0; ++c) {
    const __m512d v = _mm512_loadu_pd(x + c * kL);
    const __mmask8 nz = _mm512_cmp_pd_mask(v, zero, _CMP_NEQ_UQ);
    if (nz == 0) continue;
    const real_t* lc = l + c * ldl + i0;
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
      const __m512d prod = _mm512_mul_pd(_mm512_set1_pd(lc[j]), v);
      acc[j] = _mm512_mask_mov_pd(acc[j], nz, _mm512_sub_pd(acc[j], prod));
    }
  }
#pragma GCC unroll 16
  for (int c = 0; c < NR; ++c) {
    const __mmask8 nz = _mm512_cmp_pd_mask(acc[c], zero, _CMP_NEQ_UQ);
    const real_t* lc = l + (i0 + c) * ldl + i0;
#pragma GCC unroll 16
    for (int j = c + 1; j < NR; ++j) {
      const __m512d prod = _mm512_mul_pd(_mm512_set1_pd(lc[j]), acc[c]);
      acc[j] = _mm512_mask_mov_pd(acc[j], nz, _mm512_sub_pd(acc[j], prod));
    }
  }
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) _mm512_storeu_pd(x + (i0 + j) * kL, acc[j]);
}

// trsm_lower_left_unit on groups of kGroupLanes columns of B, each through
// an interleaved copy whose lanes past n hold zero.
void trsm_lower_left_unit_avx512(index_t m, index_t n, const real_t* l,
                                 index_t ldl, real_t* b, index_t ldb) {
  constexpr index_t kL = kGroupLanes;
  thread_local std::vector<real_t> buf;
  if (buf.size() < static_cast<std::size_t>(m) * kL) {
    buf.resize(static_cast<std::size_t>(m) * kL);
  }
  real_t* x = buf.data();
  for (index_t j0 = 0; j0 < n; j0 += kL) {
    const index_t lanes = std::min(kL, n - j0);
    real_t* b0 = b + j0 * static_cast<offset_t>(ldb);
    for (index_t i = 0; i < m; ++i) {
      for (index_t r = 0; r < kL; ++r) {
        x[i * kL + r] = r < lanes ? b0[i + r * static_cast<offset_t>(ldb)]
                                  : 0.0;
      }
    }
    forward_group_avx512(m, l, ldl, x);
    for (index_t i = 0; i < m; ++i) {
      for (index_t r = 0; r < lanes; ++r) {
        b0[i + r * static_cast<offset_t>(ldb)] = x[i * kL + r];
      }
    }
  }
}
#endif  // TH_KERNELS_SIMD_AVX2

}  // namespace

#if defined(TH_KERNELS_SIMD_AVX2)
void forward_group_avx512(index_t m, const real_t* l, index_t ldl,
                          real_t* x) {
  for_row_blocks(m, [&](auto nr, index_t i) {
    forward_rows_avx512<decltype(nr)::value>(l, ldl, i, x);
  });
}
#endif

void trsm_lower_left_unit(index_t m, index_t n, const real_t* l, index_t ldl,
                          real_t* b, index_t ldb) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (simd::avx512_active()) {
    trsm_lower_left_unit_avx512(m, n, l, ldl, b, ldb);
    return;
  }
#endif
  trsm_lower_left_unit_portable(m, n, l, ldl, b, ldb);
}

void trsm_upper_right(index_t m, index_t n, const real_t* u, index_t ldu,
                      real_t* b, index_t ldb) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (simd::avx512_active()) {
    trsm_upper_right_avx512(m, n, u, ldu, b, ldb);
    return;
  }
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
  gemm_minus_indexed(m, n, k, a, lda, nullptr, b, ldb, nullptr, nullptr,
                     cols.data());
}

void gemm_minus_indexed(index_t m, index_t n, index_t k, const real_t* a,
                        index_t lda, const index_t* a_idx, const real_t* b,
                        index_t ldb, const index_t* b_idx,
                        const index_t* c_rows, real_t* const* c_cols) {
  TH_CHECK((a_idx == nullptr) == (b_idx == nullptr));
#if defined(TH_KERNELS_SIMD_AVX2)
  if (simd::avx512_active()) {
    gemm_minus_indexed_avx512(m, n, k, a, lda, a_idx, b, ldb, b_idx, c_rows,
                              c_cols);
    return;
  }
  if (simd::avx2_active()) {
    gemm_minus_indexed_avx2(m, n, k, a, lda, a_idx, b, ldb, b_idx, c_rows,
                            c_cols);
    return;
  }
#endif
  gemm_minus_indexed_portable(m, n, k, a, lda, a_idx, b, ldb, b_idx, c_rows,
                              c_cols);
}

}  // namespace th
