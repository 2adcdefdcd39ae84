// Dense microkernels on column-major buffers. These are the numeric bodies
// of the four Executor task types (GETRF / TSTRF / GEESM / SSSSM);
// kernels/tile.hpp wraps them as tile-level task bodies.
//
// Bitwise contract: each output element receives one IEEE multiply and one
// subtract per nonzero coefficient, in ascending coefficient index, so
// every dispatch path (kernels/simd.hpp) rounds identically. DESIGN.md §17
// has the kernel forms.
//
// No pivoting anywhere: generated systems are diagonally dominant
// (DESIGN.md §7). A zero/tiny pivot throws th::Error rather than silently
// producing NaNs.
#pragma once

#include <type_traits>

#include "kernels/simd.hpp"
#include "support/types.hpp"

namespace th {

/// In-place unblocked LU without pivoting: A = L*U with unit-diagonal L
/// stored below the diagonal. A is n x n column-major with leading
/// dimension lda. Throws on |pivot| < tiny.
void getrf_nopiv(index_t n, real_t* a, index_t lda);

/// B := L^{-1} * B, where L is m x m unit lower triangular (diagonal not
/// read), B is m x n. Used by GEESM: U(k,j) = L(k,k)^{-1} A(k,j). On an
/// AVX-512 path it runs forward_group_avx512 on groups of kGroupLanes
/// columns.
void trsm_lower_left_unit(index_t m, index_t n, const real_t* l, index_t ldl,
                          real_t* b, index_t ldb);

/// Runs block(nr, i) over rows [0, m): blocks of nr = 16 rows, then at
/// most one block each of 8, 4, 2 and 1 rows, nr a std::integral_constant.
/// The row blocking of the register-resident group bodies.
template <class Block>
void for_row_blocks(index_t m, Block&& block) {
  index_t i = 0;
  for (; i + 16 <= m; i += 16) block(std::integral_constant<int, 16>{}, i);
  const auto tail = [&](auto nr) {
    if (m - i >= nr) {
      block(nr, i);
      i += nr;
    }
  };
  tail(std::integral_constant<int, 8>{});
  tail(std::integral_constant<int, 4>{});
  tail(std::integral_constant<int, 2>{});
  tail(std::integral_constant<int, 1>{});
}

#if defined(TH_KERNELS_SIMD_AVX2)
/// Right-hand sides per RHS-interleaved group: one zmm register of doubles.
constexpr index_t kGroupLanes = 8;

/// x := L^{-1} x for kGroupLanes right-hand sides held RHS-interleaved
/// (x[i * kGroupLanes + r] is row i of side r), L m x m unit lower
/// triangular with leading dimension ldl (strictly lower part read). Each
/// lane gets trsm_lower_left_unit's portable operation sequence: a
/// multiply, then a subtract, terms in ascending k, a zero x[k] skipped.
/// The GEESM body and the block solve's forward substitution
/// (solvers/trisolve.cpp). Call it only while simd::avx512_active().
void forward_group_avx512(index_t m, const real_t* l, index_t ldl,
                          real_t* x);
#endif

/// B := B * U^{-1}, where U is n x n upper triangular (non-unit diagonal),
/// B is m x n. Used by TSTRF: L(i,k) = A(i,k) U(k,k)^{-1}. Rows are
/// independent. Throws on the first |U(j,j)| < tiny, leaving B partly
/// solved.
void trsm_upper_right(index_t m, index_t n, const real_t* u, index_t ldu,
                      real_t* b, index_t ldb);

/// C := C - A * B (m x k times k x n), skipping terms with B(p,j) == 0.
/// SLU's supernodal update: gemm_minus_indexed over C's columns with the
/// identity inner lists. C must not overlap A or B.
void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc);

/// The SSSSM body on envelope panels: for each j in [0, n) with c_cols[j]
/// non-null and each i in [0, m) with c_rows[i] >= 0,
/// c_cols[j][c_rows[i]] -= sum over q in [0, k), ascending, of
/// A(i, a_idx[q]) * B(b_idx[q], j), skipping terms with
/// B(b_idx[q], j) == 0. A and B are column-major (leading dimensions lda,
/// ldb). The inner lists select the indices both panels hold; both null
/// means the identity (gemm_minus). c_rows maps A's rows to rows of C's
/// columns (-1: C lacks the row, its product is dropped); null means the
/// identity. c_cols are C's target columns, which must not overlap A or B.
void gemm_minus_indexed(index_t m, index_t n, index_t k, const real_t* a,
                        index_t lda, const index_t* a_idx, const real_t* b,
                        index_t ldb, const index_t* b_idx,
                        const index_t* c_rows, real_t* const* c_cols);

}  // namespace th
