#include "kernels/dense.hpp"

#include <cmath>

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

void trsm_upper_right(index_t m, index_t n, const real_t* u, index_t ldu,
                      real_t* b, index_t ldb) {
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

void gemm_minus(index_t m, index_t n, index_t k, const real_t* a, index_t lda,
                const real_t* b, index_t ldb, real_t* c, index_t ldc) {
  for (index_t j = 0; j < n; ++j) {
    real_t* colc = c + j * static_cast<offset_t>(ldc);
    for (index_t p = 0; p < k; ++p) {
      const real_t bpj = b[p + j * static_cast<offset_t>(ldb)];
      if (bpj == 0.0) continue;
      const real_t* cola = a + p * static_cast<offset_t>(lda);
      simd::axpy_minus(m, cola, bpj, colc);
    }
  }
}

}  // namespace th
