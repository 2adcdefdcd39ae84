// SIMD inner loops for the dense microkernels (kernels/dense.cpp).
//
// The four task-type bodies (GETRF / TSTRF / GEESM / SSSSM) spend nearly
// all their time in two contiguous column-major loops:
//
//   axpy_minus: y[i] -= x[i] * alpha   (the rank-1 update / Schur inner loop)
//   scale:      x[i] *= alpha          (the pivot / diagonal scaling loop)
//
// Both are vectorised on a dual path with runtime dispatch, mirroring the
// CRC32C idiom in support/binio.hpp:
//
//   - an AVX2 intrinsic path compiled with a per-function target attribute
//     (no -mavx2 on the whole build), selected at runtime via
//     __builtin_cpu_supports("avx2");
//   - a portable path that leans on `#pragma omp simd` when the build has
//     -fopenmp-simd (kernels/CMakeLists.txt probes for it and defines
//     TH_OMP_SIMD), plain scalar otherwise.
//
// Bit-exactness contract (factor identity depends on it): every path
// computes each element as one IEEE-754 multiply followed by one subtract.
// Two things guarantee that, and nothing else does:
//
//   - no FMA-capable target: the AVX2 functions are target("avx2") only
//     (no "fma", no avx512f), and the default build sets no -march;
//   - -ffp-contract=off on every TU (src/CMakeLists.txt and the root
//     CMakeLists.txt). GCC's C++ default is -ffp-contract=fast, which
//     fuses a * b and a later subtract into an FMA across statements and
//     across _mm256_mul_pd/_mm256_sub_pd whenever the target has one
//     (e.g. -march=native); splitting the product into its own statement
//     does not stop it.
//
// All paths therefore produce bitwise-identical results, and the runtime
// dispatch never changes numerics — only throughput. DESIGN.md §17 carries
// the dispatch table.
#pragma once

#include "support/types.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define TH_KERNELS_SIMD_AVX2 1
#include <immintrin.h>
#endif

#if defined(TH_OMP_SIMD) || defined(_OPENMP)
#define TH_PRAGMA_SIMD _Pragma("omp simd")
#else
#define TH_PRAGMA_SIMD
#endif

namespace th::simd {

namespace detail {

inline void axpy_minus_portable(index_t n, const real_t* x, real_t alpha,
                                real_t* y) {
  TH_PRAGMA_SIMD
  for (index_t i = 0; i < n; ++i) {
    const real_t p = x[i] * alpha;
    y[i] = y[i] - p;
  }
}

inline void scale_portable(index_t n, real_t* x, real_t alpha) {
  TH_PRAGMA_SIMD
  for (index_t i = 0; i < n; ++i) {
    x[i] = x[i] * alpha;
  }
}

#if defined(TH_KERNELS_SIMD_AVX2)
__attribute__((target("avx2"))) inline void axpy_minus_avx2(index_t n,
                                                            const real_t* x,
                                                            real_t alpha,
                                                            real_t* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    // mul then sub, not vfnmadd: bitwise identical to the portable path.
    _mm256_storeu_pd(y + i, _mm256_sub_pd(vy, _mm256_mul_pd(vx, va)));
  }
  for (; i < n; ++i) {
    const real_t p = x[i] * alpha;
    y[i] = y[i] - p;
  }
}

__attribute__((target("avx2"))) inline void scale_avx2(index_t n, real_t* x,
                                                       real_t alpha) {
  const __m256d va = _mm256_set1_pd(alpha);
  index_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) {
    x[i] = x[i] * alpha;
  }
}
#endif  // TH_KERNELS_SIMD_AVX2

}  // namespace detail

/// Whether the runtime dispatch resolved to the AVX2 intrinsic path on
/// this machine (build-time capable AND the CPU reports avx2).
inline bool avx2_active() {
#if defined(TH_KERNELS_SIMD_AVX2)
  static const bool hw = __builtin_cpu_supports("avx2") != 0;
  return hw;
#else
  return false;
#endif
}

/// Human-readable name of the active path, for bench banners and the obs
/// dispatch table: "avx2", "portable+omp-simd", or "portable".
inline const char* dispatch_name() {
  if (avx2_active()) return "avx2";
#if defined(TH_OMP_SIMD) || defined(_OPENMP)
  return "portable+omp-simd";
#else
  return "portable";
#endif
}

/// y[i] -= x[i] * alpha for i in [0, n). x and y must not alias.
inline void axpy_minus(index_t n, const real_t* x, real_t alpha, real_t* y) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (avx2_active()) {
    detail::axpy_minus_avx2(n, x, alpha, y);
    return;
  }
#endif
  detail::axpy_minus_portable(n, x, alpha, y);
}

/// x[i] *= alpha for i in [0, n).
inline void scale(index_t n, real_t* x, real_t alpha) {
#if defined(TH_KERNELS_SIMD_AVX2)
  if (avx2_active()) {
    detail::scale_avx2(n, x, alpha);
    return;
  }
#endif
  detail::scale_portable(n, x, alpha);
}

}  // namespace th::simd
