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
// SSSSM additionally has a fused AVX-512 body (kernels/dense.cpp,
// target("avx512f,avx512vl")), selected when the CPU reports both.
//
// Bit-exactness contract (factor identity depends on it): every path
// computes each element as one IEEE-754 multiply followed by one subtract.
// The AVX-512 target has FMA, so one thing guarantees that: -ffp-contract=off
// on every TU (src/CMakeLists.txt and the root CMakeLists.txt). GCC's C++
// default is -ffp-contract=fast, which fuses a * b and a later subtract
// into an FMA across statements and across _mm*_mul_pd/_mm*_sub_pd
// whenever the target has one (the AVX-512 body always, every body under
// -march=native); splitting the product into its own statement does not
// stop it. KernelContract.NoFmaContraction runs a sentinel through every
// body that would round differently if fused.
//
// All paths therefore produce bitwise-identical results, and the runtime
// dispatch never changes numerics — only throughput. DESIGN.md §17 carries
// the dispatch table.
#pragma once

#include <algorithm>
#include <atomic>

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

/// A kernel dispatch path, in increasing capability. kAvx512 runs the
/// fused SSSSM body (kernels/dense.cpp) and the AVX2 bodies elsewhere.
enum class Isa : int { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

namespace detail {

// The best path this build and CPU support, probed once.
inline Isa hw_isa() {
#if defined(TH_KERNELS_SIMD_AVX2)
  static const Isa hw = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512vl")
                            ? Isa::kAvx512
                        : __builtin_cpu_supports("avx2") ? Isa::kAvx2
                                                         : Isa::kPortable;
  return hw;
#else
  return Isa::kPortable;
#endif
}

inline std::atomic<Isa>& isa_cap() {
  static std::atomic<Isa> cap{Isa::kAvx512};
  return cap;
}

}  // namespace detail

/// The path every kernel dispatches to: the best this build and CPU
/// support, lowered to the cap_isa() cap.
inline Isa active_isa() {
  return std::min(detail::hw_isa(),
                  detail::isa_cap().load(std::memory_order_relaxed));
}

/// Caps the dispatch at `cap` process-wide and returns the previous cap,
/// so one machine can run, and tests can compare, every body it supports.
/// Call it only while no kernel runs; the paths round identically, so it
/// never changes a result.
inline Isa cap_isa(Isa cap) {
  return detail::isa_cap().exchange(cap, std::memory_order_relaxed);
}

/// Whether the primitives below dispatch to their AVX2 bodies.
inline bool avx2_active() { return active_isa() >= Isa::kAvx2; }

/// Whether SSSSM dispatches to the fused AVX-512 body.
inline bool avx512_active() { return active_isa() == Isa::kAvx512; }

/// Human-readable name of the active path, for bench banners and the obs
/// dispatch table: "avx512", "avx2", "portable+omp-simd", or "portable".
inline const char* dispatch_name() {
  if (avx512_active()) return "avx512";
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
