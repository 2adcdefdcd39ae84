#include "solvers/trisolve.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "kernels/dense.hpp"
#include "kernels/flops.hpp"
#include "kernels/simd.hpp"
#include "support/error.hpp"

namespace th {

namespace {

// Task encoding within the solve DAGs:
//   kGetrf  -> diagonal substitution on block row t.k (row == col == k)
//   kSsssm  -> update x[t.row] -= T(t.row, t.col) * x[t.col]
constexpr TaskType kDiagSolve = TaskType::kGetrf;
constexpr TaskType kUpdate = TaskType::kSsssm;

// The task kernels, per right-hand-side column.

// Update task body: out[0, t.panel_rows()) += T * x_src over the panel,
// the positive contribution (in panel rows, from zero) that fold_update
// then subtracts from the target block row.
void add_update(const Tile& t, const real_t* x_src, real_t* out) {
  const real_t* td = t.data();
  const index_t m = t.panel_rows();
  const auto cols = t.col_idx();
  for (index_t c = 0; c < t.panel_cols(); ++c) {
    const real_t v = x_src[cols[c]];
    if (v == 0.0) continue;
    const real_t* tc = td + static_cast<offset_t>(c) * t.ld();
    for (index_t i = 0; i < m; ++i) out[i] += tc[i] * v;
  }
}

// Fold one update's contribution into its block row: col[rows[i]] -= s[i].
void fold_update(std::span<const index_t> rows, const real_t* s,
                 real_t* col) {
  for (std::size_t i = 0; i < rows.size(); ++i) col[rows[i]] -= s[i];
}

// Diagonal task body after the fold: unit-lower (forward) or non-unit
// upper (backward) substitution within the diagonal tile.
void substitute(const Tile& d, real_t* col, bool forward) {
  const index_t w = d.rows();
  const real_t* dd = d.data();  // diagonal tiles are full: ld() == w
  if (forward) {
    for (index_t c = 0; c < w; ++c) {
      const real_t xc = col[c];
      if (xc == 0.0) continue;
      const real_t* dc = dd + static_cast<offset_t>(c) * w;
      for (index_t i = c + 1; i < w; ++i) col[i] -= dc[i] * xc;
    }
  } else {
    for (index_t c = w - 1; c >= 0; --c) {
      real_t acc = col[c];
      for (index_t i = c + 1; i < w; ++i) {
        acc -= dd[c + static_cast<offset_t>(i) * w] * col[i];
      }
      col[c] = acc / dd[c + static_cast<offset_t>(c) * w];
    }
  }
}

// Both solve sweeps in the one fixed task order every body runs: per block
// row k (ascending forward, descending backward) its updates in ascending
// source order, each from a solved block — the forward sweep pushes
// solved block k into the rows below it, the backward sweep pulls block
// row k's sources j > k — then its diagonal task. update(T, dst, src)
// applies x[dst] -= T x[src]; substitute(D, k, forward) solves block row k.
template <class Update, class Substitute>
void sweep_in_order(const PluFactorization& fact, Update&& update,
                    Substitute&& substitute) {
  const TilePattern& p = fact.pattern();
  const index_t nt = p.nt;
  for (const bool forward : {true, false}) {
    for (index_t s = 0; s < nt; ++s) {
      const index_t k = forward ? s : nt - 1 - s;
      if (!forward) {
        for (offset_t q = p.col_ptr[k]; q < p.col_ptr[k + 1]; ++q) {
          update(fact.tiles().upper(k, q), k, p.tile_row[q]);
        }
      }
      substitute(*fact.tiles().tile(k, k), k, forward);
      if (forward) {
        for (offset_t q = p.col_ptr[k]; q < p.col_ptr[k + 1]; ++q) {
          update(fact.tiles().lower(k, q), p.tile_row[q], k);
        }
      }
    }
  }
}

// The scalar body: each task loops over the right-hand sides.
void solve_columns(const PluFactorization& fact, real_t* x, index_t nrhs) {
  const offset_t bs = fact.pattern().tile_size;
  const offset_t n = fact.pattern().n;
  // One update's contribution at a time, folded right after it is
  // computed, so no per-tile scratch is needed.
  std::vector<real_t> contrib(static_cast<std::size_t>(bs));
  sweep_in_order(
      fact,
      [&](const Tile& t, index_t dst, index_t src) {
        for (index_t r = 0; r < nrhs; ++r) {
          real_t* xr = x + r * n;
          std::fill_n(contrib.begin(), t.panel_rows(), 0.0);
          add_update(t, xr + src * bs, contrib.data());
          fold_update(t.row_idx(), contrib.data(), xr + dst * bs);
        }
      },
      [&](const Tile& d, index_t k, bool forward) {
        for (index_t r = 0; r < nrhs; ++r) {
          substitute(d, x + r * n + k * bs, forward);
        }
      });
}

#if defined(TH_KERNELS_SIMD_AVX2)
// The AVX-512 group bodies. A group of up to kLanes right-hand sides is
// held RHS-interleaved, xi[row * kLanes + r], so one zmm register carries
// one row of x across the group, and each tile is streamed once per group.
// Every lane gets the scalar bodies' operation sequence above: a multiply,
// then an add or subtract (no FMA: -ffp-contract=off), terms in ascending
// column order from a +0.0 accumulator, a zero x entry skipped by a
// per-lane mask (NEQ_UQ drops +-0.0 and keeps NaN, as != 0.0 does). As in
// the SSSSM body, a masked step is mask_mov over a plain add or subtract,
// which an FMA target would contract without the flag, so SolveBits.*
// fails the moment the flag goes.
constexpr index_t kLanes = kGroupLanes;

// add_update + fold_update for panel rows [0, NR) of an update tile:
// xd[rows[i]] -= sum_c t[i + c * ld] * xs[cols[c]], in registers.
template <int NR>
__attribute__((target("avx512f,avx512vl"))) void update_rows_avx512(
    const real_t* t, offset_t ld, index_t pc, const index_t* cols,
    const index_t* rows, const real_t* xs, real_t* xd) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d acc[NR];
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) acc[j] = zero;
  for (index_t c = 0; c < pc; ++c) {
    const __m512d v = _mm512_load_pd(xs + cols[c] * kLanes);
    const __mmask8 nz = _mm512_cmp_pd_mask(v, zero, _CMP_NEQ_UQ);
    if (nz == 0) continue;
    const real_t* tc = t + c * ld;
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
      const __m512d prod = _mm512_mul_pd(_mm512_set1_pd(tc[j]), v);
      acc[j] = _mm512_mask_mov_pd(acc[j], nz, _mm512_add_pd(acc[j], prod));
    }
  }
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) {
    real_t* d = xd + rows[j] * kLanes;
    _mm512_store_pd(d, _mm512_sub_pd(_mm512_load_pd(d), acc[j]));
  }
}

// x[dst] -= T x[src] for the whole group.
void update_group_avx512(const Tile& t, const real_t* xs, real_t* xd) {
  for_row_blocks(t.panel_rows(), [&](auto nr, index_t i) {
    update_rows_avx512<decltype(nr)::value>(
        t.data() + i, t.ld(), t.panel_cols(), t.col_idx().data(),
        t.row_idx().data() + i, xs, xd);
  });
}

// substitute() for the whole group on the interleaved block row xk.
__attribute__((target("avx512f,avx512vl"))) void substitute_group_avx512(
    const Tile& d, real_t* xk, bool forward) {
  const index_t w = d.rows();
  const real_t* dd = d.data();  // diagonal tiles are full: ld() == w
  if (forward) {
    forward_group_avx512(w, dd, w, xk);
  } else {
    // The strided dot product becomes one broadcast multiply-subtract per
    // (c, i) across the group; no zero skip, as in substitute().
    for (index_t c = w - 1; c >= 0; --c) {
      __m512d acc = _mm512_load_pd(xk + c * kLanes);
      for (index_t i = c + 1; i < w; ++i) {
        const __m512d u =
            _mm512_set1_pd(dd[c + static_cast<offset_t>(i) * w]);
        acc = _mm512_sub_pd(acc,
                            _mm512_mul_pd(u, _mm512_load_pd(xk + i * kLanes)));
      }
      _mm512_store_pd(
          xk + c * kLanes,
          _mm512_div_pd(acc,
                        _mm512_set1_pd(dd[c + static_cast<offset_t>(c) * w])));
    }
  }
}

// tri_solve_in_order's sweep for columns [0, lanes) of x, through one
// RHS-interleaved copy xi (n * kLanes, 64-byte aligned, lanes >= `lanes`
// held at zero).
__attribute__((target("avx512f,avx512vl"))) void solve_group_avx512(
    const PluFactorization& fact, real_t* x, index_t lanes, real_t* xi) {
  const offset_t bs = fact.pattern().tile_size;
  const index_t n = fact.pattern().n;
  if (lanes < kLanes) std::fill_n(xi, static_cast<offset_t>(n) * kLanes, 0.0);
  for (index_t r = 0; r < lanes; ++r) {
    const real_t* xr = x + static_cast<offset_t>(r) * n;
    for (offset_t i = 0; i < n; ++i) xi[i * kLanes + r] = xr[i];
  }
  const auto block = [&](index_t k) { return xi + k * bs * kLanes; };
  sweep_in_order(
      fact,
      [&](const Tile& t, index_t dst, index_t src) {
        update_group_avx512(t, block(src), block(dst));
      },
      [&](const Tile& d, index_t k, bool forward) {
        substitute_group_avx512(d, block(k), forward);
      });
  for (index_t r = 0; r < lanes; ++r) {
    real_t* xr = x + static_cast<offset_t>(r) * n;
    for (offset_t i = 0; i < n; ++i) xr[i] = xi[i * kLanes + r];
  }
}
#endif  // TH_KERNELS_SIMD_AVX2

}  // namespace

TaskGraph build_solve_graph(const TilePattern& p, bool forward, index_t nrhs,
                            const ProcessGrid& grid) {
  TH_CHECK(nrhs >= 1);
  const index_t nt = p.nt;
  TaskGraph g;

  // One diagonal substitution task per block row.
  std::vector<index_t> diag_id(static_cast<std::size_t>(nt));
  for (index_t k = 0; k < nt; ++k) {
    const index_t bk = p.rows_in_tile(k);
    Task t;
    t.type = kDiagSolve;
    t.k = k;
    t.row = t.col = k;
    t.cost.flops = static_cast<offset_t>(bk) * bk * nrhs;
    t.cost.bytes = words_to_bytes(static_cast<offset_t>(bk) * bk +
                                  2 * static_cast<offset_t>(bk) * nrhs);
    t.cost.cuda_blocks = std::max<index_t>(1, nrhs);
    t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
    t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * nrhs);
    t.owner_rank = grid.owner(k, k);
    diag_id[k] = g.add_task(t);
  }

  // One update task per off-diagonal tile of the triangle being solved,
  // feeding the destination block row's diagonal task: x_i -= L(i,k) x_k
  // forward, x_k -= U(k,i) x_i backward, for each block row i in below(k).
  for (index_t k = 0; k < nt; ++k) {
    for (const index_t i : p.below(k)) {
      const index_t dst = forward ? i : k;
      const index_t src = forward ? k : i;
      const index_t bd = p.rows_in_tile(dst);
      const index_t bsrc = p.rows_in_tile(src);
      Task t;
      t.type = kUpdate;
      t.k = src;
      t.row = dst;
      t.col = src;
      t.cost.flops = 2 * static_cast<offset_t>(bd) * bsrc * nrhs;
      t.cost.bytes = words_to_bytes(static_cast<offset_t>(bd) * bsrc +
                                    2 * static_cast<offset_t>(bd) * nrhs);
      t.cost.cuda_blocks = std::max<index_t>(1, bd / 16);
      t.cost.shmem_per_block = static_cast<offset_t>(bsrc) * 8;
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bd) * nrhs);
      t.atomic_ok = true;  // updates into block dst commute
      t.owner_rank = grid.owner(dst, src);
      const index_t id = g.add_task(t);
      g.add_dependency(diag_id[src], id);
      g.add_dependency(id, diag_id[dst]);
    }
  }
  g.finalize();
  return g;
}

void tri_solve_in_order(const PluFactorization& fact, real_t* x,
                        index_t nrhs) {
  TH_CHECK(nrhs >= 1);
  const TilePattern& p = fact.pattern();
#if defined(TH_KERNELS_SIMD_AVX2)
  // A block streams each tile once per group of kLanes right-hand sides.
  // Width 1 keeps the scalar body, which is faster for one column.
  if (nrhs > 1 && simd::avx512_active()) {
    // The interleaved copy, 64-byte aligned: one spare row of slack.
    std::vector<real_t> buf(static_cast<std::size_t>(p.n + 1) * kLanes);
    void* xi = buf.data();
    std::size_t space = buf.size() * sizeof(real_t);
    std::align(64, space - kLanes * sizeof(real_t), xi, space);
    for (index_t r0 = 0; r0 < nrhs; r0 += kLanes) {
      solve_group_avx512(fact, x + static_cast<offset_t>(r0) * p.n,
                         std::min(kLanes, nrhs - r0),
                         static_cast<real_t*>(xi));
    }
    return;
  }
#endif
  solve_columns(fact, x, nrhs);
}

}  // namespace th
