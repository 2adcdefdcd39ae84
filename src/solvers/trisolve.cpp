#include "solvers/trisolve.hpp"

#include <algorithm>
#include <span>

#include "kernels/flops.hpp"
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
  const index_t nt = p.nt;
  const index_t bs = p.tile_size;
  const index_t n = p.n;
  // One update's contribution at a time, folded right after it is
  // computed, so no per-tile scratch is needed.
  std::vector<real_t> contrib(static_cast<std::size_t>(bs));
  // x[block dst] -= T x[block src], for every right-hand side.
  auto update = [&](const Tile& t, index_t dst, index_t src) {
    for (index_t r = 0; r < nrhs; ++r) {
      real_t* xr = x + static_cast<offset_t>(r) * n;
      std::fill_n(contrib.begin(), t.panel_rows(), 0.0);
      add_update(t, xr + static_cast<offset_t>(src) * bs, contrib.data());
      fold_update(t.row_idx(), contrib.data(),
                  xr + static_cast<offset_t>(dst) * bs);
    }
  };
  // Every block row takes its updates in ascending source order, each
  // from a solved block: the forward sweep pushes solved block k into the
  // rows below it, the backward sweep pulls block row k's sources j > k.
  for (const bool forward : {true, false}) {
    for (index_t s = 0; s < nt; ++s) {
      const index_t k = forward ? s : nt - 1 - s;
      if (!forward) {
        for (offset_t q = p.col_ptr[k]; q < p.col_ptr[k + 1]; ++q) {
          update(fact.tiles().upper(k, q), k, p.tile_row[q]);
        }
      }
      const Tile& d = *fact.tiles().tile(k, k);
      for (index_t r = 0; r < nrhs; ++r) {
        substitute(d, x + static_cast<offset_t>(r) * n +
                          static_cast<offset_t>(k) * bs, forward);
      }
      if (forward) {
        for (offset_t q = p.col_ptr[k]; q < p.col_ptr[k + 1]; ++q) {
          update(fact.tiles().lower(k, q), p.tile_row[q], k);
        }
      }
    }
  }
}

}  // namespace th
