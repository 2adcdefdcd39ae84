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

// The two task kernels, per right-hand-side column.

// Update task body: out[0, t.panel_rows()) += T * x_src over the panel,
// the positive contribution (in panel rows, from zero) that the consuming
// diagonal task subtracts in fold order.
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

TaskGraph build_solve_graph(const PluFactorization& fact, bool forward,
                            index_t nrhs, const ProcessGrid& grid) {
  TH_CHECK(nrhs >= 1);
  const TilePattern& p = fact.pattern();
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
  // feeding the destination block row's diagonal task.
  for (index_t k = 0; k < nt; ++k) {
    if (forward) {
      for (const index_t i : p.col_tiles_below(k)) {
        const index_t bi = p.rows_in_tile(i);
        const index_t bk = p.rows_in_tile(k);
        Task t;
        t.type = kUpdate;
        t.k = k;
        t.row = i;
        t.col = k;
        t.cost.flops = 2 * static_cast<offset_t>(bi) * bk * nrhs;
        t.cost.bytes = words_to_bytes(static_cast<offset_t>(bi) * bk +
                                      2 * static_cast<offset_t>(bi) * nrhs);
        t.cost.cuda_blocks = std::max<index_t>(1, bi / 16);
        t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(bi) * nrhs);
        t.atomic_ok = true;  // updates into block i commute
        t.owner_rank = grid.owner(i, k);
        const index_t id = g.add_task(t);
        g.add_dependency(diag_id[k], id);
        g.add_dependency(id, diag_id[i]);
      }
    } else {
      for (const index_t j : p.row_tiles_right(k)) {
        // Backward: x_k -= U(k, j) x_j, so the update targets block k and
        // depends on block j's diagonal task.
        const index_t bk = p.rows_in_tile(k);
        const index_t bj = p.rows_in_tile(j);
        Task t;
        t.type = kUpdate;
        t.k = j;
        t.row = k;
        t.col = j;
        t.cost.flops = 2 * static_cast<offset_t>(bk) * bj * nrhs;
        t.cost.bytes = words_to_bytes(static_cast<offset_t>(bk) * bj +
                                      2 * static_cast<offset_t>(bk) * nrhs);
        t.cost.cuda_blocks = std::max<index_t>(1, bk / 16);
        t.cost.shmem_per_block = static_cast<offset_t>(bj) * 8;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * nrhs);
        t.atomic_ok = true;
        t.owner_rank = grid.owner(k, j);
        const index_t id = g.add_task(t);
        g.add_dependency(diag_id[j], id);
        g.add_dependency(id, diag_id[k]);
      }
    }
  }
  g.finalize();
  return g;
}

SolveFoldPlan build_solve_fold_plan(const TilePattern& p, bool forward) {
  SolveFoldPlan plan;
  plan.forward = forward;
  plan.nt = p.nt;
  plan.tile_offset.assign(p.present.size(), -1);
  plan.fold_cols.assign(static_cast<std::size_t>(p.nt), {});
  for (index_t k = 0; k < p.nt; ++k) {
    if (forward) {
      for (const index_t i : p.col_tiles_below(k)) {
        plan.tile_offset[static_cast<std::size_t>(i) * p.nt + k] =
            plan.scratch_rows;
        plan.scratch_rows += static_cast<offset_t>(p.env_rows(i, k).size());
        // Outer loop ascends k, so each row's fold list is ascending.
        plan.fold_cols[static_cast<std::size_t>(i)].push_back(k);
      }
    } else {
      for (const index_t j : p.row_tiles_right(k)) {
        plan.tile_offset[static_cast<std::size_t>(k) * p.nt + j] =
            plan.scratch_rows;
        plan.scratch_rows += static_cast<offset_t>(p.env_rows(k, j).size());
        plan.fold_cols[static_cast<std::size_t>(k)].push_back(j);
      }
    }
  }
  return plan;
}

TriSolveBackend::TriSolveBackend(const PluFactorization& fact, real_t* x,
                                 index_t nrhs, bool forward,
                                 const SolveFoldPlan& fold)
    : fact_(fact), x_(x), nrhs_(nrhs), forward_(forward), fold_(fold) {
  TH_CHECK_MSG(fold_.forward == forward,
               "solve fold plan direction does not match the backend");
  scratch_.assign(static_cast<std::size_t>(fold_.scratch_rows) * nrhs_, 0.0);
}

void TriSolveBackend::run_task(const Task& t, bool) {
  const index_t bs = fact_.pattern().tile_size;
  const index_t n = fact_.pattern().n;
  if (t.type == kDiagSolve) {
    const Tile& d = *fact_.tiles().tile(t.k, t.k);
    real_t* xk = x_ + static_cast<offset_t>(t.k) * bs;
    // Fold the incoming update contributions in ascending source-block
    // order before substituting. Every producer task finished before this
    // one (DAG dependency), and the executor's batch barriers order their
    // scratch writes before this read.
    for (const index_t src : fold_.fold_cols[static_cast<std::size_t>(t.k)]) {
      const auto rows = fact_.tiles().tile(t.k, src)->row_idx();
      const real_t* scr = scratch_.data() + fold_.offset(t.k, src) * nrhs_;
      for (index_t r = 0; r < nrhs_; ++r) {
        fold_update(rows,
                    scr + static_cast<offset_t>(r) *
                              static_cast<offset_t>(rows.size()),
                    xk + static_cast<offset_t>(r) * n);
      }
    }
    for (index_t r = 0; r < nrhs_; ++r) {
      substitute(d, xk + static_cast<offset_t>(r) * n, forward_);
    }
    return;
  }
  // x[row] -= T(row, col) * x[col]: accumulate into the tile's private
  // scratch region (panel rows x nrhs, column-major). Regions are disjoint
  // across tasks, so concurrent updates of one block row need no
  // synchronisation.
  const Tile& tile = *fact_.tiles().tile(t.row, t.col);
  const real_t* xc = x_ + static_cast<offset_t>(t.col) * bs;
  real_t* scr = scratch_.data() + fold_.offset(t.row, t.col) * nrhs_;
  for (index_t r = 0; r < nrhs_; ++r) {
    add_update(tile, xc + static_cast<offset_t>(r) * n,
               scr + static_cast<offset_t>(r) * tile.panel_rows());
  }
}

void tri_solve_in_order(const PluFactorization& fact, real_t* x) {
  const TilePattern& p = fact.pattern();
  const index_t nt = p.nt;
  const index_t bs = p.tile_size;
  // One update's contribution at a time: block row k folds each update
  // right after computing it, so no per-tile scratch is needed.
  std::vector<real_t> contrib(static_cast<std::size_t>(bs));
  for (const bool forward : {true, false}) {
    for (index_t s = 0; s < nt; ++s) {
      const index_t k = forward ? s : nt - 1 - s;
      real_t* xk = x + static_cast<offset_t>(k) * bs;
      // The update tasks into block row k in fold order (ascending source);
      // every source block is already solved.
      const index_t src_end = forward ? k : nt;
      for (index_t src = forward ? 0 : k + 1; src < src_end; ++src) {
        const Tile* t = fact.tiles().tile(k, src);
        if (t == nullptr) continue;
        std::fill_n(contrib.begin(), t->panel_rows(), 0.0);
        add_update(*t, x + static_cast<offset_t>(src) * bs, contrib.data());
        fold_update(t->row_idx(), contrib.data(), xk);
      }
      substitute(*fact.tiles().tile(k, k), xk, forward);
    }
  }
}

}  // namespace th
