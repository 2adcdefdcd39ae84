// Parallel sparse triangular solve (SpTRSV) over the PLU tile structure.
//
// The solve phase generates the same fine-grained, dependency-laden task
// soup as factorisation (the paper's related-work section calls SpTRSV out
// as an essential component), so it benefits from the same
// aggregate-and-batch treatment. This module builds forward (L x = b) and
// backward (U x = y) task DAGs over the factored tiles — one diagonal
// substitution task per block row plus one update task per off-diagonal
// tile — and executes them through the standard scheduler, supporting
// multiple right-hand sides solved as one block. These are the only tile
// substitution kernels: the single solve (PluFactorization::solve, through
// tri_solve_in_order) runs the same tasks at width 1 in one fixed order, so
// it equals every column of a block solve bit for bit.
//
// SpTRSV is first-class here: the serving stack's hot path under
// factor-once/solve-many load is this module (src/rhs batches tenant
// right-hand sides into block solves over these DAGs with rhs::BlockSolver,
// DESIGN.md §15), and bench/ext_rhs_throughput gates its throughput scaling.
//
// Accumulation. Update tasks into one block row commute; the paper's GPU
// accumulates them with atomicAdd. On the host every update task fills a
// private scratch region and the consuming diagonal task folds the
// contributions in ascending source-block order before substituting —
// bit-identical results across thread counts, batch widths and scheduling
// policies.
#pragma once

#include <vector>

#include "core/scheduler.hpp"
#include "solvers/plu.hpp"

namespace th {

/// Build the forward (L, lower triangle) or backward (U, upper triangle)
/// solve task DAG for a block solve of `nrhs` right-hand sides. Task
/// encoding: kGetrf = diagonal substitution on block row k, kSsssm =
/// x[row] -= T(row, col) * x[col] (reusing the factorisation task types
/// keeps the scheduler unchanged). Structure and costs depend only on the
/// tile pattern, so the graph is valid before the numeric phase and a
/// timing-only simulate() of it prices a solve without touching tiles.
TaskGraph build_solve_graph(const PluFactorization& fact, bool forward,
                            index_t nrhs, const ProcessGrid& grid = {});

/// Accumulation plan for one solve direction: a private
/// scratch slot per off-diagonal tile (update task) and, per block row,
/// the ascending source-block fold order its diagonal task applies. Built
/// from the tile pattern alone; independent of nrhs (offsets are in rows —
/// a tile's element region is [row_offset * nrhs, (row_offset + bi) * nrhs)).
struct SolveFoldPlan {
  /// Scratch row offset of the update task on tile (target block row,
  /// source block col), indexed like TilePattern::present (row * nt + col);
  /// -1 where this direction has no update.
  std::vector<offset_t> tile_offset;
  /// Per block row, the source block columns folded before substitution,
  /// ascending — the order tri_solve_in_order folds them in too.
  std::vector<std::vector<index_t>> fold_cols;
  offset_t scratch_rows = 0;
  index_t nt = 0;
  bool forward = true;

  offset_t offset(index_t row, index_t col) const {
    return tile_offset[static_cast<std::size_t>(row) * nt + col];
  }
};

SolveFoldPlan build_solve_fold_plan(const TilePattern& pattern, bool forward);

/// Numeric backend for one solve direction over a caller-owned block of
/// right-hand sides: `x` is n x nrhs column-major in the permuted
/// ordering, solved in place. Updates fill private scratch and diagonal
/// tasks fold them in `fold` order (the plan must outlive the backend and
/// match its direction). Update tasks conflict on the target block *row*,
/// not the (row, col) key the factorisation scheduler flags, so the plan,
/// not the executor, keeps them race-free.
class TriSolveBackend : public NumericBackend {
 public:
  TriSolveBackend(const PluFactorization& fact, real_t* x, index_t nrhs,
                  bool forward, const SolveFoldPlan& fold);

  void run_task(const Task& t, bool) override;

 private:
  const PluFactorization& fact_;
  real_t* x_;
  index_t nrhs_;
  bool forward_;
  const SolveFoldPlan& fold_;
  std::vector<real_t> scratch_;  // scratch_rows * nrhs, zeroed
};

/// The single solve, L U x = b in place on one right-hand side (n values,
/// permuted ordering): every task of both solve DAGs on the calling
/// thread, without the scheduler, in one fixed topological order — per
/// block row k (ascending forward, descending backward) its updates in
/// fold order, then its diagonal task. It runs TriSolveBackend's kernels,
/// so x equals every column of a scheduled block solve bit for bit.
void tri_solve_in_order(const PluFactorization& fact, real_t* x);

}  // namespace th
