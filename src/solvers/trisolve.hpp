// Sparse triangular solve (SpTRSV) over the PLU tile structure.
//
// The solve phase generates the same fine-grained, dependency-laden task
// soup as factorisation (the paper's related-work section calls SpTRSV out
// as an essential component), so its modelled cost benefits from the same
// aggregate-and-batch treatment. This module builds the forward (L x = b)
// and backward (U x = y) task DAGs over the factored tiles — one diagonal
// substitution task per block row plus one update task per off-diagonal
// tile — which the scheduler prices with a timing-only replay
// (rhs::BlockSolver, DESIGN.md §15). The numerics run once, in order, on
// the calling thread (tri_solve_in_order): these are the only tile
// substitution kernels, shared by the single solve and every block solve.
//
// SpTRSV is first-class here: the serving stack's hot path under
// factor-once/solve-many load is this module (src/rhs batches tenant
// right-hand sides into block solves with rhs::BlockSolver), and
// bench/ext_rhs_throughput gates its modelled throughput scaling.
#pragma once

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

/// The numeric triangular solve, L U X = B in place on `nrhs` right-hand
/// sides: `x` is n x nrhs column-major in the permuted ordering. Every task
/// of both solve DAGs runs on the calling thread, without the scheduler, in
/// one fixed topological order — per block row k (ascending forward,
/// descending backward) its updates in ascending source-block order, each
/// folded into x right after it is computed, then its diagonal task. Each
/// task loops over the columns, and every column gets the width-1
/// operation sequence, so each column of a block solve equals
/// PluFactorization::solve of that column bit for bit, at any width.
void tri_solve_in_order(const PluFactorization& fact, real_t* x,
                        index_t nrhs);

}  // namespace th
