// PLU — the PanguLU-style sparse-block solver core.
//
// The (reordered) matrix is cut into fixed b-by-b tiles; block symbolic
// elimination predicts the L+U tile pattern; the numeric phase is the
// right-looking block algorithm of Figure 4: GETRF on diagonal tiles,
// TSTRF/GEESM on panel tiles, SSSSM Schur updates on trailing tiles. The
// task DAG, per-task device costs, and 2-D block-cyclic ownership feed the
// Trojan Horse scheduling layer; the numeric bodies run on host tiles.
#pragma once

#include <memory>

#include "core/scheduler.hpp"
#include "kernels/tile.hpp"
#include "solvers/block_cyclic.hpp"

namespace th {

struct PluOptions {
  index_t tile_size = 64;      // paper tunes PanguLU's block size to 512 at
                               // SuiteSparse scale; 64 matches our stand-ins
  real_t sparse_density_threshold = 0.25;  // tiles below are priced as
                                           // "sparse" tasks (model only)
  ProcessGrid grid;            // block-cyclic ownership
};

/// The assembled problem: tiles plus the task DAG over them.
class PluFactorization {
 public:
  PluFactorization(const Csr& a, const PluOptions& opts);
  /// Donor-copy construction — the serve layer's symbolic-cache fast path.
  /// Borrows the donor's tile pattern and task DAG (both pure functions of
  /// the sparsity structure) and rebuilds only the numeric state: fresh
  /// tiles assembled from `a`'s values plus a backend bound to them.
  /// Requires `a` to have the donor's (permuted) sparsity structure and
  /// the same tile size; skips tile_symbolic() and build_graph() entirely.
  PluFactorization(const Csr& a, const PluOptions& opts,
                   const PluFactorization& donor);
  ~PluFactorization();

  const TaskGraph& graph() const { return graph_; }
  TaskGraph& mutable_graph() { return graph_; }
  const TilePattern& pattern() const { return pattern_; }
  TileMatrix& tiles() { return *tiles_; }
  const TileMatrix& tiles() const { return *tiles_; }

  /// Numeric backend bound to this factorisation's tiles.
  NumericBackend& backend();

  /// nnz(L+U) after the numeric phase (diagonal counted once).
  offset_t nnz_lu() const { return tiles_->total_nnz(); }

  /// Triangular solves with the computed factors: returns x with
  /// L U x = b (b in the *permuted* ordering). Must be called after the
  /// numeric phase completed. Runs tri_solve_in_order (solvers/trisolve.hpp)
  /// at width 1; rhs::BlockSolver runs it at the block's width, so x equals
  /// every column of a block solve bit for bit.
  std::vector<real_t> solve(const std::vector<real_t>& b) const;

  /// Transpose solve: returns z with (L U)^T z = U^T L^T z = c. Needed by
  /// the 1-norm condition estimator (solvers/condest.hpp). Must be called
  /// after the numeric phase completed; it cannot check this itself.
  std::vector<real_t> solve_transpose(const std::vector<real_t>& c) const;

 private:
  class Backend;
  PluOptions opts_;
  TilePattern pattern_;
  std::unique_ptr<TileMatrix> tiles_;
  std::unique_ptr<Backend> backend_;
  TaskGraph graph_;

  void build_graph();
};

}  // namespace th
