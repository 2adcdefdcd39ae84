// Solve-DAG cache + block solver — the numeric core of the batched
// multi-RHS SpTRSV serving engine (`th::rhs`, DESIGN.md §15).
//
// A factor-once/solve-many service prices the same forward/backward
// triangular-solve task DAGs thousands of times per factorization. SolveDag
// builds each (direction, nrhs) pair exactly once per factorization and
// reuses it across every block, counting builds vs reuses so the payoff is
// observable (th.rhs.dag.*). BlockSolver solves a block of right-hand sides
// in two separate steps:
//
//   pricing  — a timing-only replay (null backend) of both cached DAGs
//              under one of two scheduling modes:
//     kPriorityDag — the aggregate-and-batch scheduler
//                    (Policy::kTrojanHorse): priority-ordered DAG
//                    execution with kernel batching, the paper's strategy
//                    applied to the solve phase.
//     kLevelSet    — level-set scheduling (Policy::kLevelPerTask): one
//                    kernel per task in DAG-level order, the classic SpTRSV
//                    baseline (Böhnlein et al., arXiv:2503.05408) kept as
//                    an ablation.
//   numerics — tri_solve_in_order over the whole block on the calling
//              thread, the single solve's kernels at the block's width.
//
// Solve-task costs depend only on the tile pattern, so pricing is valid
// before the numeric phase: estimate_s runs the same replay, and the serve
// layer prices solve admission and block coalescing with exactly this
// (through RhsEngine::estimate_s, cached per width).
#pragma once

#include <map>
#include <string>

#include "core/scheduler.hpp"
#include "solvers/trisolve.hpp"

namespace th::rhs {

enum class SolveSchedule : char { kPriorityDag, kLevelSet };

const char* solve_schedule_name(SolveSchedule s);
SolveSchedule solve_schedule_by_name(const std::string& name);

/// The scheduler policy a solve schedule maps to.
Policy solve_policy(SolveSchedule s);

/// Per-factorization cache of solve task DAGs, keyed by block width.
class SolveDag {
 public:
  explicit SolveDag(const PluFactorization& fact,
                    const ProcessGrid& grid = {});

  struct Graphs {
    TaskGraph forward;
    TaskGraph backward;
  };

  /// Build-once / reuse-after graphs for a block solve of width `nrhs`.
  const Graphs& graphs(index_t nrhs);

  offset_t builds() const { return builds_; }
  offset_t reuses() const { return reuses_; }

 private:
  const PluFactorization& fact_;
  ProcessGrid grid_;
  std::map<index_t, Graphs> cache_;
  offset_t builds_ = 0;  // (forward, backward) pairs built
  offset_t reuses_ = 0;  // graphs() calls served from the cache
};

struct BlockSolveResult {
  ScheduleResult forward;
  ScheduleResult backward;

  real_t makespan_s() const {
    return forward.makespan_s + backward.makespan_s;
  }
  offset_t kernel_count() const {
    return forward.kernel_count + backward.kernel_count;
  }
};

/// Prices block solves over the cached DAGs and computes them in order.
/// `base` is the scheduling template (ranks, cluster model, memory); the
/// solver overrides only the policy (from the schedule mode).
class BlockSolver {
 public:
  BlockSolver(const PluFactorization& fact, const ScheduleOptions& base,
              const ProcessGrid& grid = {});

  /// Solve L U X = B in place: `x` is n x nrhs column-major in the
  /// permuted ordering, holding B on entry and X on return. Requires the
  /// numeric phase to have completed. Prices the solve first (a replay
  /// that throws, e.g. CancelledError, leaves `x` untouched), then runs
  /// tri_solve_in_order, so every column equals PluFactorization::solve
  /// bit for bit at any width and worker count. The bool is inert (kept
  /// for the frozen perfbench harness, which passes it).
  BlockSolveResult solve(real_t* x, index_t nrhs, SolveSchedule schedule,
                         bool = true);

  /// Timing-only virtual cost of a width-`nrhs` block solve: the same
  /// replay solve() prices, so it equals solve()'s makespan_s() bit for
  /// bit. Valid before the numeric phase.
  real_t estimate_s(index_t nrhs, SolveSchedule schedule);

  SolveDag& dag() { return dag_; }
  const SolveDag& dag() const { return dag_; }

 private:
  BlockSolveResult price(index_t nrhs, SolveSchedule schedule);

  const PluFactorization& fact_;
  ScheduleOptions base_;
  SolveDag dag_;
};

}  // namespace th::rhs
