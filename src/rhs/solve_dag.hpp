// Solve-DAG cache + block solver — the numeric core of the batched
// multi-RHS SpTRSV serving engine (`th::rhs`, DESIGN.md §15).
//
// A factor-once/solve-many service executes the same forward/backward
// triangular-solve task DAGs thousands of times per factorization. The
// legacy PluTriangularSolver rebuilt both DAGs per construction; SolveDag
// builds each (direction, nrhs) pair exactly once per factorization and
// reuses it across every batch, counting builds vs reuses so the payoff is
// observable (th.rhs.dag.*). BlockSolver executes a block of right-hand
// sides over the cached DAGs under one of two scheduling modes:
//
//   kPriorityDag — the aggregate-and-batch scheduler (Policy::kTrojanHorse):
//                  priority-ordered DAG execution with kernel batching,
//                  the paper's strategy applied to the solve phase.
//   kLevelSet    — level-set scheduling (Policy::kLevelPerTask): one
//                  kernel per task in DAG-level order, the classic SpTRSV
//                  baseline (Böhnlein et al., arXiv:2503.05408) kept as an
//                  ablation.
//
// Timing estimates (estimate_s) replay the DAG with a null backend — valid
// before the numeric phase, since solve-task costs depend only on the tile
// pattern. The serve layer prices solve admission with exactly this.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/scheduler.hpp"
#include "solvers/trisolve.hpp"

namespace th::rhs {

enum class SolveSchedule : char { kPriorityDag, kLevelSet };

const char* solve_schedule_name(SolveSchedule s);
SolveSchedule solve_schedule_by_name(const std::string& name);

/// The scheduler policy a solve schedule maps to.
Policy solve_policy(SolveSchedule s);

/// Per-factorization cache of solve task DAGs, keyed by block width. Fold
/// plans are width-independent and built at most once.
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

  const SolveFoldPlan& forward_fold();
  const SolveFoldPlan& backward_fold();

  offset_t builds() const { return builds_; }
  offset_t reuses() const { return reuses_; }

  const PluFactorization& fact() const { return fact_; }

 private:
  const PluFactorization& fact_;
  ProcessGrid grid_;
  std::map<index_t, Graphs> cache_;
  std::optional<SolveFoldPlan> forward_fold_;
  std::optional<SolveFoldPlan> backward_fold_;
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

/// Executes block solves over the cached DAGs. `base` is the scheduling
/// template (ranks, cluster model, exec pool); the solver overrides only
/// the policy (from the schedule mode).
class BlockSolver {
 public:
  BlockSolver(const PluFactorization& fact, const ScheduleOptions& base,
              const ProcessGrid& grid = {});

  /// Solve L U X = B in place: `x` is n x nrhs column-major in the
  /// permuted ordering, holding B on entry and X on return. Requires the
  /// numeric phase to have completed. Fold-plan accumulation keeps results
  /// bit-identical across worker counts and widths. The bool is inert
  /// (kept for the frozen perfbench harness, which passes it).
  BlockSolveResult solve(real_t* x, index_t nrhs, SolveSchedule schedule,
                         bool = true);

  /// Timing-only virtual cost of a width-`nrhs` block solve. Valid before
  /// the numeric phase (costs depend only on the tile pattern).
  real_t estimate_s(index_t nrhs, SolveSchedule schedule);

  SolveDag& dag() { return dag_; }
  const SolveDag& dag() const { return dag_; }

 private:
  ScheduleOptions run_options(SolveSchedule schedule) const;

  const PluFactorization& fact_;
  ScheduleOptions base_;
  SolveDag dag_;
};

}  // namespace th::rhs
