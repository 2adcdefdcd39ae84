// Solve price table, block solver and their options and accounting — the
// batched multi-RHS SpTRSV layer (`th::rhs`, DESIGN.md §15).
//
// Solve-task costs depend only on the tile pattern, so SolvePrices prices
// each (schedule, width) once per pattern — a timing-only replay (null
// backend) of the forward and backward solve DAGs — and serves every later
// lookup from its cache, counting builds vs reuses (th.rhs.dag.*). The two
// schedules:
//
//   kPriorityDag — the aggregate-and-batch scheduler (Policy::kTrojanHorse):
//                  priority-ordered DAG execution with kernel batching, the
//                  paper's strategy applied to the solve phase.
//   kLevelSet    — level-set scheduling (Policy::kLevelPerTask): one kernel
//                  per task in DAG-level order, the classic SpTRSV baseline
//                  (Böhnlein et al., arXiv:2503.05408) kept as an ablation.
//
// The serve layer keeps one table per pattern, so prices survive refactors.
// BlockSolver looks the price up and runs tri_solve_in_order over the
// whole block on the calling thread. Blocks form in the caller: the serve
// dispatcher coalesces a session's queued solves (and triages them),
// thsolve_cli --nrhs and the throughput bench chunk their columns.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/scheduler.hpp"
#include "solvers/trisolve.hpp"

namespace th::rhs {

enum class SolveSchedule : char { kPriorityDag, kLevelSet };

const char* solve_schedule_name(SolveSchedule s);
SolveSchedule solve_schedule_by_name(const std::string& name);

/// The scheduler policy a solve schedule maps to.
Policy solve_policy(SolveSchedule s);

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

/// Per-pattern cache of block-solve prices, keyed by (schedule, width).
/// `base` is the scheduling template (ranks, cluster model, memory); the
/// schedule overrides only the policy.
class SolvePrices {
 public:
  SolvePrices(std::shared_ptr<const TilePattern> pattern,
              const ScheduleOptions& base, const ProcessGrid& grid = {});

  /// The price of a width-`nrhs` block solve: replayed with obs off on
  /// first use, cached after (the reference lives as long as the table).
  /// A replay that throws (e.g. CancelledError from a fired token in
  /// `base`) caches nothing.
  const BlockSolveResult& price(index_t nrhs, SolveSchedule schedule);

  const TilePattern& pattern() const { return *pattern_; }
  offset_t builds() const { return builds_; }
  offset_t reuses() const { return reuses_; }

 private:
  std::shared_ptr<const TilePattern> pattern_;
  ScheduleOptions base_;
  ProcessGrid grid_;
  std::map<std::pair<SolveSchedule, index_t>, BlockSolveResult> cache_;
  offset_t builds_ = 0;  // (forward, backward) pairs built and priced
  offset_t reuses_ = 0;  // price() calls served from the cache
};

/// Block-solve configuration. The serve layer nests one of these on
/// ServeOptions (`--rhs-batch` on the CLI, spec::RhsSpec on the wire).
struct RhsOptions {
  /// Block-solve width cap: the serve dispatcher coalesces at most this
  /// many queued solves into one block.
  index_t max_width = 16;
  /// kPriorityDag (aggregate-and-batch) or kLevelSet (per-task baseline).
  SolveSchedule schedule = SolveSchedule::kPriorityDag;
  /// Inert: block solves are always bit-identical across worker counts
  /// and batch widths (tri_solve_in_order). Kept because the frozen
  /// perfbench harness still sets it.
  bool det = true;

  /// Throws th::Error on nonsensical configurations.
  void validate() const;
};

/// Block-solve accounting, counted by whoever runs the blocks (the serve
/// dispatcher, thsolve_cli --nrhs, the throughput bench); mirrors into the
/// obs registry as th.rhs.* via publish_metrics().
struct RhsStats {
  offset_t solved = 0;        // right-hand sides solved to completion
  offset_t batches = 0;       // block solves executed
  offset_t dag_builds = 0;    // (schedule, width) prices built
  offset_t dag_reuses = 0;    // price lookups served from the table
  offset_t widest_batch = 0;  // widest block solve executed
  real_t busy_s = 0;          // virtual seconds spent block-solving

  /// Count one executed block solve of `width` right-hand sides.
  void add_block(index_t width, const BlockSolveResult& r);

  /// Mirror these counters into the obs metrics registry under th.rhs.*
  /// (set semantics: publishing twice does not double-count).
  void publish_metrics() const;

  /// Sum over runs with price tables of their own (widest_batch takes the
  /// max); runs sharing a table would double-count its dag_builds/reuses.
  RhsStats& operator+=(const RhsStats& o);
};

/// Prices block solves from a price table and computes them in order.
class BlockSolver {
 public:
  /// With a table of its own over `fact`'s pattern.
  BlockSolver(const PluFactorization& fact, const ScheduleOptions& base,
              const ProcessGrid& grid = {});
  /// With a shared table, which must price `fact`'s pattern.
  BlockSolver(const PluFactorization& fact,
              std::shared_ptr<SolvePrices> prices);

  /// Solve L U X = B in place: `x` is n x nrhs column-major in the
  /// permuted ordering, holding B on entry and X on return. Requires the
  /// numeric phase to have completed. Looks the price up first (a first
  /// pricing that throws leaves `x` untouched), then runs
  /// tri_solve_in_order, so every column equals PluFactorization::solve
  /// bit for bit at any width and worker count. The bool is inert (kept
  /// for the frozen perfbench harness, which passes it).
  const BlockSolveResult& solve(real_t* x, index_t nrhs,
                                SolveSchedule schedule, bool = true);

  const SolvePrices& dag() const { return *prices_; }

 private:
  const PluFactorization& fact_;
  std::shared_ptr<SolvePrices> prices_;
};

}  // namespace th::rhs
