// RhsEngine — batched multi-RHS SpTRSV serving engine (`th::rhs`,
// DESIGN.md §15).
//
// Executes one given block of right-hand sides as ONE block solve over the
// BlockSolver (cached solve DAGs priced under priority-DAG or level-set
// scheduling, in-order numerics). The engine forms no batches: the caller
// decides each block once (the serve dispatcher coalesces a session's
// queued solves; thsolve_cli --nrhs and the throughput bench chunk their
// columns), and execute() runs it:
//
//   * members cancelled or past their deadline at `start_s`, and members
//     due before the block's priced finish, are shed at the block
//     boundary, never mid-solve;
//   * the survivors run as one block solve, which charges its simulated
//     makespan to the virtual clock.
//
// The clock is virtual — the caller passes `start_s`, the engine charges
// the simulated block-solve makespans — so completion times are
// bit-reproducible from the block sequence. The numerics execute for real
// on the host, in order on the calling thread (tri_solve_in_order). Every
// counter mirrors into the obs registry as th.rhs.* (publish_metrics), and
// each block solve emits a recorder span on the dedicated "rhs engine"
// track.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "rhs/solve_dag.hpp"
#include "support/cancel.hpp"

namespace th::rhs {

/// Engine configuration. The serve layer nests one of these on
/// ServeOptions (`--rhs-batch` on the CLI, spec::RhsSpec on the wire).
struct RhsOptions {
  /// Block-solve width cap: the serve dispatcher coalesces at most this
  /// many queued solves into one block, and execute() refuses wider ones.
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

/// One member of a block.
struct RhsEntry {
  std::uint64_t tag = 0;  // caller correlation (e.g. a serve RequestId)
  real_t deadline_s = CancelToken::kNoDeadline;
  /// Borrowed; may be null. Checked at the block boundary only.
  const CancelToken* token = nullptr;
  /// The right-hand side in the factorization's permuted ordering (n).
  std::vector<real_t> b;
};

/// Engine accounting; mirrors into the obs registry as th.rhs.* via
/// publish_metrics() so registry snapshots reconcile with this struct by
/// construction. Every executed member ends in exactly one of
/// solved/cancelled/deadline_misses.
struct RhsStats {
  offset_t submitted = 0;        // members of every executed block
  offset_t solved = 0;           // right-hand sides solved to completion
  offset_t cancelled = 0;        // shed at a block boundary (token fired)
  offset_t deadline_misses = 0;  // shed at a block boundary (deadline)
  offset_t batches = 0;          // block solves executed
  offset_t dag_builds = 0;       // solve-DAG pairs built (per distinct width)
  offset_t dag_reuses = 0;       // block solves served from the DAG cache
  offset_t widest_batch = 0;     // widest block solve executed
  real_t busy_s = 0;             // virtual seconds spent block-solving

  /// Mirror these counters into the obs metrics registry under th.rhs.*.
  void publish_metrics() const;

  /// Aggregation across engines (the serve layer sums per-session engines
  /// plus the stats of engines retired by refactors).
  RhsStats& operator+=(const RhsStats& o);
};

/// Terminal record of one block member.
struct RhsCompletion {
  enum class Status : char { kDone, kCancelled, kDeadlineMiss };

  std::uint64_t tag = 0;  // caller correlation, as given
  Status status = Status::kDone;
  real_t start_s = 0;   // virtual block-solve start
  real_t finish_s = 0;  // virtual block-solve finish
  /// The solution in the permuted ordering (kDone only; empty otherwise).
  std::vector<real_t> x;
  index_t batch_width = 0;  // live members of the executed block
};

const char* rhs_completion_status_name(RhsCompletion::Status s);

class RhsEngine {
 public:
  /// `fact` must outlive the engine (the serve layer retires an engine
  /// whenever a session's factorization is rebuilt). `sched` is the
  /// scheduling template for pricing the block solves — the policy is
  /// overridden per RhsOptions.
  RhsEngine(const PluFactorization& fact, const RhsOptions& opt,
            const ScheduleOptions& sched, const ProcessGrid& grid = {});

  /// Execute `block` (at most max_width members, each b of length n) as
  /// one block solve starting at virtual time `start_s`. Returns one
  /// completion per member: the shed members first (cancelled or expired
  /// in block order, then those due before the priced finish), then the
  /// solved ones in block order. A fully-shed block runs no solve.
  std::vector<RhsCompletion> execute(std::vector<RhsEntry> block,
                                     real_t start_s);

  /// Timing-only virtual cost of a width-`nrhs` block solve: the makespan
  /// a width-`nrhs` block solve charges, bit for bit. Valid before the
  /// numeric phase; priced once per width and engine (the pattern fixes
  /// it), so the serve layer can price every coalescing step.
  real_t estimate_s(index_t nrhs);

  /// Accounting, with dag_builds/dag_reuses refreshed from the DAG cache.
  const RhsStats& stats() const;

 private:
  RhsOptions opt_;
  index_t n_ = 0;
  BlockSolver solver_;
  std::map<index_t, real_t> estimates_;  // estimate_s by width
  mutable RhsStats stats_;
};

}  // namespace th::rhs
