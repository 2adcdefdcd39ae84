// RhsEngine — batched multi-RHS SpTRSV serving engine (`th::rhs`,
// DESIGN.md §15).
//
// Composes the RhsBatcher (admission/coalescing, close policy) with the
// BlockSolver (cached solve DAGs priced under priority-DAG or level-set
// scheduling, in-order numerics) into the repeated-solve hot path of a
// factor-once/solve-many service:
//
//   submit()  — enqueue a right-hand side (permuted ordering) with its
//               deadline and cancel token;
//   advance() — close every batch the policy says is due (width reached,
//               oldest entry timed out) and execute each as ONE block
//               solve; members cancelled or past their deadline are shed
//               at the batch boundary, never mid-solve;
//   flush()   — drain the queue through (possibly narrow) final batches.
//
// The clock is virtual — the caller passes `now_s`, the engine charges
// the simulated block-solve makespans — so batching decisions and
// completion times are bit-reproducible from the submission sequence. The
// numerics execute for real on the host, in order on the calling thread
// (tri_solve_in_order). Every counter mirrors into the obs
// registry as th.rhs.* (publish_metrics), and each block solve emits a
// recorder span on the dedicated "rhs engine" track.
#pragma once

#include <cstdint>
#include <vector>

#include "rhs/batcher.hpp"
#include "rhs/solve_dag.hpp"

namespace th::rhs {

/// Engine accounting; mirrors into the obs registry as th.rhs.* via
/// publish_metrics() so registry snapshots reconcile with this struct by
/// construction. Every submitted entry ends in exactly one of
/// solved/cancelled/deadline_misses.
struct RhsStats {
  offset_t submitted = 0;
  offset_t solved = 0;           // right-hand sides solved to completion
  offset_t cancelled = 0;        // shed at a batch boundary (token fired)
  offset_t deadline_misses = 0;  // shed at a batch boundary (past deadline)
  offset_t batches = 0;          // block solves executed
  offset_t close_width = 0;      // batches closed by the width cap
  offset_t close_timeout = 0;    // batches closed by the wait bound
  offset_t close_flush = 0;      // batches closed by an explicit flush
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

/// Terminal record of one submitted right-hand side.
struct RhsCompletion {
  enum class Status : char { kDone, kCancelled, kDeadlineMiss };

  std::int64_t id = -1;   // batcher ticket
  std::uint64_t tag = 0;  // caller correlation, as submitted
  Status status = Status::kDone;
  real_t arrival_s = 0;
  real_t start_s = 0;   // virtual block-solve start
  real_t finish_s = 0;  // virtual block-solve finish
  /// The solution in the permuted ordering (kDone only; empty otherwise).
  std::vector<real_t> x;
  index_t batch_width = 0;  // live members of the executed block
  CloseReason close = CloseReason::kFlush;
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

  /// Enqueue a right-hand side (e.b in the permuted ordering, length n).
  /// Returns the batcher ticket.
  std::int64_t submit(RhsEntry e, real_t now_s);

  /// Execute every batch the close policy says is due at `now_s`.
  std::vector<RhsCompletion> advance(real_t now_s);

  /// Drain the queue: close and execute the remainder too.
  std::vector<RhsCompletion> flush(real_t now_s);

  /// Timing-only virtual cost of a width-`nrhs` block solve (valid before
  /// the numeric phase; the serve layer prices admission with this).
  real_t estimate_s(index_t nrhs);

  int depth() const { return batcher_.depth(); }
  const RhsOptions& options() const { return opt_; }

  /// Accounting, with dag_builds/dag_reuses refreshed from the DAG cache.
  const RhsStats& stats() const;

 private:
  void execute(RhsBatch batch, std::vector<RhsCompletion>& out);

  RhsOptions opt_;
  index_t n_ = 0;
  BlockSolver solver_;
  RhsBatcher batcher_;
  mutable RhsStats stats_;
};

}  // namespace th::rhs
