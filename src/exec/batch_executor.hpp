// BatchExecutor — the paper's Executor (§3.4) realised on host threads:
// one heterogeneous batch becomes one fork-join on a persistent WorkerPool.
// The batch's members are grouped by target tile (row, col); each group
// runs whole (NumericBackend::run_task), in batch position order, in place,
// on one lane, and groups go to lanes round-robin in first-member order.
// A target's updates therefore reach it in the simulated order at any
// width, so results are bit-reproducible across thread counts with no
// scratch and no serial epilogue, and per-lane work never depends on how
// the OS schedules the lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/backend.hpp"
#include "exec/worker_pool.hpp"

namespace th::exec {

/// Aggregate counters over every batch executed by one BatchExecutor.
struct ExecStats {
  real_t wall_s = 0;  // wall-clock spent inside execute()
  real_t busy_s = 0;  // summed per-lane CPU time (thread CPU clock) plus
                      // the caller's serial share
  real_t span_s = 0;  // critical path: the serial share plus the
                      // slowest lane of each batch. Measured with the
                      // per-thread CPU clock, so it stays meaningful when
                      // the machine has fewer cores than lanes.
  /// Always 0: every member runs whole through run_task, so there is no
  /// fallback path. Kept because the frozen perfbench harness reads it.
  long fallback_tasks = 0;
  long det_reductions = 0;  // members run after an earlier member of the
                            // same target (the ordered reductions)
  int workers = 1;          // current (responsive) pool width
  int batches = 0;          // execute() calls
  int lanes_degraded = 0;   // lanes the watchdog wrote off as hung
  long stragglers = 0;      // batches that waited out a slow claimed lane

  /// Mirror these counters into the obs metrics registry under th.exec.*
  /// (called by the scheduler at the end of every observed run, so
  /// registry snapshots reconcile with ScheduleResult by construction).
  void publish_metrics() const;
};

/// Optional per-batch ABFT exchange for execute(): the scheduler fills the
/// inputs (enable flag, tolerance, silent corruptions to plant after the
/// kernels run but before verification — the test stand-in for an SDC
/// mid-kernel); the executor fills the outputs. Members skipped via `skip`
/// are neither sabotaged nor verified.
struct BatchVerify {
  bool abft = false;    // capture + verify checksums this batch
  real_t rel_tol = 1e-8;
  /// (member index, kind) silent corruptions to plant post-execution.
  std::vector<std::pair<std::size_t, NumericFaultKind>> sabotage;

  // Outputs.
  std::vector<char> outcome;  // per member: 1 = checksum mismatch (corrupt)
  offset_t sabotaged = 0;     // corruptions actually planted
  offset_t verified = 0;      // members checksum-verified
  real_t capture_s = 0;       // serial capture time (host)
  real_t verify_s = 0;        // serial verification time (host)
};

struct BatchExecOptions {
  int n_threads = 1;
  /// WorkerPool hung-lane watchdog period in seconds; 0 disables. A lane
  /// that never starts its work within the period is taken over by the
  /// caller and the pool degrades to the responsive width.
  real_t watchdog_s = 0;
  /// Borrow an existing pool instead of spawning one (n_threads is then
  /// ignored; the pool's width rules). The serve layer runs every
  /// session's batches over ONE process-wide pool this way, so admitting a
  /// request costs no thread churn and a misbehaving tenant cannot
  /// multiply OS threads. The pool must outlive the executor; watchdog
  /// configuration is left to the pool's owner.
  WorkerPool* shared_pool = nullptr;
};

class BatchExecutor {
 public:
  explicit BatchExecutor(const BatchExecOptions& opt);

  int n_threads() const { return pool_->width(); }
  const ExecStats& stats() const { return stats_; }

  /// Execute one batch: members sharing a target run in batch order on
  /// one lane (where the modelled GPU resolves such a write conflict with
  /// atomicAdd); members flagged in `skip` are not executed — their
  /// simulated kernel crashed, so they are priced but re-run by the
  /// scheduler on a later attempt.
  /// With `verify` non-null the batch runs checksum-protected (and/or
  /// sabotaged): outcomes land in verify->outcome for the scheduler's
  /// detect-and-retry pass. Rethrows the first exception a lane's job
  /// body threw (WorkerPool containment).
  void execute(NumericBackend& backend, const std::vector<const Task*>& tasks,
               const std::vector<char>* skip, BatchVerify* verify = nullptr);

  /// Direct pool access (tests: hang injection, degrade inspection).
  WorkerPool& pool() { return *pool_; }
  bool pool_is_shared() const { return own_pool_ == nullptr; }

 private:
  std::unique_ptr<WorkerPool> own_pool_;  // null when borrowing shared_pool
  WorkerPool* pool_;
  ExecStats stats_;
  std::vector<real_t> lane_busy_;  // per-lane CPU seconds, last batch
  std::vector<int> group_;         // per member: target group, -1 = skipped
  std::unordered_map<std::uint64_t, int> group_of_;  // target -> group
};

}  // namespace th::exec
