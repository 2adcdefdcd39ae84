// Executor — Batch-stage module 2 (paper §3.4).
//
// Runs one heterogeneous batch as a single simulated kernel launch:
// * the numeric bodies execute on the host through exec::BatchExecutor — a
//   persistent worker pool that runs the members of each target tile
//   whole, in batch order, on one lane, so write-conflicting SSSSM members
//   accumulate in the simulated order at any width;
// * the simulated duration comes from the KernelCostModel, which derives
//   occupancy from the batch's summed CUDA-block counts (Figure 7).
#pragma once

#include <memory>
#include <vector>

#include "core/task_graph.hpp"
#include "exec/backend.hpp"
#include "exec/batch_executor.hpp"
#include "fault/fault.hpp"
#include "sim/device.hpp"

namespace th {

/// Host-side numeric batch-execution knobs (exec::BatchExecutor), grouped
/// the way `faults`/`abft`/`checkpoint` already are on ScheduleOptions
/// (which nests one of these as `.exec`).
struct ExecOptions {
  /// Host threads for numeric batch execution (exec::BatchExecutor
  /// lanes). thsolve_cli --threads / TH_THREADS.
  int workers = 1;
  /// Inert: accumulation is always deterministic. Kept because the frozen
  /// perfbench harness still sets it.
  exec::AccumMode accum = exec::AccumMode::kDeterministic;
  /// WorkerPool hung-lane watchdog period in seconds (0 disables): a lane
  /// that never starts within the period is taken over by the caller and
  /// the pool degrades to the responsive width for subsequent batches.
  real_t watchdog_s = 0;
  /// Execute batches on this existing pool instead of spawning one per
  /// simulate() call (`workers` is then ignored — the pool's width rules;
  /// the pool must outlive the run). The serve layer points every
  /// session's ScheduleOptions::exec here so all tenants share one
  /// process-wide lane set (DESIGN.md §14).
  exec::WorkerPool* pool = nullptr;
};

struct BatchResult {
  real_t seconds = 0;   // simulated total duration (host + device)
  real_t host_s = 0;    // host-side share (launch + per-task preparation)
  offset_t flops = 0;   // flops executed by the batch
  int tasks = 0;        // batch size
  GuardReport guards;   // numeric-guard findings (when guards enabled)
};

/// Fault-model controls for one batch execution.
struct ExecuteOptions {
  /// Members flagged here are priced (the kernel ran and crashed) but not
  /// executed numerically — the scheduler re-runs them on a later attempt,
  /// so each task's numerics still execute exactly once.
  const std::vector<char>* skip_numeric = nullptr;
  /// Run the backend's NaN/Inf + tiny-pivot guards after GETRF/SSSSM
  /// members.
  bool run_guards = false;
  GuardPolicy guard;
  /// ABFT exchange (borrowed): checksum capture/verify controls in,
  /// per-member corruption outcomes out (exec::BatchVerify). Null on
  /// unprotected batches. Verification runs before the guards — a guard
  /// repair on a target that later rolls back is discarded with it.
  exec::BatchVerify* verify = nullptr;
};

class Executor {
 public:
  /// `backend` may be null for timing-only replays (the numeric results
  /// were already validated in an earlier run, or run elsewhere); those
  /// start no threads. `opt.workers > 1` executes batch members on a
  /// persistent thread pool, one lane per target tile; `opt.watchdog_s`
  /// (0 = off) arms the pool's hung-lane watchdog.
  Executor(KernelCostModel model, NumericBackend* backend,
           const ExecOptions& opt = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Execute one batch. Members that update one target (atomicAdd on the
  /// modelled GPU) run in batch order on one host lane.
  BatchResult execute(const TaskGraph& graph,
                      const std::vector<index_t>& batch,
                      const ExecuteOptions& eo = {});

  /// Run the numerics of the members [first, last) as one batch, with no
  /// pricing and no fault controls — a clean plan's replay (replay()).
  /// Requires a backend.
  void run(const TaskGraph& graph, const index_t* first, const index_t* last);

  const KernelCostModel& model() const { return model_; }

  /// Aggregate runtime counters (wall/busy/span time, ordered reductions)
  /// over every batch executed so far. Default-constructed (zero
  /// counters) on timing-only replays.
  const exec::ExecStats& exec_stats() const;

 private:
  // Point tasks_ at the members [first, last).
  void gather(const TaskGraph& graph, const index_t* first,
              const index_t* last);

  KernelCostModel model_;
  NumericBackend* backend_;
  std::unique_ptr<exec::BatchExecutor> batch_exec_;  // null without backend
  // The batch's members and their costs, reused across batches so that
  // execute() allocates nothing once they have grown.
  std::vector<const Task*> tasks_;
  std::vector<TaskCost> costs_;
};

}  // namespace th
