// Distributed schedule simulation.
//
// Replays a finalized TaskGraph over P virtual ranks (one GPU per rank, as
// in the paper's MPI setup) under one of five scheduling policies:
//
//   kLevelPerTask    — SuperLU_DIST baseline: one kernel per task, tasks
//                      issued in (etree/DAG level, kernel type) order.
//   kPriorityPerTask — PanguLU baseline: one kernel per task, priority
//                      (diagonal-distance) order, no batching.
//   kMultiStream     — the paper's "PanguLU + 4 CUDA streams" variant:
//                      per-task kernels whose execution overlaps across
//                      streams while launches serialise on the host.
//   kDmdas           — PaStiX + StarPU 'dmdas' stand-in: per-task kernels,
//                      list scheduling with a data-locality bonus.
//   kTrojanHorse     — the paper's aggregate-and-batch strategy
//                      (Prioritizer + Container + Collector + Executor).
//
// Numerics (if a NumericBackend is supplied) execute on the host in the
// simulated order, so a single simulate() call both validates correctness
// and produces the modelled timeline. Passing a null backend replays
// timing only — used by the parameter sweeps after one validated run.
#pragma once

#include <optional>

#include "abft/abft.hpp"
#include "core/collector.hpp"
#include "core/container.hpp"
#include "core/executor.hpp"
#include "core/prioritizer.hpp"
#include "core/task_graph.hpp"
#include "mem/mem.hpp"
#include "resilience/checkpoint.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "support/cancel.hpp"

namespace th {

enum class Policy {
  kLevelPerTask,
  kPriorityPerTask,
  kMultiStream,
  kDmdas,
  kTrojanHorse,
};

const char* policy_name(Policy p);

using MemOptions = th::mem::MemOptions;

struct ScheduleOptions {
  Policy policy = Policy::kTrojanHorse;
  int n_ranks = 1;
  ClusterSpec cluster;  // device + interconnect model
  PrioritizerOptions prioritizer;
  CollectorOptions collector;
  Container::Discipline container = Container::Discipline::kHeap;
  int n_streams = 4;  // kMultiStream only
  /// Allow write-conflicting SSSSM tasks inside one batch via atomic
  /// accumulation (paper §2.3); disabling serialises them (ablation).
  bool allow_atomic_batching = true;
  /// Price execution with the CPU model instead of the GPU (Table 7
  /// CPU baselines). The CPU executes ready tasks in bulk per step.
  bool cpu_mode = false;
  CpuSpec cpu;
  /// Record every batch's member task ids (and conflict flags) in the
  /// result for post-hoc anatomy analysis (core/batch_stats.hpp). Off by
  /// default — it costs memory proportional to the task count.
  bool collect_batches = false;
  /// Fault-injection & recovery plan (src/fault). The default plan is
  /// empty: simulate() takes the exact fault-free path and its output is
  /// unchanged (zero-overhead off switch).
  FaultPlan faults;
  /// ABFT checksum protection for the executed numeric path (src/abft):
  /// detect corrupt task output, roll the target back and re-run the task
  /// in a later batch (batch_status 3), escalating to post-solve iterative
  /// refinement when the retry budget runs out. Inert on timing-only
  /// replays (null backend). thsolve_cli --abft / --abft-retries.
  abft::AbftOptions abft;
  /// Host-side numeric batch-execution knobs (workers/accum/watchdog).
  ExecOptions exec;
  /// Memory-pressure robustness (src/mem): byte-accurate per-rank budget
  /// enforcement with the shrink-batch -> spill-cold-tiles -> OomError
  /// degradation ladder. budget_bytes == 0 (the default) keeps the exact
  /// unaccounted path — output is bit-identical to a build without the
  /// subsystem. thsolve_cli --mem-gib / --spill-dir / --mem-policy.
  MemOptions mem;
  /// Periodic coordinated checkpointing (src/resilience/checkpoint.hpp).
  /// Off by default — fault-free runs with checkpointing off are
  /// bit-identical to a build without the subsystem.
  CheckpointPolicy checkpoint;
  /// Resume a run from this snapshot instead of starting at t=0: the
  /// remaining schedule replays bit-identically to the trace suffix of the
  /// original run (heap container discipline). Timing-only — the backend
  /// must be null, since pre-checkpoint numeric state is not stored. The
  /// last checkpoint a run takes comes back on
  /// ScheduleResult::stats().checkpoint.
  std::optional<CheckpointState> resume;
  /// Run the post-hoc schedule validator (resilience/validate.hpp) on the
  /// result before returning; throws th::Error on any invariant violation.
  /// Implies collect_batches.
  bool validate_schedule = false;
  /// Cooperative cancellation (borrowed; may be shared with a controller
  /// thread). Polled at every batch boundary — the only points with no
  /// batch in flight — so a fired token unwinds simulate() with lanes
  /// drained and the run-local ledgers freed deterministically, throwing
  /// CancelledError at the first boundary whose simulated time satisfies
  /// the token. Null (the default) keeps the exact unpolled path. The
  /// serve layer arms this with per-request deadlines (DESIGN.md §14).
  const CancelToken* cancel = nullptr;

  /// Reject garbage configurations (non-positive rank/stream/worker
  /// counts, broken cluster specs, malformed fault/checkpoint plans) by
  /// throwing th::Error. simulate() calls this up front; CLI/bench code
  /// may call it earlier for friendlier reporting.
  void validate() const;
};

struct RankStats {
  offset_t kernels = 0;
  real_t busy_s = 0;
  offset_t flops = 0;
};

/// Per-batch anatomy, one entry per launched batch in launch order.
/// Replaces the three parallel batch_members/batch_had_conflict/
/// batch_status vectors the result used to carry.
struct BatchLog {
  struct Batch {
    /// Member task ids in batch position order.
    std::vector<index_t> members;
    /// Per-member outcome, parallel to members: 0 = completed, 1 =
    /// transient fault (a retry appears later), 2 = had completed but the
    /// work was lost to a rank restart and re-executed later, 3 = output
    /// failed its ABFT checksum — rolled back, a retry appears later. The
    /// schedule validator keys its completion accounting on this.
    std::vector<char> status;
    /// Whether the batch contained an atomic (write-conflicting) member.
    bool had_conflict = false;
  };

  std::vector<Batch> batches;

  std::size_t size() const { return batches.size(); }
  bool empty() const { return batches.empty(); }
  Batch& operator[](std::size_t i) { return batches[i]; }
  const Batch& operator[](std::size_t i) const { return batches[i]; }
  Batch& back() { return batches.back(); }
  const Batch& back() const { return batches.back(); }
};

/// The result's non-scalar accounting, gathered on one surface: per-rank
/// totals, the batch log, and the per-subsystem reports. The obs metrics
/// registry mirrors these counters at the end of an observed run
/// (DESIGN.md §12 lists the name mapping).
struct ScheduleStats {
  /// Per-rank kernel/busy/flop totals.
  std::vector<RankStats> ranks;
  /// Batch anatomy (only when ScheduleOptions::collect_batches was set).
  BatchLog batches;
  /// Resilience accounting: faults injected, retries/backoff priced,
  /// tasks migrated off dead ranks, guard firings (src/fault).
  FaultReport faults;
  /// Last coordinated checkpoint the run took — empty() unless a
  /// CheckpointPolicy triggered. Replaces ScheduleOptions::checkpoint_out.
  CheckpointState checkpoint;
  /// ABFT detect-and-retry accounting (src/abft). enabled only when the
  /// run actually executed numerics under checksum protection.
  abft::AbftStats abft;
  /// Host-runtime counters from the parallel batch executor (wall/busy/
  /// span seconds, per-target whole-task groups and their ordered
  /// reductions). Zeros on timing-only replays — simulated time never
  /// depends on them.
  exec::ExecStats exec;
  /// Memory-robustness accounting (budget high water, tiles spilled and
  /// reloaded, batches shrunk, pressure events). enabled only when the run
  /// carried a memory budget.
  mem::MemStats mem;
};

struct ScheduleResult {
  Trace trace;
  real_t makespan_s = 0;
  offset_t kernel_count = 0;
  real_t mean_batch_size = 0;
  offset_t comm_bytes = 0;   // bytes crossing rank boundaries
  offset_t comm_messages = 0;
  offset_t atomic_tasks = 0;    // SSSSM tasks batched with a write conflict
  offset_t deferred_tasks = 0;  // conflicting tasks pushed back (atomic off)

  /// All non-scalar accounting (ranks, batch log, fault/abft/exec reports,
  /// last checkpoint).
  ScheduleStats& stats() { return stats_; }
  const ScheduleStats& stats() const { return stats_; }

  /// Aggregate delivered GFLOPS = total flops / makespan.
  real_t achieved_gflops() const {
    return makespan_s > 0
               ? static_cast<real_t>(trace.total_flops()) / makespan_s / 1e9
               : 0;
  }

 private:
  ScheduleStats stats_;
};

/// The schedule a simulate() formed, kept so that later factorizations of
/// the same pattern under the same scheduling options can skip the event
/// loop (replay()). A clean run's batches and modelled timeline depend only
/// on the task graph and the scheduling options, never on the values.
struct SchedulePlan {
  /// Whether the recording run was replay-eligible. Otherwise only
  /// `result` is filled: its makespan still prices the pattern.
  bool replayable = false;
  /// Loop iteration i polled the cancel token at simulated instant
  /// polls[i], then launched ids[batch_ptr[i], batch_ptr[i + 1]) —
  /// nothing, when only stale entries were pending. A clean run completes
  /// every task once, so ids holds each task id exactly once. Read per
  /// target tile, the ids are the order in which that tile's updates land.
  std::vector<real_t> polls;
  std::vector<index_t> batch_ptr;  // polls.size() + 1 offsets into ids
  std::vector<index_t> ids;
  /// The run's modelled result; stats().exec is zeroed, since a replay
  /// measures its own.
  ScheduleResult result;

  real_t makespan_s() const { return result.makespan_s; }
};

/// The fixed replay rule: a run may replay a plan unless it asks for
/// faults or guards, ABFT, a memory budget, checkpoints, resume,
/// validate_schedule or collect_batches. Those runs take the live path.
bool replay_eligible(const ScheduleOptions& opt);

/// Simulate (and optionally numerically execute) the task graph.
/// Tasks' owner_rank fields must be < opt.n_ranks. With `plan` non-null
/// the run also records its SchedulePlan there (replayable only when
/// replay_eligible(opt)).
ScheduleResult simulate(const TaskGraph& graph, const ScheduleOptions& opt,
                        NumericBackend* backend,
                        SchedulePlan* plan = nullptr);

/// Run `plan`'s batches through the Executor with no event loop, Collector
/// or pricing: poll opt.cancel at the recorded instants (a deadline
/// unwinds at the same boundary, with the same at_s, as the live run),
/// then return the plan's modelled result with freshly measured
/// ExecStats. `plan` must come from simulate() on this graph under the
/// same scheduling options (exec and cancel may differ). A run that is
/// not replay_eligible, or a plan that is not replayable, takes the live
/// path: simulate(graph, opt, backend), the plan unread.
ScheduleResult replay(const TaskGraph& graph, const SchedulePlan& plan,
                      const ScheduleOptions& opt, NumericBackend* backend);

}  // namespace th
