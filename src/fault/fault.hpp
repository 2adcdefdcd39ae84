// Fault injection & recovery (`th::fault`): the simulated cluster's
// unhappy paths.
//
// Real deployments of the paper's 16-GPU clusters (Table 3) see GPU hangs,
// flaky links and numerically hostile tiles; task-based solver runtimes
// treat worker loss and task re-execution as first-class events. This
// module gives the schedule simulator a deterministic, seeded fault model
// plus the recovery machinery the scheduler prices into the timeline:
//
//   * transient kernel faults  -> bounded retry with exponential backoff,
//   * rank (GPU) failure       -> pending work migrated to survivors via a
//                                 re-run block-cyclic owner map, or the
//                                 rank degrades to CPU-model execution,
//   * link degradation         -> bandwidth derate per node pair,
//   * numeric corruption       -> NaN/Inf or near-singular pivots planted
//                                 in tiles; executor guards scrub/perturb
//                                 and flag post-solve refinement.
//
// Every draw is a pure function of (plan seed, task id, attempt), so two
// simulations of the same FaultPlan are bit-identical — the replay tests
// rely on this.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "support/error.hpp"

namespace th {

// ---- Numeric faults & guards --------------------------------------------

enum class NumericFaultKind : std::uint8_t {
  kNaN,        // plant a quiet NaN in the task's target block
  kInf,        // plant an Inf in the task's target block
  kTinyPivot,  // shrink a diagonal entry toward singularity (GETRF targets)
  // Silent-data-corruption kinds (src/abft). Unlike the three above, which
  // are planted *before* the task runs and caught by the executor's
  // NaN/Inf guards, these are planted into the task's freshly written
  // output — the stand-in for a bit flip mid-kernel. Guards never see
  // them; only the ABFT checksum verifier can.
  kBitFlip,      // flip a sign/exponent bit of one output entry
  kScaledEntry,  // scale the largest output entry by a large factor
  kSilentNaN,    // overwrite one output entry with a quiet NaN
};

const char* numeric_fault_name(NumericFaultKind k);

/// Kinds planted post-execution (detected by ABFT, not by the guards).
inline bool silent_fault_kind(NumericFaultKind k) {
  return k == NumericFaultKind::kBitFlip || k == NumericFaultKind::kScaledEntry ||
         k == NumericFaultKind::kSilentNaN;
}

/// Guard thresholds applied by the Executor after GETRF/SSSSM tasks.
struct GuardPolicy {
  /// A GETRF pivot with |d| < tiny_pivot_rel * max|tile| is perturbed to
  /// +-tiny_pivot_rel * max|tile| (the static-pivoting trick SuperLU_DIST
  /// uses); accuracy is recovered by post-solve iterative refinement.
  real_t tiny_pivot_rel = 1e-8;
};

/// What the guards found (and repaired) while scanning task output.
struct GuardReport {
  offset_t nonfinite_scrubbed = 0;  // NaN/Inf entries replaced with zero
  offset_t pivots_perturbed = 0;    // tiny diagonals bumped off zero
  offset_t tasks_fired = 0;         // tasks where at least one guard fired

  bool fired() const { return nonfinite_scrubbed > 0 || pivots_perturbed > 0; }
  void merge(const GuardReport& o) {
    nonfinite_scrubbed += o.nonfinite_scrubbed;
    pivots_perturbed += o.pivots_perturbed;
    tasks_fired += o.tasks_fired;
  }
};

// ---- Fault plan -----------------------------------------------------------

/// How a failed rank's work is recovered.
enum class RankRecovery : std::uint8_t {
  kMigrate,     // redistribute pending tasks over the surviving ranks
  kCpuFallback, // the rank keeps running, priced with the CPU model
  /// The rank restarts and resumes from the last coordinated checkpoint
  /// (src/resilience/checkpoint.hpp): work completed since that checkpoint
  /// is re-executed after a priced restore, but the rank rejoins at full
  /// speed instead of permanently shrinking the cluster.
  kRestartFromCheckpoint,
};

const char* rank_recovery_name(RankRecovery r);

struct RankFailure {
  int rank = 0;
  real_t time_s = 0;  // simulation time at which the GPU dies
  RankRecovery recovery = RankRecovery::kMigrate;
};

/// Deterministic replay order for fault events. Faults at the same
/// simulated timestamp apply in (time, rank, recovery) order — NEVER in
/// container order, so two FaultPlans listing the same failures in a
/// different order replay bit-identically (locked by a regression test).
inline bool fault_order_less(const RankFailure& a, const RankFailure& b) {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.rank != b.rank) return a.rank < b.rank;
  return static_cast<int>(a.recovery) < static_cast<int>(b.recovery);
}

/// Bandwidth derate on the links between two nodes (node pair is
/// unordered; factor f >= 1 divides the modelled link bandwidth by f).
struct LinkDegrade {
  int node_a = 0;
  int node_b = 0;
  real_t bw_factor = 1.0;
};

/// Corruption planted into one task's target block: pre-execution for the
/// guard-visible kinds, post-execution for the silent (ABFT) kinds.
struct NumericFault {
  index_t task_id = -1;
  NumericFaultKind kind = NumericFaultKind::kNaN;
};

/// Memory-pressure event (the `mem_pressure` fault kind, src/mem): at
/// `time_s` the modelled device capacity of `rank` (or every rank, -1)
/// shrinks to `capacity_factor` of its current value — the stand-in for a
/// co-tenant allocation, fragmentation, or a driver reserving memory.
/// Multiple ramps on one rank compound. Only meaningful when the run has a
/// memory budget (ScheduleOptions::mem); otherwise inert.
struct MemPressure {
  int rank = -1;          // -1 = every rank
  real_t time_s = 0;
  real_t capacity_factor = 1.0;  // in (0, 1]: multiplies the capacity
};

/// Deterministic replay order for same-timestamp pressure events,
/// mirroring fault_order_less for rank failures.
inline bool mem_pressure_order_less(const MemPressure& a,
                                    const MemPressure& b) {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.capacity_factor < b.capacity_factor;
}

/// Deterministic process-death injection for the durability layer
/// (`crash=EVENT@N` in the fault-spec vocabulary): the serving process is
/// killed immediately before the N-th journal append of the named event.
/// Events are the write-ahead journal's own vocabulary — "open", "commit",
/// "retire" — plus "append", which counts every journal append regardless
/// of kind. The scheduler ignores crashes entirely (they are serve-level,
/// not schedule-level, so FaultPlan::empty() deliberately excludes them
/// and the fault-free fast path is untouched).
struct DurabilityCrash {
  std::string event = "commit";
  offset_t after = 1;  // crash before the after-th matching append (1-based)
};

/// True for the crash-point event names the journal recognises. Inline so
/// the spec codec (th_support) parses crash points without linking
/// th_fault.
inline bool valid_crash_event(const std::string& event) {
  return event == "open" || event == "commit" || event == "retire" ||
         event == "append";
}

/// A deterministic, seeded description of everything that goes wrong
/// during one simulated factorisation. Default-constructed plans are
/// empty: the scheduler takes the exact fault-free code path and produces
/// bit-identical results to a build without this subsystem.
struct FaultPlan {
  std::uint64_t seed = 0x7f4a7c15;

  /// Per-attempt transient kernel-fault probability per task class,
  /// indexed by TaskType (GETRF, TSTRF, GEESM, SSSSM).
  std::array<real_t, 4> transient_prob{{0, 0, 0, 0}};

  std::vector<RankFailure> rank_failures;
  std::vector<LinkDegrade> link_degrades;
  std::vector<NumericFault> numeric_faults;

  /// Durability crash points (serve-level; see DurabilityCrash). Ignored
  /// by the scheduler and excluded from empty(): a plan that only crashes
  /// the serving process must not perturb the simulated schedule.
  std::vector<DurabilityCrash> crashes;

  /// Memory-pressure ramps (shrinking modelled capacity; src/mem) and the
  /// per-allocation transient failure probability — the mem_pressure fault
  /// kind. Both are inert unless the run has a memory budget.
  std::vector<MemPressure> mem_pressure;
  real_t mem_alloc_fail_prob = 0;

  /// Enable the executor's NaN/Inf + tiny-pivot guards (automatically
  /// exercised by planted numeric faults, but genuine overflow/breakdown
  /// is caught too). Off by default: scanning costs host time.
  bool numeric_guards = false;
  GuardPolicy guard;

  /// Retry budget per task; exceeding it aborts the run with th::Error.
  int max_retries = 3;
  /// Exponential backoff priced into the timeline before attempt k+1:
  /// backoff_base_s * backoff_multiplier^(k-1) after the k-th failure.
  real_t backoff_base_s = 50e-6;
  real_t backoff_multiplier = 2.0;

  bool has_transient() const {
    for (real_t p : transient_prob) {
      if (p > 0) return true;
    }
    return false;
  }

  bool has_mem_pressure() const {
    return !mem_pressure.empty() || mem_alloc_fail_prob > 0;
  }

  /// True when the plan injects nothing and enables no guards; the
  /// scheduler's zero-overhead off switch.
  bool empty() const {
    return !has_transient() && rank_failures.empty() &&
           link_degrades.empty() && numeric_faults.empty() &&
           !has_mem_pressure() && !numeric_guards;
  }

  real_t transient_p(TaskType t) const {
    return transient_prob[static_cast<std::size_t>(t)];
  }
  void set_transient_all(real_t p) { transient_prob.fill(p); }

  /// Crude MTBF plug-in estimate for the Young/Daly interval: the span of
  /// the planned rank failures divided by their count (0 when the plan
  /// kills no rank — auto checkpointing then stays off).
  real_t estimated_mtbf_s() const;

  /// Bandwidth derate (>= 1) between two nodes; 1 when undegraded.
  real_t link_bw_factor(int node_a, int node_b) const;

  /// Backoff delay before retry `attempt` (1-based: first retry = 1).
  real_t backoff_s(int attempt) const;

  /// Throws th::Error on out-of-range ranks, probabilities outside [0, 1],
  /// non-positive budgets/backoffs or degrade factors < 1.
  void validate(int n_ranks) const;
};

/// Deterministic transient-fault draw for one execution attempt (0-based)
/// of one task. Pure function of (plan.seed, task_id, attempt).
bool transient_fault_fires(const FaultPlan& plan, index_t task_id,
                           int attempt, TaskType type);

/// Deterministic transient-allocation-failure draw for allocation number
/// `alloc_seq` on `rank` (each rank counts its batch allocations). Pure
/// function of (plan.seed, rank, alloc_seq), so two simulations of one
/// plan fail the identical allocations.
bool mem_alloc_fails(const FaultPlan& plan, int rank, offset_t alloc_seq);

/// Re-run 2-D block-cyclic ownership of block (row, col) over the ordered
/// surviving-rank list (the most-square grid factorisation of
/// survivors.size(), mirroring solvers/block_cyclic.hpp).
int remap_owner(index_t row, index_t col, const std::vector<int>& survivors);

// ---- Fault report ---------------------------------------------------------

/// Resilience accounting attached to every ScheduleResult. The invariant
/// the tests (and the schedule validator) enforce:
/// injected() == handled() + fatal_faults — every injected fault is either
/// retried, migrated/degraded, re-executed after a checkpoint restart,
/// caught by a guard, or explicitly recorded as fatal.
struct FaultReport {
  offset_t transient_faults = 0;   // transient kernel faults injected
  offset_t retries = 0;            // re-executions scheduled
  real_t backoff_delay_s = 0;      // total backoff priced into the timeline
  int ranks_failed = 0;            // rank failures applied
  offset_t tasks_migrated = 0;     // tasks moved off dead ranks
  offset_t cpu_fallback_tasks = 0; // tasks priced on the CPU model instead
  offset_t numeric_faults_injected = 0;
  GuardReport guards;              // what the executor guards found/repaired
  bool escalate_refinement = false;  // guards fired: run refinement post-solve
  /// Makespan of the matching fault-free schedule (filled by run_solver /
  /// the benches via a timing-only replay; -1 when not computed).
  real_t fault_free_makespan_s = -1;
  // ---- Checkpoint/restart accounting (src/resilience) -------------------
  int checkpoints_taken = 0;       // coordinated checkpoints written
  real_t checkpoint_write_s = 0;   // total write pauses priced, all ranks
  real_t restore_s = 0;            // restore pauses priced by restarts
  int ranks_restarted = 0;         // kRestartFromCheckpoint recoveries
  offset_t tasks_restarted = 0;    // completed work lost & re-executed
  /// Corrupt tasks the ABFT layer absorbed: rolled back + re-queued, or
  /// accepted with refinement escalation after the retry budget ran out.
  offset_t abft_corrected = 0;
  /// Faults that no recovery absorbed (populated by harnesses that catch
  /// an aborted run, e.g. retry-budget exhaustion under chaos soak — and
  /// by the scheduler for silent corruption planted with ABFT disabled).
  offset_t fatal_faults = 0;

  offset_t injected() const {
    return transient_faults + tasks_migrated + cpu_fallback_tasks +
           tasks_restarted + numeric_faults_injected;
  }
  offset_t handled() const {
    return retries + tasks_migrated + cpu_fallback_tasks + tasks_restarted +
           guards.tasks_fired + abft_corrected;
  }
  bool fully_accounted() const {
    // One-sided on purpose: recovery may legitimately over-count (a guard
    // firing on genuine breakdown, or ABFT flagging every member of a
    // corrupt shared SSSSM target from one injection); what must never
    // happen is an injected fault nothing absorbed.
    return injected() <= handled() + fatal_faults;
  }
  bool any() const {
    return transient_faults > 0 || ranks_failed > 0 || tasks_migrated > 0 ||
           cpu_fallback_tasks > 0 || numeric_faults_injected > 0 ||
           tasks_restarted > 0 || ranks_restarted > 0 || fatal_faults > 0 ||
           abft_corrected > 0 || guards.fired();
  }
  /// Extra makespan attributable to faults (requires fault_free_makespan_s).
  real_t overhead_s(real_t faulted_makespan_s) const {
    return fault_free_makespan_s >= 0
               ? faulted_makespan_s - fault_free_makespan_s
               : -1;
  }

  /// Mirror these counters into the process-wide obs metrics registry
  /// under th.fault.* / th.ckpt.* (the scheduler calls this at the end of
  /// every observed run, so registry snapshots reconcile with the
  /// ScheduleResult by construction).
  void publish_metrics() const;
};

}  // namespace th
