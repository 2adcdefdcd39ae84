// NumericBackend — the contract between the schedulers/runtime and a
// solver core's numeric kernels.
//
// The baseline interface is task-granular: run_task() executes one
// GETRF/TSTRF/GEESM/SSSSM body whole. The block-level extension lets the
// BatchExecutor slice a task into its CUDA blocks (one block per target
// row/column, Figure 7) so several workers can cooperate on a single large
// task; backends that do not override it keep whole-task execution via the
// runtime's fallback path.
//
// Host accumulation has one mode: write-conflicting SSSSM members of a
// batch accumulate into private scratch folded in batch order, or run
// whole in the ordered epilogue (DESIGN.md "Accumulation"). The modelled
// GPU still resolves such conflicts with atomicAdd; that is priced by the
// cost model (ScheduleOptions::allow_atomic_batching), not executed here.
#pragma once

#include <vector>

#include "core/task.hpp"
#include "fault/fault.hpp"
#include "support/error.hpp"

namespace th {

namespace exec {

/// Inert: deterministic accumulation is the only host mode. Kept declared
/// because the frozen perfbench harness still names it.
enum class AccumMode {
  kDeterministic,
};

}  // namespace exec

/// Solver-side numeric execution of a single task. Implementations must be
/// safe to call concurrently for tasks within one batch (the scheduler
/// guarantees batched tasks are mutually independent except for SSSSM
/// write conflicts, which the runtime never runs concurrently in place).
class NumericBackend {
 public:
  virtual ~NumericBackend() = default;
  /// The bool is inert (always false); the frozen perfbench harness
  /// overrides this signature.
  virtual void run_task(const Task& t, bool) = 0;

  /// Plant a numeric fault into the task's target block before it runs
  /// (fault-injection testing). Returns false when the backend has no
  /// storage for the block or does not support injection.
  virtual bool inject_fault(const Task& t, NumericFaultKind kind) {
    (void)t;
    (void)kind;
    return false;
  }

  /// Scan (and repair) the task's freshly written output: scrub NaN/Inf
  /// entries to zero, perturb near-zero GETRF pivots per `policy`. Called
  /// by the Executor after GETRF/SSSSM tasks when guards are enabled;
  /// serialised by the caller (no concurrent guard calls).
  virtual GuardReport guard_task(const Task& t, const GuardPolicy& policy) {
    (void)t;
    (void)policy;
    return {};
  }

  // ---- ABFT extension (src/abft, DESIGN.md §11) -------------------------
  //
  // Checksum-protected execution: before the parallel phase the
  // BatchExecutor calls abft_capture_plan() serially for every member and
  // then drains abft_capture_run() jobs on its worker lanes (the heavy
  // snapshot/checksum work, one job per distinct target); after the phase
  // it calls abft_verify() grouped by target — concurrently for different
  // targets — and reports mismatches upward. The *scheduler* then decides
  // whether to abft_rollback() (re-run later) or accept, and drops the
  // per-batch context with abft_reset(). The defaults make every backend
  // trivially ABFT-transparent: capture degrades to the serial
  // abft_capture() and verify always passes.

  /// Snapshot the task's target block and record its pre-execution
  /// row/column checksums. Serial.
  virtual void abft_capture(const Task& t) { (void)t; }

  /// Cheap serial half of capture: register the member and queue its
  /// target's heavy capture work. Backends without a parallel split do the
  /// whole capture here.
  virtual void abft_capture_plan(const Task& t) { abft_capture(t); }

  /// Number of heavy capture jobs queued by abft_capture_plan() calls.
  virtual std::size_t abft_capture_jobs() { return 0; }

  /// Run queued capture job `job`. Must be safe to call concurrently for
  /// distinct job indices.
  virtual void abft_capture_run(std::size_t job) { (void)job; }

  /// Check the kernel-type checksum invariant on the freshly written
  /// target; returns false when the output is corrupt. Called after the
  /// parallel phase, possibly concurrently for members of DIFFERENT
  /// targets (the executor serialises members sharing one target).
  virtual bool abft_verify(const Task& t, real_t rel_tol) {
    (void)t;
    (void)rel_tol;
    return true;
  }

  /// Restore the task's target to its pre-batch snapshot (for a re-run in
  /// a later batch). Only valid between capture and reset.
  virtual void abft_rollback(const Task& t) { (void)t; }

  /// Drop the per-batch ABFT context (end of outcome processing).
  virtual void abft_reset() {}

  // ---- Out-of-core extension (src/mem, DESIGN.md §13) -------------------
  //
  // When the scheduler spills a cold factor tile out of core it asks the
  // backend for the tile's dense payload (written to a TileStore "THTS"
  // file) and hands the exact bytes back before a consumer batch runs.
  // Reload restores the identical payload, so accumulation stays
  // bit-reproducible with spilling on or off. The defaults opt out: an
  // empty payload means "nothing to persist" and the scheduler prices the
  // spill in the model only.

  /// The task's target-block payload in dense column-major order, or empty
  /// when the backend has no storage for it. Serial.
  virtual std::vector<real_t> extract_block(const Task& t) {
    (void)t;
    return {};
  }

  /// Restore a payload previously returned by extract_block(). Serial,
  /// before any batch member touches the block.
  virtual void restore_block(const Task& t, const std::vector<real_t>& data) {
    (void)t;
    (void)data;
  }

  // ---- Block-level extension (exec::BatchExecutor) ----------------------

  /// Inert: nothing calls it, since tiles are dense from assembly and a
  /// task needs no preparation before its slices run. Kept declared
  /// because the frozen perfbench harness overrides it.
  virtual void prepare_task(const Task& t) { (void)t; }

  /// Execute CUDA blocks [b0, b1) of the task (0-based within the task;
  /// one block per target row or column as priced in Task::cost). The
  /// bool is inert (always false), as in run_task. When `into` is non-null
  /// the blocks must accumulate into that zero-initialised scratch buffer
  /// instead of the real target (a write-conflicting member). Return false
  /// when the task type has no block-level body — the runtime then runs
  /// the task whole, via run_task(), on the worker that claimed its first
  /// block.
  virtual bool run_blocks(const Task& t, index_t b0, index_t b1, bool,
                          real_t* into) {
    (void)t;
    (void)b0;
    (void)b1;
    (void)into;
    return false;
  }

  /// Scratch elements (real_t) a write-conflicting member needs for its
  /// private accumulation buffer. 0 means unsupported: the runtime then
  /// serialises the conflicting member in the ordered batch epilogue
  /// instead — slower, but still deterministic.
  virtual offset_t scratch_size(const Task& t) {
    (void)t;
    return 0;
  }

  /// Fold the task's scratch accumulation into the real target. Called
  /// serially, in batch order — the ordered reduction that makes results
  /// reproducible across thread counts.
  virtual void apply_scratch(const Task& t, const real_t* scratch) {
    (void)t;
    (void)scratch;
  }
};

}  // namespace th
