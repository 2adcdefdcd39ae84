// NumericBackend — the contract between the schedulers/runtime and a
// solver core's numeric kernels.
//
// The interface is task-granular: run_task() executes one GETRF/TSTRF/
// GEESM/SSSSM body whole, in place. The BatchExecutor runs the members of
// a batch that share a target tile on one lane, in batch order, so a
// target's updates arrive in the simulated order at any width (DESIGN.md
// §10). The modelled GPU still resolves such write conflicts with
// atomicAdd; that is priced by the cost model
// (ScheduleOptions::allow_atomic_batching), not executed here.
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
/// safe to call concurrently for tasks of one batch with different targets
/// (the scheduler guarantees batched tasks are mutually independent except
/// for updates of one target, which the runtime runs on one lane in
/// order).
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

  // ---- Inert hooks ------------------------------------------------------
  //
  // Nothing calls these: the runtime runs every member whole through
  // run_task(). They stay declared because the frozen perfbench harness
  // overrides them.

  /// Inert (see above).
  virtual void prepare_task(const Task& t) { (void)t; }

  /// Inert (see above). Returns false: no block-level body.
  virtual bool run_blocks(const Task& t, index_t b0, index_t b1, bool,
                          real_t* into) {
    (void)t;
    (void)b0;
    (void)b1;
    (void)into;
    return false;
  }

  /// Inert (see above). Returns 0: no scratch form.
  virtual offset_t scratch_size(const Task& t) {
    (void)t;
    return 0;
  }

  /// Inert (see above).
  virtual void apply_scratch(const Task& t, const real_t* scratch) {
    (void)t;
    (void)scratch;
  }
};

}  // namespace th
