// ABFT — algorithm-based fault tolerance for the executed numeric path.
//
// Huang–Abraham style row/column checksums protect every tile a batch
// member writes. Inside the batch's one fork-join, the lane that owns a
// target captures its pre-execution sums, runs its members, and
// re-verifies the invariant each kernel type preserves (GETRF: sums of A
// equal the sums of the reconstructed L*U; TSTRF/GEESM: the triangular
// factor applied to the output reproduces the input's sums; SSSSM: the
// target's sums move by exactly -L*(U*e) / -(e^T*L)*U, with the operands'
// sums banked when their TSTRF/GEESM verified clean). A mismatch marks
// the member *corrupt*: the scheduler rolls the target back to its
// pre-batch snapshot and re-runs the task in a later batch with bounded
// retries, escalating to whole-factorisation iterative refinement when
// the budget is spent (DESIGN.md §11).
#pragma once

#include "support/error.hpp"
#include "support/types.hpp"

namespace th::abft {

/// Knobs for the checksum layer (ScheduleOptions::abft; thsolve_cli
/// --abft / --abft-retries). Default-constructed options disable ABFT and
/// leave the scheduler's fault-free path untouched.
struct AbftOptions {
  bool enabled = false;
  /// Re-runs allowed per corrupt task before the scheduler accepts the
  /// output and escalates to iterative refinement. Negative inherits
  /// FaultPlan::max_retries (the transient-fault budget).
  int max_retries = -1;
  /// Relative checksum mismatch tolerance: an entry of the verified sum
  /// vector may differ from its expectation by rel_tol * max(1, |sums|)
  /// before the task is declared corrupt. Loose enough for the O(b)
  /// summation-order noise between a kernel and its checksum, tight
  /// enough to catch any corruption worth retrying.
  real_t rel_tol = 1e-8;

  void validate() const {
    TH_CHECK_MSG(rel_tol > 0, "abft rel_tol must be positive");
    TH_CHECK_MSG(max_retries >= -1,
                 "abft max_retries must be >= 0 (or -1 to inherit)");
  }
};

/// Per-run ABFT accounting on ScheduleResult. The schedule validator
/// cross-checks retries against the batch_status trace (status 3).
struct AbftStats {
  bool enabled = false;
  offset_t tasks_verified = 0;    // members checksum-verified
  offset_t corrupt_detected = 0;  // members flagged by the verifier
  offset_t retries = 0;           // corrupt members rolled back & re-queued
  offset_t exhausted = 0;         // budget spent: accepted + escalated
  offset_t silent_injected = 0;   // silent corruptions planted (fault plan)
  /// Host CPU seconds capturing checksums/snapshots and verifying
  /// invariants, each summed over the executor's lanes (per-thread CPU
  /// clock), so at width w they can exceed the wall time they cover.
  real_t capture_s = 0;
  real_t verify_s = 0;

  bool any() const {
    return tasks_verified > 0 || corrupt_detected > 0 || retries > 0 ||
           exhausted > 0 || silent_injected > 0;
  }

  /// Mirror these counters into the obs metrics registry under th.abft.*
  /// (called by the scheduler at the end of every observed run, so
  /// registry snapshots reconcile with ScheduleResult by construction).
  void publish_metrics() const;
};

}  // namespace th::abft
