// TileGuard — per-batch ABFT context over a TileMatrix.
//
// Lifecycle per executed batch (driven by the backend's abft_* hooks):
//   capture_plan(t)  serial prologue, once per member: locate (or create)
//                    the target's context, queue the heavy capture work as
//                    a per-target job, and warm the per-batch cache of
//                    SSSSM input sums (row sums of U, column sums of L) —
//                    inputs are shared across many members of a panel, so
//                    deduplicating their sums here is a large saving.
//   capture_run(j)   heavy capture for one queued target: snapshot, pre
//                    row/column sums (reused from the previous batch's
//                    verified post sums when the target was seen before),
//                    and the fold of every pending SSSSM member's expected
//                    checksum delta (-L*(U*e), -(e^T*L)*U). Distinct jobs
//                    touch distinct targets, so the executor may run them
//                    concurrently on its worker lanes.
//   verify(t)        after the parallel phase: re-derive the sums the
//                    kernel's invariant predicts and compare against the
//                    tile that was actually written. The verdict is
//                    memoized per target, so SSSSM members sharing one
//                    target agree — a corrupt shared target flags every
//                    contributing member. Safe to call concurrently for
//                    members of DIFFERENT targets.
//   rollback(t)      restore the pre-batch snapshot (at most once per
//                    target); the scheduler then re-queues flagged members.
//   reset()          end of batch: bank verified post sums as the next
//                    batch's pre sums (carry-forward) and recycle contexts.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "abft/checksum.hpp"
#include "core/task.hpp"

namespace th::abft {

class TileGuard {
 public:
  explicit TileGuard(TileMatrix& tiles) : tiles_(tiles) {}

  /// Serial convenience: plan + run immediately (tests, serial backends).
  void capture(const Task& t);

  /// Two-phase capture for the executor's parallel prologue.
  void capture_plan(const Task& t);
  std::size_t capture_jobs() const { return jobs_.size(); }
  /// Heavy capture work for queued target `job`. Thread-safe across
  /// distinct jobs (each touches only its own target's context).
  void capture_run(std::size_t job);

  /// True when the target passes its checksum invariant (memoized).
  /// Thread-safe for members of different targets once planning is done.
  bool verify(const Task& t, real_t rel_tol);
  void rollback(const Task& t);
  void reset();

  /// Forget any carried sums for the task's target — call when the tile is
  /// modified outside a captured batch (e.g. a guard scrubbed it).
  void invalidate(const Task& t) { carry_.erase(t.target_key()); }

 private:
  struct Ctx {
    TaskType type = TaskType::kGetrf;
    std::vector<real_t> snapshot;  // pre-batch target panel, column-major
    std::vector<real_t> pre_row, pre_col;
    std::vector<real_t> exp_row, exp_col;    // accumulated SSSSM deltas
    std::vector<real_t> post_row, post_col;  // actual sums found at verify
    std::vector<const Task*> pending;        // members awaiting their fold
    bool fresh = false;    // base capture (snapshot + pre sums) still owed
    bool carried = false;  // pre sums adopted from the previous batch
    int verdict = -1;      // -1 unverified, 0 clean, 1 corrupt
    bool rolled_back = false;
  };

  bool verify_ctx(const Task& t, Ctx& ctx, real_t rel_tol);

  TileMatrix& tiles_;
  std::unordered_map<std::uint64_t, Ctx> ctx_;
  std::vector<Ctx> free_;            // recycled contexts (keeps buffers warm)
  std::vector<std::uint64_t> jobs_;  // targets with owed capture work
  /// Per-batch dedup of SSSSM input sums, keyed by input tile. Filled
  /// serially in capture_plan, read-only during capture_run.
  std::unordered_map<const Tile*, std::vector<real_t>> u_row_sums_;
  std::unordered_map<const Tile*, std::vector<real_t>> l_col_sums_;
  /// Cross-batch carry: a target verified clean leaves its actual post
  /// sums here, so its next capture skips recomputing them from the tile.
  std::unordered_map<std::uint64_t,
                     std::pair<std::vector<real_t>, std::vector<real_t>>>
      carry_;
};

}  // namespace th::abft
