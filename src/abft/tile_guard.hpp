// TileGuard — per-batch ABFT context over a TileMatrix.
//
// Lifecycle per executed batch (driven by the backend's abft_* hooks; the
// BatchExecutor calls capture and verify on the lane that owns the
// target, so one target's calls never overlap):
//   capture(t)   before the member runs. The target's first member of the
//                batch takes a context: a snapshot of the panel and its
//                pre row/column sums (the sums a clean verification or a
//                rollback left for the tile, when there are any). Every
//                SSSSM member then folds its expected checksum delta
//                (-L*(U*e), -(e^T*L)*U) into the context, reading the
//                operands' sums from the per-tile bank (recomputed on
//                the lane when the bank holds none).
//   verify(t)    after the target's members ran: re-derive the sums the
//                kernel's invariant predicts and compare against the tile
//                that was actually written. The verdict is memoized per
//                target, so SSSSM members sharing one target agree — a
//                corrupt shared target flags every contributing member. A
//                clean TSTRF banks L's column sums and a clean GEESM U's
//                row sums, which its invariant check just computed: the
//                operand sums of every later SSSSM that reads the tile.
//   rollback(t)  serial: restore the pre-batch snapshot (at most once per
//                target); the scheduler then re-queues flagged members.
//   reset()      serial, end of batch: bank the sums of each target's
//                final state (verified post sums, or pre sums after a
//                rollback) as its next capture's pre sums, and recycle
//                contexts.
// capture and verify are safe to call concurrently for members of
// different targets: a context belongs to its target's lane, and one
// short lock guards only the table that maps targets to contexts.
#pragma once

#include <mutex>
#include <unordered_map>
#include <vector>

#include "abft/checksum.hpp"
#include "core/task.hpp"

namespace th::abft {

class TileGuard {
 public:
  explicit TileGuard(TileMatrix& tiles) : tiles_(tiles) {}

  /// Register the member with its target's context (snapshot and pre sums
  /// on the target's first member) and fold its expected SSSSM delta.
  void capture(const Task& t);

  /// True when the target passes its checksum invariant (memoized).
  bool verify(const Task& t, real_t rel_tol);
  void rollback(const Task& t);
  void reset();

  /// Forget the banked sums of the task's target — call when the tile is
  /// modified outside a captured batch (e.g. a guard scrubbed it). Serial.
  void invalidate(const Task& t);

 private:
  struct Ctx {
    TaskType type = TaskType::kGetrf;
    std::vector<real_t> snapshot;  // pre-batch target panel, column-major
    std::vector<real_t> pre_row, pre_col;
    std::vector<real_t> exp_row, exp_col;    // accumulated SSSSM deltas
    std::vector<real_t> post_row, post_col;  // actual sums found at verify
    std::vector<real_t> op_row, op_col;      // unbanked operand sums
    int verdict = -1;  // -1 unverified, 0 clean, 1 corrupt
    bool rolled_back = false;
  };
  /// Sums of a tile's current contents, where known (either may be
  /// empty): both after a clean SSSSM verdict or a rollback, the column
  /// sums of L after a clean TSTRF, the row sums of U after a clean GEESM.
  struct Sums {
    std::vector<real_t> row, col;
  };

  bool verify_ctx(const Task& t, Ctx& ctx, real_t rel_tol);
  /// The context of tile slot `s`, or null when it was not captured.
  Ctx* find(offset_t s);

  TileMatrix& tiles_;
  std::mutex mu_;  // guards ctx_, free_ and the sizing of sums_
  std::unordered_map<offset_t, Ctx> ctx_;  // by target slot, this batch
  std::vector<Ctx> free_;  // recycled contexts (keeps buffers warm)
  /// Per tile slot, sized at the first capture. Entry s is written only
  /// by the lane that owns target s or serially; SSSSM captures read
  /// operand entries, which no member of the same batch writes.
  std::vector<Sums> sums_;
};

}  // namespace th::abft
