// Collector — Batch-stage module 1 (paper §3.4).
//
// Assembles one batch: urgent tasks first (from the Prioritizer), then
// top-up from the Container, bounded by the GPU's resident CUDA-block count
// and aggregate shared-memory capacity. When either resource would be
// exceeded the Collector reports full and the batch ships to the Executor.
#pragma once

#include <vector>

#include "core/task.hpp"
#include "support/error.hpp"

namespace th {

struct CollectorOptions {
  /// Capacity rule. kBlocksAndShmem is the paper's dual constraint;
  /// kCountOnly caps batches at a fixed task count (ablation baseline).
  enum class Capacity { kBlocksAndShmem, kCountOnly };
  Capacity capacity = Capacity::kBlocksAndShmem;
  index_t max_task_count = 512;  // used by kCountOnly
};

class Collector {
 public:
  /// A capacity bound that stops admission: returned by last_reject()
  /// for the last try_add() (kNone when it succeeded) and by
  /// close_reason() for the batch as a whole, which feeds the obs
  /// aggregate-stage events (DESIGN.md §12).
  enum class RejectReason : char { kNone, kCount, kBlocks, kShmem };

  Collector(const DeviceSpec& device, CollectorOptions opts = {})
      : device_(device), opts_(opts) {}

  /// Try to add a task to the open batch; returns false (without adding)
  /// if the batch cannot accommodate the task's resources. A batch always
  /// accepts at least one task, however large (a kernel bigger than the
  /// device simply runs in waves).
  bool try_add(const Task& t) {
    const offset_t blocks = t.cost.cuda_blocks;
    const offset_t shmem =
        t.cost.shmem_per_block * static_cast<offset_t>(t.cost.cuda_blocks);
    if (!batch_.empty()) {
      if (opts_.capacity == CollectorOptions::Capacity::kCountOnly) {
        if (static_cast<index_t>(batch_.size()) >= opts_.max_task_count) {
          last_reject_ = RejectReason::kCount;
          return false;
        }
      } else {
        if (used_blocks_ + blocks > device_.resident_blocks()) {
          last_reject_ = RejectReason::kBlocks;
          return false;
        }
        if (used_shmem_ + shmem > device_.total_shmem_bytes()) {
          last_reject_ = RejectReason::kShmem;
          return false;
        }
      }
    }
    batch_.push_back(t.id);
    used_blocks_ += blocks;
    used_shmem_ += shmem;
    last_reject_ = RejectReason::kNone;
    return true;
  }

  RejectReason last_reject() const { return last_reject_; }

  /// Why the open batch closes, derived at close time: the exhausted
  /// resource when the batch is full (an exact fill never rejects a task,
  /// so last_reject() alone would report kNone), else the last rejection,
  /// else kNone — the queues drained first.
  RejectReason close_reason() const {
    if (!full()) return last_reject_;
    if (opts_.capacity == CollectorOptions::Capacity::kCountOnly) {
      return RejectReason::kCount;
    }
    return used_blocks_ >= device_.resident_blocks() ? RejectReason::kBlocks
                                                     : RejectReason::kShmem;
  }

  bool full() const {
    if (opts_.capacity == CollectorOptions::Capacity::kCountOnly) {
      return static_cast<index_t>(batch_.size()) >= opts_.max_task_count;
    }
    return used_blocks_ >= device_.resident_blocks() ||
           used_shmem_ >= device_.total_shmem_bytes();
  }

  bool empty() const { return batch_.empty(); }
  /// The open batch's task ids, in admission order.
  const std::vector<index_t>& members() const { return batch_; }
  std::size_t size() const { return batch_.size(); }

  /// Close the batch and reset for the next one.
  std::vector<index_t> take() {
    std::vector<index_t> out = std::move(batch_);
    clear();
    return out;
  }

  /// Drop the open batch and reset for the next one, keeping the list's
  /// storage.
  void clear() {
    batch_.clear();
    used_blocks_ = 0;
    used_shmem_ = 0;
    last_reject_ = RejectReason::kNone;
  }

 private:
  DeviceSpec device_;
  CollectorOptions opts_;
  std::vector<index_t> batch_;
  offset_t used_blocks_ = 0;
  offset_t used_shmem_ = 0;
  RejectReason last_reject_ = RejectReason::kNone;
};

}  // namespace th
