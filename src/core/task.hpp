// Task: the unit of work the Trojan Horse aggregates and batches.
//
// A task is one of the paper's four kernel types applied to one matrix
// block (supernode panel for the SLU core, b-by-b tile for the PLU core).
// It carries its device resource footprint (TaskCost) so the Collector can
// enforce the CUDA-block / shared-memory capacity rule and the cost model
// can price it.
#pragma once

#include <cstdint>

#include "sim/device.hpp"
#include "support/types.hpp"

namespace th {

enum class TaskType : std::uint8_t {
  kGetrf,  // LU factorisation of a diagonal block
  kTstrf,  // triangular solve producing an L block: A(i,k) U(k,k)^-1
  kGeesm,  // triangular solve producing a U block: L(k,k)^-1 A(k,j)
  kSsssm,  // Schur complement update: A(i,j) -= L(i,k) U(k,j)
};

const char* task_type_name(TaskType t);

struct Task {
  index_t id = -1;
  TaskType type = TaskType::kGetrf;
  index_t k = 0;    // elimination step (triggering diagonal block index)
  index_t row = 0;  // target block row
  index_t col = 0;  // target block column
  TaskCost cost;    // device resource footprint
  offset_t out_bytes = 0;  // bytes of the produced block (for comm pricing)
  bool atomic_ok = false;  // SSSSM accumulations commute; may batch despite
                           // write conflicts using atomic adds (paper §2.3)
  int owner_rank = 0;      // 2D block-cyclic owner

  /// Distance to the main diagonal — the paper's urgency metric (§3.3):
  /// smaller means more urgent.
  index_t diag_distance() const {
    const index_t d = row - col;
    return d < 0 ? -d : d;
  }

  /// Key of the target block (row, col): batch members with equal keys
  /// write one block.
  std::uint64_t target_key() const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row))
            << 32) |
           static_cast<std::uint32_t>(col);
  }
};

}  // namespace th
