// The numeric-factorisation task DAG (Figure 6(c) of the paper).
//
// Built once by a solver core from the symbolic structure, then consumed by
// the scheduling policies. Edges point from producer to consumer; the graph
// must be acyclic with edges from lower to higher ids not required (the
// builder validates acyclicity explicitly).
#pragma once

#include <vector>

#include "core/task.hpp"

namespace th {

class TaskGraph {
 public:
  /// Add a task; returns its id. Tasks may be added in any order.
  index_t add_task(Task t);

  /// Capacity for `tasks` tasks and `edges` dependencies, before adding.
  void reserve(index_t tasks, offset_t edges);

  /// Declare that `consumer` cannot start before `producer` finished.
  /// Duplicate edges are tolerated (deduplicated in finalize()).
  void add_dependency(index_t producer, index_t consumer);

  /// Freeze the graph: build successor CSR, in-degrees, validate
  /// acyclicity. Must be called exactly once before scheduling.
  void finalize();

  bool finalized() const { return finalized_; }
  index_t size() const { return static_cast<index_t>(tasks_.size()); }
  const Task& task(index_t id) const { return tasks_[id]; }
  Task& mutable_task(index_t id) { return tasks_[id]; }
  const std::vector<Task>& tasks() const { return tasks_; }

  /// Successors of a task (valid after finalize()).
  std::pair<const index_t*, const index_t*> successors(index_t id) const;
  /// Predecessors of a task (valid after finalize()).
  std::pair<const index_t*, const index_t*> predecessors(index_t id) const;

  index_t in_degree(index_t id) const { return in_degree_[id]; }

  /// ASAP level of each task: level(t) = 1 + max level of predecessors,
  /// 0 for sources. This is the "time step" axis of the Figure 3 analysis
  /// and the batching key of the SuperLU-baseline policy.
  const std::vector<index_t>& levels() const;
  index_t level_count() const;

  /// Width histogram: tasks per level (the Figure 3 distribution).
  std::vector<offset_t> level_widths() const;

  /// Total flops over all tasks.
  offset_t total_flops() const;

  /// Upward rank of each task: its flops plus the maximum upward rank of
  /// its successors — the classic HEFT critical-path metric. Tasks with a
  /// larger upward rank lie on longer remaining dependency chains and
  /// should be scheduled earlier. Computed lazily once.
  const std::vector<offset_t>& upward_rank() const;

  /// Length (in flops) of the longest dependency chain — a lower bound on
  /// any schedule's critical path.
  offset_t critical_path_flops() const;

 private:
  std::vector<Task> tasks_;
  std::vector<std::pair<index_t, index_t>> edges_;  // released by finalize()
  bool finalized_ = false;
  // CSR adjacency, built by finalize().
  std::vector<offset_t> succ_ptr_;
  std::vector<index_t> succ_;
  std::vector<offset_t> pred_ptr_;
  std::vector<index_t> pred_;
  std::vector<index_t> in_degree_;
  std::vector<index_t> levels_;  // ASAP levels, filled by finalize()
  mutable std::vector<offset_t> upward_rank_;  // computed lazily
};

}  // namespace th
