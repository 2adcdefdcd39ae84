// 2-D block-cyclic ownership: the process-grid mapping both solver cores
// use to assign blocks (and hence tasks) to ranks, as in SuperLU_DIST and
// PanguLU.
#pragma once

#include "core/task_graph.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace th {

struct ProcessGrid {
  int pr = 1;  // process rows
  int pc = 1;  // process cols

  int size() const { return pr * pc; }
  bool operator==(const ProcessGrid&) const = default;

  /// Owner rank of block (i, j).
  int owner(index_t i, index_t j) const {
    return static_cast<int>(i % pr) * pc + static_cast<int>(j % pc);
  }
};

/// Most-square grid factorisation of n_ranks (pr <= pc).
inline ProcessGrid make_process_grid(int n_ranks) {
  TH_CHECK(n_ranks >= 1);
  int pr = 1;
  for (int d = 1; d * d <= n_ranks; ++d) {
    if (n_ranks % d == 0) pr = d;
  }
  return ProcessGrid{pr, n_ranks / pr};
}

/// `g` with every task owned by its target block's rank under `grid`.
inline TaskGraph with_owners(TaskGraph g, const ProcessGrid& grid) {
  for (index_t id = 0; id < g.size(); ++id) {
    Task& t = g.mutable_task(id);
    t.owner_rank = grid.owner(t.row, t.col);
  }
  return g;
}

}  // namespace th
