#include "core/task_graph.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace th {

const char* task_type_name(TaskType t) {
  switch (t) {
    case TaskType::kGetrf:
      return "GETRF";
    case TaskType::kTstrf:
      return "TSTRF";
    case TaskType::kGeesm:
      return "GEESM";
    case TaskType::kSsssm:
      return "SSSSM";
  }
  return "?";
}

index_t TaskGraph::add_task(Task t) {
  TH_CHECK(!finalized_);
  t.id = static_cast<index_t>(tasks_.size());
  tasks_.push_back(t);
  return t.id;
}

void TaskGraph::reserve(index_t tasks, offset_t edges) {
  tasks_.reserve(static_cast<std::size_t>(tasks));
  edges_.reserve(static_cast<std::size_t>(edges));
}

void TaskGraph::add_dependency(index_t producer, index_t consumer) {
  TH_CHECK(!finalized_);
  TH_CHECK_MSG(producer != consumer, "self-dependency on task " << producer);
  TH_CHECK(producer >= 0 && producer < size());
  TH_CHECK(consumer >= 0 && consumer < size());
  edges_.push_back({producer, consumer});
}

void TaskGraph::finalize() {
  TH_CHECK(!finalized_);
  const index_t n = size();

  // Bucket the edges by producer (a counting sort), then sort and dedup
  // each producer's short consumer list in place.
  succ_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : edges_) ++succ_ptr_[e.first + 1];
  for (index_t i = 0; i < n; ++i) succ_ptr_[i + 1] += succ_ptr_[i];
  succ_.resize(edges_.size());
  {
    std::vector<offset_t> cur(succ_ptr_.begin(), succ_ptr_.end() - 1);
    for (const auto& [p, c] : edges_) succ_[cur[p]++] = c;
  }
  edges_ = {};
  offset_t kept = 0;
  for (index_t t = 0; t < n; ++t) {
    const auto first = succ_.begin() + succ_ptr_[t];
    std::sort(first, succ_.begin() + succ_ptr_[t + 1]);
    const auto last = std::unique(first, succ_.begin() + succ_ptr_[t + 1]);
    succ_ptr_[t] = kept;  // [t + 1] is read before it is rewritten
    for (auto it = first; it != last; ++it) succ_[kept++] = *it;
  }
  succ_ptr_[n] = kept;
  succ_.resize(static_cast<std::size_t>(kept));

  // Predecessors in one pass over the successors in producer order, so
  // each task's list ascends.
  pred_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const index_t c : succ_) ++pred_ptr_[c + 1];
  for (index_t i = 0; i < n; ++i) pred_ptr_[i + 1] += pred_ptr_[i];
  pred_.resize(succ_.size());
  {
    std::vector<offset_t> cur(pred_ptr_.begin(), pred_ptr_.end() - 1);
    for (index_t t = 0; t < n; ++t) {
      for (offset_t q = succ_ptr_[t]; q < succ_ptr_[t + 1]; ++q) {
        pred_[cur[succ_[q]]++] = t;
      }
    }
  }
  in_degree_.assign(static_cast<std::size_t>(n), 0);
  for (index_t t = 0; t < n; ++t) {
    in_degree_[t] = static_cast<index_t>(pred_ptr_[t + 1] - pred_ptr_[t]);
  }

  // Kahn's algorithm both validates acyclicity and computes ASAP levels;
  // `order` is its FIFO queue, read at `head`.
  levels_.assign(static_cast<std::size_t>(n), 0);
  std::vector<index_t> deg = in_degree_;
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) {
    if (deg[t] == 0) order.push_back(t);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const index_t t = order[head];
    for (offset_t p = succ_ptr_[t]; p < succ_ptr_[t + 1]; ++p) {
      const index_t s = succ_[p];
      levels_[s] = std::max(levels_[s], levels_[t] + 1);
      if (--deg[s] == 0) order.push_back(s);
    }
  }
  const index_t seen = static_cast<index_t>(order.size());
  TH_CHECK_MSG(seen == n, "task graph has a cycle (" << n - seen
                                                     << " tasks unreachable)");
  finalized_ = true;
}

std::pair<const index_t*, const index_t*> TaskGraph::successors(
    index_t id) const {
  TH_CHECK(finalized_);
  return {succ_.data() + succ_ptr_[id], succ_.data() + succ_ptr_[id + 1]};
}

std::pair<const index_t*, const index_t*> TaskGraph::predecessors(
    index_t id) const {
  TH_CHECK(finalized_);
  return {pred_.data() + pred_ptr_[id], pred_.data() + pred_ptr_[id + 1]};
}

const std::vector<index_t>& TaskGraph::levels() const {
  TH_CHECK(finalized_);
  return levels_;
}

index_t TaskGraph::level_count() const {
  TH_CHECK(finalized_);
  index_t m = 0;
  for (index_t l : levels_) m = std::max(m, l);
  return size() > 0 ? m + 1 : 0;
}

std::vector<offset_t> TaskGraph::level_widths() const {
  std::vector<offset_t> w(static_cast<std::size_t>(level_count()), 0);
  for (index_t l : levels()) ++w[l];
  return w;
}

offset_t TaskGraph::total_flops() const {
  offset_t f = 0;
  for (const Task& t : tasks_) f += t.cost.flops;
  return f;
}

const std::vector<offset_t>& TaskGraph::upward_rank() const {
  TH_CHECK(finalized_);
  if (upward_rank_.empty() && size() > 0) {
    // Process in reverse topological order. ASAP levels give one: a task's
    // successors always have strictly larger levels, so sorting by level
    // descending is a valid reverse topological order.
    std::vector<index_t> order(static_cast<std::size_t>(size()));
    for (index_t i = 0; i < size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return levels_[a] > levels_[b];
    });
    upward_rank_.assign(static_cast<std::size_t>(size()), 0);
    for (const index_t t : order) {
      offset_t best = 0;
      for (offset_t p = succ_ptr_[t]; p < succ_ptr_[t + 1]; ++p) {
        best = std::max(best, upward_rank_[succ_[p]]);
      }
      upward_rank_[t] = tasks_[t].cost.flops + best;
    }
  }
  return upward_rank_;
}

offset_t TaskGraph::critical_path_flops() const {
  offset_t best = 0;
  for (offset_t r : upward_rank()) best = std::max(best, r);
  return best;
}

}  // namespace th
