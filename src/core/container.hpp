// Container — Aggregate-stage module 2 (paper §3.3).
//
// A priority structure buffering deferrable tasks. pop() always returns the
// highest-priority (lowest key) stored task so low-priority work can never
// overtake urgent work when the Collector tops up a batch.
//
// Two interchangeable backends satisfy the same ContainerLike concept:
//   HeapContainer — the paper's single binary heap (strict order; the det
//                   reference).
//   FifoContainer — arrival order; the ablation bench swaps this in to
//                   quantify the heap's contribution.
// The Container facade wraps both in a variant so call sites keep the
// original value-type API and pick a backend per Discipline at runtime.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <queue>
#include <variant>
#include <vector>

#include "core/prioritizer.hpp"
#include "support/error.hpp"

namespace th {

/// The shape every Container backend implements. pop() on an empty backend
/// is a programming error (TH_CHECK); callers test empty() first.
template <class C>
concept ContainerLike = requires(C c, const C cc) {
  c.push(std::uint64_t{}, index_t{});
  { c.pop() } -> std::same_as<index_t>;
  { cc.empty() } -> std::same_as<bool>;
  { cc.size() } -> std::same_as<std::size_t>;
  { cc.peak_size() } -> std::same_as<std::size_t>;
};

/// The original single min-heap: strict global priority order.
class HeapContainer {
 public:
  void push(std::uint64_t key, index_t id) {
    heap_.push({key, id});
    peak_ = std::max(peak_, heap_.size());
  }

  index_t pop() {
    TH_CHECK_MSG(!heap_.empty(), "pop from empty Container");
    const index_t id = heap_.top().second;
    heap_.pop();
    return id;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  std::size_t peak_size() const { return peak_; }

 private:
  using Entry = std::pair<std::uint64_t, index_t>;  // (key, task id)
  std::size_t peak_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

/// Arrival order, ignoring priority keys — the ablation baseline.
class FifoContainer {
 public:
  void push(std::uint64_t /*key*/, index_t id) {
    fifo_.push_back(id);
    peak_ = std::max(peak_, fifo_.size());
  }

  index_t pop() {
    TH_CHECK_MSG(!fifo_.empty(), "pop from empty Container");
    const index_t id = fifo_.front();
    fifo_.erase(fifo_.begin());
    return id;
  }

  bool empty() const { return fifo_.empty(); }
  std::size_t size() const { return fifo_.size(); }
  std::size_t peak_size() const { return peak_; }

 private:
  std::size_t peak_ = 0;
  std::vector<index_t> fifo_;
};

static_assert(ContainerLike<HeapContainer>);
static_assert(ContainerLike<FifoContainer>);

/// Runtime-selectable facade over the two backends.
class Container {
 public:
  enum class Discipline { kHeap, kFifo };

  explicit Container(Discipline d = Discipline::kHeap) : discipline_(d) {
    if (d == Discipline::kFifo) impl_.emplace<FifoContainer>();
  }

  /// Store a task under an explicit priority key (see Prioritizer::key).
  void push(std::uint64_t key, index_t id) {
    std::visit([&](auto& c) { c.push(key, id); }, impl_);
  }

  /// Convenience: store under the paper's default priority key.
  void push(const Task& t) { push(Prioritizer::priority_key(t), t.id); }

  /// Remove and return the id of the best stored task.
  index_t pop() {
    return std::visit([](auto& c) { return c.pop(); }, impl_);
  }

  bool empty() const {
    return std::visit([](const auto& c) { return c.empty(); }, impl_);
  }
  std::size_t size() const {
    return std::visit([](const auto& c) { return c.size(); }, impl_);
  }
  /// High-water mark of buffered tasks over the Container's lifetime —
  /// the "container depth" the obs layer reports per rank.
  std::size_t peak_size() const {
    return std::visit([](const auto& c) { return c.peak_size(); }, impl_);
  }

  Discipline discipline() const { return discipline_; }

 private:
  Discipline discipline_;
  std::variant<HeapContainer, FifoContainer> impl_;
};

}  // namespace th
