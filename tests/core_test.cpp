#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/collector.hpp"
#include "core/container.hpp"
#include "core/executor.hpp"
#include "core/prioritizer.hpp"
#include "core/task_graph.hpp"

namespace th {
namespace {

Task make_task(TaskType type, index_t k, index_t row, index_t col,
               index_t blocks = 1) {
  Task t;
  t.type = type;
  t.k = k;
  t.row = row;
  t.col = col;
  t.cost.flops = 1000;
  t.cost.bytes = 800;
  t.cost.cuda_blocks = blocks;
  t.cost.shmem_per_block = 512;
  return t;
}

TEST(TaskGraph, LevelsAndWidths) {
  TaskGraph g;
  const index_t a = g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  const index_t b = g.add_task(make_task(TaskType::kTstrf, 0, 1, 0));
  const index_t c = g.add_task(make_task(TaskType::kGeesm, 0, 0, 1));
  const index_t d = g.add_task(make_task(TaskType::kSsssm, 0, 1, 1));
  g.add_dependency(a, b);
  g.add_dependency(a, c);
  g.add_dependency(b, d);
  g.add_dependency(c, d);
  g.finalize();
  EXPECT_EQ(g.levels(), (std::vector<index_t>{0, 1, 1, 2}));
  EXPECT_EQ(g.level_count(), 3);
  EXPECT_EQ(g.level_widths(), (std::vector<offset_t>{1, 2, 1}));
  EXPECT_EQ(g.in_degree(d), 2);
  auto [sb, se] = g.successors(a);
  EXPECT_EQ(se - sb, 2);
  EXPECT_EQ(g.total_flops(), 4000);
}

TEST(TaskGraph, DuplicateEdgesDeduplicated) {
  TaskGraph g;
  const index_t a = g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  const index_t b = g.add_task(make_task(TaskType::kTstrf, 0, 1, 0));
  g.add_dependency(a, b);
  g.add_dependency(a, b);
  g.finalize();
  EXPECT_EQ(g.in_degree(b), 1);
}

TEST(TaskGraph, CycleDetected) {
  TaskGraph g;
  const index_t a = g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  const index_t b = g.add_task(make_task(TaskType::kTstrf, 0, 1, 0));
  g.add_dependency(a, b);
  g.add_dependency(b, a);
  EXPECT_THROW(g.finalize(), Error);
}

TEST(TaskGraph, SelfDependencyRejected) {
  TaskGraph g;
  const index_t a = g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  EXPECT_THROW(g.add_dependency(a, a), Error);
}

TEST(Prioritizer, GetrfAlwaysUrgent) {
  const Prioritizer p;
  EXPECT_TRUE(p.is_urgent(make_task(TaskType::kGetrf, 5, 5, 5)));
}

TEST(Prioritizer, DiagonalDistanceRule) {
  PrioritizerOptions opts;
  opts.urgent_window = 1;
  const Prioritizer p(opts);
  EXPECT_TRUE(p.is_urgent(make_task(TaskType::kTstrf, 0, 1, 0)));
  EXPECT_FALSE(p.is_urgent(make_task(TaskType::kTstrf, 0, 3, 0)));
  EXPECT_TRUE(p.is_urgent(make_task(TaskType::kSsssm, 0, 2, 2)));
}

TEST(Prioritizer, KeyOrdersByDistanceThenStep) {
  Task near = make_task(TaskType::kTstrf, 4, 5, 4);   // distance 1
  Task far = make_task(TaskType::kTstrf, 0, 6, 0);    // distance 6
  near.id = 10;
  far.id = 2;
  EXPECT_LT(Prioritizer::priority_key(near), Prioritizer::priority_key(far));
  Task early = make_task(TaskType::kSsssm, 1, 3, 1);  // distance 2, k=1
  Task late = make_task(TaskType::kSsssm, 2, 4, 2);   // distance 2, k=2
  early.id = late.id = 0;
  EXPECT_LT(Prioritizer::priority_key(early),
            Prioritizer::priority_key(late));
}

TEST(Container, HeapReturnsHighestPriority) {
  Container c;
  Task far = make_task(TaskType::kSsssm, 0, 9, 0);
  far.id = 1;
  Task near = make_task(TaskType::kSsssm, 0, 2, 0);
  near.id = 2;
  c.push(far);
  c.push(near);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.pop(), 2);  // closer to the diagonal first
  EXPECT_EQ(c.pop(), 1);
  EXPECT_TRUE(c.empty());
  EXPECT_THROW(c.pop(), Error);
}

TEST(Container, FifoPreservesInsertionOrder) {
  Container c(Container::Discipline::kFifo);
  Task a = make_task(TaskType::kSsssm, 0, 9, 0);
  a.id = 1;
  Task b = make_task(TaskType::kSsssm, 0, 2, 0);
  b.id = 2;
  c.push(a);
  c.push(b);
  EXPECT_EQ(c.pop(), 1);
  EXPECT_EQ(c.pop(), 2);
}

TEST(Collector, FirstTaskAlwaysAccepted) {
  DeviceSpec tiny;
  tiny.sm_count = 1;
  tiny.max_blocks_per_sm = 4;
  Collector c(tiny);
  Task huge = make_task(TaskType::kSsssm, 0, 1, 1, /*blocks=*/1000);
  huge.id = 0;
  EXPECT_TRUE(c.try_add(huge));
  EXPECT_TRUE(c.full());
  Task next = make_task(TaskType::kGetrf, 0, 0, 0);
  next.id = 1;
  EXPECT_FALSE(c.try_add(next));
  EXPECT_EQ(c.take(), (std::vector<index_t>{0}));
  EXPECT_TRUE(c.empty());
}

TEST(Collector, BlockCapacityRespected) {
  DeviceSpec d;
  d.sm_count = 2;
  d.max_blocks_per_sm = 4;  // 8 resident blocks
  d.shmem_per_sm_kib = 1024;
  Collector c(d);
  int admitted = 0;
  for (index_t i = 0; i < 10; ++i) {
    Task t = make_task(TaskType::kSsssm, 0, i + 1, 0, /*blocks=*/2);
    t.id = i;
    if (!c.try_add(t)) break;
    ++admitted;
  }
  EXPECT_EQ(admitted, 4);  // 4 tasks x 2 blocks = 8 = capacity
}

TEST(Collector, ShmemCapacityRespected) {
  DeviceSpec d;
  d.sm_count = 1;
  d.max_blocks_per_sm = 1000;
  d.shmem_per_sm_kib = 4;  // 4096 bytes total
  Collector c(d);
  Task t1 = make_task(TaskType::kSsssm, 0, 1, 0);
  t1.cost.shmem_per_block = 3000;
  t1.id = 0;
  Task t2 = t1;
  t2.id = 1;
  EXPECT_TRUE(c.try_add(t1));
  EXPECT_FALSE(c.try_add(t2));  // 6000 > 4096
}

TEST(Collector, CountOnlyMode) {
  CollectorOptions opts;
  opts.capacity = CollectorOptions::Capacity::kCountOnly;
  opts.max_task_count = 3;
  Collector c(DeviceSpec{}, opts);
  for (index_t i = 0; i < 3; ++i) {
    Task t = make_task(TaskType::kSsssm, 0, i + 1, 0);
    t.id = i;
    EXPECT_TRUE(c.try_add(t));
  }
  Task t = make_task(TaskType::kSsssm, 0, 9, 0);
  t.id = 99;
  EXPECT_FALSE(c.try_add(t));
}

TEST(Collector, ExactFillReportsExhaustedResource) {
  // A batch filled to exactly its cap never rejects a task, so the close
  // reason must come from the exhausted resource, not the last rejection.
  CollectorOptions opts;
  opts.capacity = CollectorOptions::Capacity::kCountOnly;
  opts.max_task_count = 3;
  Collector c(DeviceSpec{}, opts);
  for (index_t i = 0; i < 3; ++i) {
    Task t = make_task(TaskType::kSsssm, 0, i + 1, 0);
    t.id = i;
    ASSERT_TRUE(c.try_add(t));
  }
  EXPECT_TRUE(c.full());
  EXPECT_EQ(c.last_reject(), Collector::RejectReason::kNone);
  EXPECT_EQ(c.close_reason(), Collector::RejectReason::kCount);

  DeviceSpec d;
  d.sm_count = 2;
  d.max_blocks_per_sm = 4;  // 8 resident blocks
  d.shmem_per_sm_kib = 1024;
  Collector b(d);
  for (index_t i = 0; i < 4; ++i) {
    Task t = make_task(TaskType::kSsssm, 0, i + 1, 0, /*blocks=*/2);
    t.id = i;
    ASSERT_TRUE(b.try_add(t));
  }
  EXPECT_EQ(b.close_reason(), Collector::RejectReason::kBlocks);

  // A partial batch whose queues drained closes as kNone.
  Collector drained(d);
  Task t = make_task(TaskType::kSsssm, 0, 1, 0, /*blocks=*/2);
  ASSERT_TRUE(drained.try_add(t));
  EXPECT_EQ(drained.close_reason(), Collector::RejectReason::kNone);
}

// A backend that counts executions and records, in call order, the tasks
// run on the thread that constructed it (the executor's caller).
class CountingBackend : public NumericBackend {
 public:
  void run_task(const Task& t, bool) override {
    ++count_;
    if (std::this_thread::get_id() != caller_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    on_caller_.push_back(t.id);
  }
  int count() const { return count_.load(); }
  std::vector<index_t> on_caller() {
    const std::lock_guard<std::mutex> lock(mu_);
    return on_caller_;
  }

 private:
  std::atomic<int> count_{0};
  const std::thread::id caller_ = std::this_thread::get_id();
  std::mutex mu_;
  std::vector<index_t> on_caller_;
};

TEST(Executor, ExecutesEveryBatchMemberOnce) {
  TaskGraph g;
  for (index_t i = 0; i < 20; ++i) {
    g.add_task(make_task(TaskType::kSsssm, 0, i + 1, 0));
  }
  g.finalize();
  CountingBackend backend;
  Executor ex(KernelCostModel(DeviceSpec{}), &backend, ExecOptions{.workers = 1});
  std::vector<index_t> batch;
  for (index_t i = 0; i < 20; ++i) batch.push_back(i);
  const BatchResult r = ex.execute(g, batch);
  EXPECT_EQ(backend.count(), 20);
  EXPECT_EQ(r.tasks, 20);
  EXPECT_EQ(r.flops, 20 * 1000);
  EXPECT_GT(r.seconds, 0);
}

TEST(Executor, WorkerPoolExecutesAll) {
  TaskGraph g;
  const index_t n = 500;
  for (index_t i = 0; i < n; ++i) {
    g.add_task(make_task(TaskType::kSsssm, 0, i + 1, 0));
  }
  // n more updates of one target tile, (1, 0).
  for (index_t i = 0; i < n; ++i) {
    g.add_task(make_task(TaskType::kSsssm, i + 1, 1, 0));
  }
  g.finalize();
  CountingBackend backend;
  Executor ex(KernelCostModel(DeviceSpec{}), &backend, ExecOptions{.workers = 4});
  std::vector<index_t> distinct(n);
  std::vector<index_t> shared(n);
  for (index_t i = 0; i < n; ++i) {
    distinct[i] = i;
    shared[i] = n + i;
  }
  // Two consecutive batches exercise pool reuse. Members of one target
  // form one group, and the first group runs on lane 0 — the caller — in
  // batch order.
  ex.execute(g, distinct);
  const std::size_t before = backend.on_caller().size();
  ex.execute(g, shared);
  EXPECT_EQ(backend.count(), 2 * n);
  EXPECT_EQ(ex.exec_stats().fallback_tasks, 0);
  EXPECT_EQ(ex.exec_stats().det_reductions, n - 1);
  const std::vector<index_t> calls = backend.on_caller();
  ASSERT_EQ(calls.size() - before, static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(calls[before + i], n + i);
}

TEST(Executor, NullBackendTimesOnly) {
  TaskGraph g;
  g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  g.finalize();
  Executor ex(KernelCostModel(DeviceSpec{}), nullptr);
  const BatchResult r = ex.execute(g, {0});
  EXPECT_GT(r.seconds, 0);
}

// A timing-only replay executes no numerics, so a multi-worker Executor
// without a backend starts no pool threads and reports no exec batches.
TEST(Executor, NullBackendStartsNoThreads) {
  const auto threads = [] {
    const std::filesystem::directory_iterator it("/proc/self/task");
    return std::distance(std::filesystem::begin(it),
                         std::filesystem::end(it));
  };
  TaskGraph g;
  g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  g.finalize();
  const auto before = threads();
  Executor ex(KernelCostModel(DeviceSpec{}), nullptr,
              ExecOptions{.workers = 4});
  ex.execute(g, {0});
  EXPECT_EQ(threads(), before);
  EXPECT_EQ(ex.exec_stats().batches, 0);
}

// ---- Collector capacity bounds (property-style) -------------------------

TEST(Collector, BatchRespectsBlockAndShmemBudget) {
  // Whatever the task mix, a closed multi-task batch respects BOTH device
  // resources; only a single oversized task may exceed them (it runs alone,
  // in waves).
  DeviceSpec d;
  d.sm_count = 4;
  d.max_blocks_per_sm = 8;  // 32 resident blocks machine-wide
  d.shmem_per_sm_kib = 2;   // 8192 bytes machine-wide
  std::minstd_rand rng(20260805);
  for (int trial = 0; trial < 100; ++trial) {
    Collector c(d);
    offset_t blocks = 0;
    offset_t shmem = 0;
    int admitted = 0;
    for (index_t i = 0; i < 64; ++i) {
      Task t = make_task(TaskType::kSsssm, 0, i + 1, 0,
                         1 + static_cast<index_t>(rng() % 12));
      t.cost.shmem_per_block = static_cast<offset_t>(rng() % 600);
      t.id = i;
      if (!c.try_add(t)) break;
      blocks += t.cost.cuda_blocks;
      shmem += t.cost.shmem_per_block * t.cost.cuda_blocks;
      ++admitted;
    }
    ASSERT_GE(admitted, 1);
    if (admitted > 1) {
      EXPECT_LE(blocks, d.resident_blocks());
      EXPECT_LE(shmem, d.total_shmem_bytes());
    }
  }
}

TEST(Collector, OversizedTaskShipsAlone) {
  DeviceSpec d;
  d.sm_count = 1;
  d.max_blocks_per_sm = 4;  // 4 resident blocks
  Collector c(d);
  Task big = make_task(TaskType::kSsssm, 0, 1, 0, /*blocks=*/64);
  big.id = 0;
  EXPECT_TRUE(c.try_add(big));  // first task always admitted
  EXPECT_TRUE(c.full());
  Task small = make_task(TaskType::kSsssm, 0, 2, 0, /*blocks=*/1);
  small.id = 1;
  EXPECT_FALSE(c.try_add(small));  // budget already blown
  EXPECT_EQ(c.take().size(), 1u);
}

// ---- Container ordering --------------------------------------------------

TEST(Container, HeapPopsInPriorityKeyOrder) {
  Container c(Container::Discipline::kHeap);
  std::minstd_rand rng(7);
  std::vector<Task> tasks;
  for (index_t i = 0; i < 100; ++i) {
    Task t = make_task(TaskType::kSsssm, static_cast<index_t>(rng() % 16),
                       static_cast<index_t>(rng() % 32),
                       static_cast<index_t>(rng() % 32));
    t.id = i;
    tasks.push_back(t);
  }
  for (const Task& t : tasks) c.push(t);
  std::uint64_t prev = 0;
  while (!c.empty()) {
    const index_t id = c.pop();
    const std::uint64_t key =
        Prioritizer::priority_key(tasks[static_cast<std::size_t>(id)]);
    EXPECT_GE(key, prev) << "heap popped task " << id << " out of order";
    prev = key;
  }
}

TEST(Container, FifoPopsInArrivalOrder) {
  Container c(Container::Discipline::kFifo);
  // Deliberately adversarial keys: FIFO must ignore them.
  for (index_t i = 0; i < 10; ++i) {
    c.push(/*key=*/static_cast<std::uint64_t>(1000 - i), /*id=*/i);
  }
  for (index_t i = 0; i < 10; ++i) EXPECT_EQ(c.pop(), i);
}

TEST(Container, FacadeSelectsDiscipline) {
  Container heap(Container::Discipline::kHeap);
  Container fifo(Container::Discipline::kFifo);
  for (Container* c : {&heap, &fifo}) {
    c->push(/*key=*/3, 30);
    c->push(/*key=*/1, 10);
    c->push(/*key=*/2, 20);
  }
  // The heap pops by key; fifo pops in arrival order.
  EXPECT_EQ(heap.pop(), 10);
  EXPECT_EQ(fifo.pop(), 30);
  EXPECT_EQ(heap.discipline(), Container::Discipline::kHeap);
  EXPECT_EQ(fifo.discipline(), Container::Discipline::kFifo);
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_EQ(heap.peak_size(), 3u);
  EXPECT_EQ(fifo.peak_size(), 3u);
  while (!heap.empty()) heap.pop();
  EXPECT_THROW(heap.pop(), Error);
}

TEST(Container, UrgentDrainsBeforeDeferredAtEqualReadiness) {
  // The scheduler's two-phase batch formation: everything the Prioritizer
  // marks urgent ships before anything parked in the Container, however
  // attractive the parked keys are. Replayed here at module level with all
  // tasks ready at the same instant.
  const Prioritizer pr;
  Container container;
  std::vector<std::pair<std::uint64_t, index_t>> urgent;  // (key, id)
  std::vector<Task> tasks;
  for (index_t i = 0; i < 40; ++i) {
    // Diagonal distance cycles 0..7: distances <= urgent_window are urgent.
    Task t = make_task(TaskType::kSsssm, 0, i % 8, 0);
    t.id = i;
    tasks.push_back(t);
  }
  for (const Task& t : tasks) {
    if (pr.is_urgent(t)) {
      urgent.emplace_back(pr.key(t), t.id);
    } else {
      container.push(pr.key(t), t.id);
    }
  }
  std::sort(urgent.begin(), urgent.end());
  std::vector<index_t> batch;
  for (const auto& [key, id] : urgent) batch.push_back(id);
  const std::size_t n_urgent = batch.size();
  EXPECT_GT(n_urgent, 0u);
  EXPECT_LT(n_urgent, tasks.size());
  while (!container.empty()) batch.push_back(container.pop());
  ASSERT_EQ(batch.size(), tasks.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool is_urgent =
        pr.is_urgent(tasks[static_cast<std::size_t>(batch[i])]);
    EXPECT_EQ(is_urgent, i < n_urgent)
        << "urgent/deferred boundary violated at position " << i;
  }
}

}  // namespace
}  // namespace th
