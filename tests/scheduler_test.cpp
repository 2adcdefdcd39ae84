#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "core/scheduler.hpp"
#include "resilience/validate.hpp"

namespace th {
namespace {

Task make_task(TaskType type, index_t k, index_t row, index_t col,
               offset_t flops = 50000, index_t blocks = 8) {
  Task t;
  t.type = type;
  t.k = k;
  t.row = row;
  t.col = col;
  t.cost.flops = flops;
  t.cost.bytes = flops;
  t.cost.cuda_blocks = blocks;
  t.cost.shmem_per_block = 256;
  t.out_bytes = 4096;
  t.atomic_ok = type == TaskType::kSsssm;
  return t;
}

// The paper's Figure-4 example: a 6x6 matrix as 3x3 blocks, 14 tasks
// (3 GETRF, 6 triangular solves, 5 Schur updates).
TaskGraph figure4_graph() {
  TaskGraph g;
  const index_t f1 = g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  const index_t t2 = g.add_task(make_task(TaskType::kTstrf, 0, 1, 0));
  const index_t t4 = g.add_task(make_task(TaskType::kGeesm, 0, 0, 2));
  const index_t s5 = g.add_task(make_task(TaskType::kSsssm, 0, 1, 1));
  const index_t s80 = g.add_task(make_task(TaskType::kSsssm, 0, 1, 2));
  const index_t s90 = g.add_task(make_task(TaskType::kSsssm, 0, 2, 2));
  const index_t f5 = g.add_task(make_task(TaskType::kGetrf, 1, 1, 1));
  const index_t t7 = g.add_task(make_task(TaskType::kTstrf, 1, 2, 1));
  const index_t t3 = g.add_task(make_task(TaskType::kGeesm, 1, 1, 2));
  const index_t s91 = g.add_task(make_task(TaskType::kSsssm, 1, 2, 2));
  const index_t f9 = g.add_task(make_task(TaskType::kGetrf, 2, 2, 2));
  const index_t t8 = g.add_task(make_task(TaskType::kTstrf, 1, 2, 1, 30000));
  const index_t t6 = g.add_task(make_task(TaskType::kGeesm, 0, 0, 1));
  const index_t s8b = g.add_task(make_task(TaskType::kSsssm, 0, 2, 1));

  g.add_dependency(f1, t2);
  g.add_dependency(f1, t4);
  g.add_dependency(f1, t6);
  g.add_dependency(t2, s5);
  g.add_dependency(t6, s5);
  g.add_dependency(t2, s80);
  g.add_dependency(t4, s80);
  g.add_dependency(t4, s90);
  g.add_dependency(t2, s90);
  g.add_dependency(s5, f5);
  g.add_dependency(f5, t7);
  g.add_dependency(f5, t3);
  g.add_dependency(s8b, t7);
  g.add_dependency(s80, t3);
  g.add_dependency(t7, s91);
  g.add_dependency(t3, s91);
  g.add_dependency(s90, f9);
  g.add_dependency(s91, f9);
  g.add_dependency(t6, s8b);
  g.add_dependency(t2, s8b);
  g.add_dependency(f5, t8);
  (void)t8;
  return g;
}

// Records execution order and validates dependency ordering.
class OrderCheckingBackend : public NumericBackend {
 public:
  explicit OrderCheckingBackend(const TaskGraph& g) : g_(g) {}

  void run_task(const Task& t, bool) override {
    std::lock_guard<std::mutex> lk(mu_);
    order_.push_back(t.id);
  }

  /// Verify every task ran exactly once and after all its predecessors
  /// *in a strictly earlier batch or earlier in the same sweep*.
  void validate() const {
    std::vector<int> pos(g_.size(), -1);
    for (std::size_t i = 0; i < order_.size(); ++i) {
      ASSERT_EQ(pos[order_[i]], -1) << "task ran twice";
      pos[order_[i]] = static_cast<int>(i);
    }
    for (index_t t = 0; t < g_.size(); ++t) {
      ASSERT_NE(pos[t], -1) << "task " << t << " never ran";
      auto [pb, pe] = g_.predecessors(t);
      for (const index_t* p = pb; p != pe; ++p) {
        EXPECT_LT(pos[*p], pos[t])
            << "task " << t << " ran before its dependency " << *p;
      }
    }
  }

 private:
  const TaskGraph& g_;
  std::mutex mu_;
  std::vector<index_t> order_;
};

ScheduleOptions base_options(Policy p, int ranks = 1) {
  ScheduleOptions o;
  o.policy = p;
  o.n_ranks = ranks;
  o.cluster = single_gpu(device_a100());
  o.validate_schedule = true;  // schedule invariants checked on every timeline
  return o;
}

class AllPolicies : public testing::TestWithParam<Policy> {};

TEST_P(AllPolicies, Figure4ExecutesRespectingDeps) {
  TaskGraph g = figure4_graph();
  g.finalize();
  OrderCheckingBackend backend(g);
  const ScheduleResult r = simulate(g, base_options(GetParam()), &backend);
  backend.validate();
  EXPECT_GT(r.makespan_s, 0);
  offset_t tasks = 0;
  for (const auto& rec : r.trace.records()) tasks += rec.tasks;
  EXPECT_EQ(tasks, g.size());
}

TEST_P(AllPolicies, MultiRankWithCommStillCorrect) {
  TaskGraph g = figure4_graph();
  // Spread ownership across 4 ranks.
  for (index_t i = 0; i < g.size(); ++i) {
    Task& t = g.mutable_task(i);
    t.owner_rank = static_cast<int>((t.row * 2 + t.col) % 4);
  }
  g.finalize();
  OrderCheckingBackend backend(g);
  ScheduleOptions o = base_options(GetParam(), 4);
  o.cluster = cluster_h100();
  const ScheduleResult r = simulate(g, o, &backend);
  backend.validate();
  EXPECT_GT(r.comm_messages, 0);
  EXPECT_GT(r.comm_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllPolicies,
    testing::Values(Policy::kLevelPerTask, Policy::kPriorityPerTask,
                    Policy::kMultiStream, Policy::kDmdas,
                    Policy::kTrojanHorse),
    [](const testing::TestParamInfo<Policy>& info) {
      std::string s = policy_name(info.param);
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

TEST(TrojanHorseSchedule, BatchesIndependentHeterogeneousTasks) {
  // A wide layer of independent tasks of all four types must land in few
  // kernels under the Trojan Horse and in N kernels under baselines.
  TaskGraph g;
  const int kWide = 64;
  for (int i = 0; i < kWide; ++i) {
    const TaskType types[4] = {TaskType::kGetrf, TaskType::kTstrf,
                               TaskType::kGeesm, TaskType::kSsssm};
    g.add_task(make_task(types[i % 4], 0, i + 1, (i % 4 == 0) ? i + 1 : 0,
                         10000, 4));
  }
  g.finalize();
  const ScheduleResult th =
      simulate(g, base_options(Policy::kTrojanHorse), nullptr);
  const ScheduleResult base =
      simulate(g, base_options(Policy::kPriorityPerTask), nullptr);
  EXPECT_EQ(base.kernel_count, kWide);
  EXPECT_LE(th.kernel_count, 4);
  EXPECT_LT(th.makespan_s, base.makespan_s / 4);
  EXPECT_GT(th.mean_batch_size, 10);
}

TEST(TrojanHorseSchedule, CollectorCapacityBoundsBatch) {
  TaskGraph g;
  for (int i = 0; i < 100; ++i) {
    g.add_task(make_task(TaskType::kSsssm, 0, i + 2, 0, 10000,
                         /*blocks=*/256));
  }
  g.finalize();
  ScheduleOptions o = base_options(Policy::kTrojanHorse);
  o.cluster.gpu.sm_count = 4;
  o.cluster.gpu.max_blocks_per_sm = 64;  // 256 resident blocks => 1/batch
  const ScheduleResult r = simulate(g, o, nullptr);
  EXPECT_EQ(r.kernel_count, 100);  // every task fills the device alone
}

TEST(TrojanHorseSchedule, UrgentTasksPreemptContainerTasks) {
  // Layer 1: one GETRF (urgent) + many far-from-diagonal SSSSM.
  // The GETRF's batch must contain it even though the SSSSM tasks arrived
  // "earlier" in id order.
  TaskGraph g;
  std::vector<index_t> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(
        g.add_task(make_task(TaskType::kSsssm, 0, 40 + i, 0, 10000, 2)));
  }
  const index_t f = g.add_task(make_task(TaskType::kGetrf, 1, 1, 1, 500, 2));
  g.finalize();
  const ScheduleResult r =
      simulate(g, base_options(Policy::kTrojanHorse), nullptr);
  // All in one batch (plenty of capacity) — and the run completes.
  EXPECT_LE(r.kernel_count, 2);
  (void)f;
  (void)ids;
}

TEST(TrojanHorseSchedule, WriteConflictsAreFlaggedOrDeferred) {
  // Two SSSSM updates of tile (2, 2) ready in the same layer.
  TaskGraph g;
  g.add_task(make_task(TaskType::kSsssm, 0, 2, 2));
  g.add_task(make_task(TaskType::kSsssm, 1, 2, 2));
  g.finalize();
  auto run = [&](auto mutate) {
    ScheduleOptions o = base_options(Policy::kTrojanHorse);
    mutate(o);
    return simulate(g, o, nullptr);
  };
  auto conflict_batches = [](const ScheduleResult& r) {
    int k = 0;
    for (const BatchLog::Batch& b : r.stats().batches.batches) {
      k += b.had_conflict;
    }
    return k;
  };

  // TH batches both, atomically.
  const ScheduleResult th = run([](ScheduleOptions&) {});
  EXPECT_EQ(th.kernel_count, 1);
  EXPECT_EQ(th.atomic_tasks, 2);
  EXPECT_EQ(conflict_batches(th), 1);

  // Atomic batching off: the second update waits for a later batch.
  const ScheduleResult serial =
      run([](ScheduleOptions& o) { o.allow_atomic_batching = false; });
  EXPECT_GE(serial.deferred_tasks, 1);
  EXPECT_EQ(serial.atomic_tasks, 0);
  EXPECT_EQ(conflict_batches(serial), 0);

  // The CPU model's bulk step takes both and flags them like TH.
  const ScheduleResult cpu =
      run([](ScheduleOptions& o) { o.cpu_mode = true; });
  EXPECT_EQ(cpu.kernel_count, 1);
  EXPECT_EQ(cpu.atomic_tasks, 2);
  EXPECT_EQ(conflict_batches(cpu), 1);

  // The validator holds the flags and the counter to the batch members.
  ScheduleOptions o = base_options(Policy::kTrojanHorse);
  ScheduleResult bad = th;
  bad.stats().batches[0].had_conflict = false;
  EXPECT_FALSE(validate_schedule(g, o, bad).ok());
  bad = th;
  bad.atomic_tasks = 1;
  EXPECT_FALSE(validate_schedule(g, o, bad).ok());
  o.allow_atomic_batching = false;
  EXPECT_FALSE(validate_schedule(g, o, th).ok());
}

TEST(MultiStream, OverlapsKernelsAcrossStreams) {
  // Independent equal tasks: 4 streams should beat 1-at-a-time issue.
  TaskGraph g;
  for (int i = 0; i < 32; ++i) {
    g.add_task(make_task(TaskType::kSsssm, 0, i + 2, 0, 2e7, 8));
  }
  g.finalize();
  const ScheduleResult stream =
      simulate(g, base_options(Policy::kMultiStream), nullptr);
  const ScheduleResult serial =
      simulate(g, base_options(Policy::kPriorityPerTask), nullptr);
  EXPECT_LT(stream.makespan_s, serial.makespan_s);
  // But still one kernel per task.
  EXPECT_EQ(stream.kernel_count, 32);
}

TEST(CpuMode, ExecutesAllReadyTasksPerStep) {
  TaskGraph g;
  for (int i = 0; i < 40; ++i) {
    g.add_task(make_task(TaskType::kSsssm, 0, i + 2, 0, 1e6, 4));
  }
  g.finalize();
  ScheduleOptions o = base_options(Policy::kLevelPerTask);
  o.cpu_mode = true;
  const ScheduleResult r = simulate(g, o, nullptr);
  EXPECT_EQ(r.kernel_count, 1);  // single bulk step
  EXPECT_GT(r.makespan_s, 0);
}

TEST(Scheduler, RequiresFinalizedGraph) {
  TaskGraph g;
  g.add_task(make_task(TaskType::kGetrf, 0, 0, 0));
  EXPECT_THROW(simulate(g, base_options(Policy::kTrojanHorse), nullptr),
               Error);
}

TEST(Scheduler, RejectsInvalidOptions) {
  TaskGraph g = figure4_graph();
  g.finalize();
  auto run = [&](auto mutate) {
    ScheduleOptions o = base_options(Policy::kTrojanHorse);
    mutate(o);
    return simulate(g, o, nullptr);
  };
  EXPECT_THROW(run([](ScheduleOptions& o) { o.n_ranks = 0; }), Error);
  EXPECT_THROW(run([](ScheduleOptions& o) { o.n_streams = 0; }), Error);
  EXPECT_THROW(run([](ScheduleOptions& o) { o.exec.workers = 0; }), Error);
  EXPECT_THROW(run([](ScheduleOptions& o) { o.cluster.gpus_per_node = 0; }),
               Error);
  EXPECT_THROW(run([](ScheduleOptions& o) { o.cluster.intra_node_bw_bps = 0; }),
               Error);
  EXPECT_THROW(
      run([](ScheduleOptions& o) { o.cluster.inter_node_bw_bps = -1; }),
      Error);
  EXPECT_THROW(
      run([](ScheduleOptions& o) { o.cluster.inter_node_latency_s = -1e-6; }),
      Error);
  EXPECT_THROW(run([](ScheduleOptions& o) {
                 o.cpu_mode = true;
                 o.cpu.cores = 0;
               }),
               Error);
}

TEST(Scheduler, RanksStatsConsistent) {
  TaskGraph g = figure4_graph();
  for (index_t i = 0; i < g.size(); ++i) {
    g.mutable_task(i).owner_rank = i % 2;
  }
  g.finalize();
  ScheduleOptions o = base_options(Policy::kTrojanHorse, 2);
  const ScheduleResult r = simulate(g, o, nullptr);
  ASSERT_EQ(r.stats().ranks.size(), 2u);
  offset_t kernels = 0;
  for (const auto& rs : r.stats().ranks) kernels += rs.kernels;
  EXPECT_EQ(kernels, r.kernel_count);
  EXPECT_EQ(r.stats().ranks[0].flops + r.stats().ranks[1].flops, g.total_flops());
}

}  // namespace
}  // namespace th
