// Tests of the parallel batch-execution runtime (src/exec): BlockMap
// dispatch, WorkerPool lanes, the BatchExecutor's slicing/accumulation
// contracts against a mock backend, and end-to-end parallel numeric
// factorisation against the serial path, bitwise across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/batch_executor.hpp"
#include "exec/block_map.hpp"
#include "exec/worker_pool.hpp"
#include "gen/generators.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "sparse/ops.hpp"

namespace th {
namespace {

// ---- BlockMap ----------------------------------------------------------

TEST(BlockMap, PrefixSumsAndBinarySearch) {
  const exec::BlockMap map(std::vector<index_t>{3, 1, 4});
  EXPECT_EQ(map.size(), 3);
  EXPECT_EQ(map.total_blocks(), 8);
  EXPECT_EQ(map.start_of(0), 0);
  EXPECT_EQ(map.start_of(1), 3);
  EXPECT_EQ(map.start_of(2), 4);
  EXPECT_EQ(map.start_of(3), 8);
  EXPECT_EQ(map.blocks_of(0), 3);
  EXPECT_EQ(map.blocks_of(1), 1);
  EXPECT_EQ(map.blocks_of(2), 4);
  const index_t want[] = {0, 0, 0, 1, 2, 2, 2, 2};
  for (index_t b = 0; b < 8; ++b) EXPECT_EQ(map.task_of_block(b), want[b]);
  EXPECT_THROW(map.task_of_block(8), Error);
  EXPECT_THROW(map.task_of_block(-1), Error);
}

TEST(BlockMap, EmptyAndValidation) {
  const exec::BlockMap empty;
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.total_blocks(), 0);
  EXPECT_THROW(exec::BlockMap(std::vector<index_t>{2, 0, 1}), Error);
}

TEST(BlockMap, OccupancyClampsAtOne) {
  const exec::BlockMap map(std::vector<index_t>{8, 8});
  EXPECT_DOUBLE_EQ(map.occupancy(32), 0.5);
  EXPECT_DOUBLE_EQ(map.occupancy(16), 1.0);
  EXPECT_DOUBLE_EQ(map.occupancy(4), 1.0);  // oversubscribed: runs in waves
}

// ---- WorkerPool --------------------------------------------------------

TEST(WorkerPool, EveryLaneRunsExactlyOncePerBatch) {
  exec::WorkerPool pool(4);
  EXPECT_EQ(pool.width(), 4);
  for (int round = 0; round < 3; ++round) {  // pool survives reuse
    std::vector<std::atomic<int>> hits(4);
    for (auto& h : hits) h = 0;
    std::atomic<int> caller_lane{-1};
    const std::thread::id caller = std::this_thread::get_id();
    pool.run([&](int lane) {
      hits[static_cast<std::size_t>(lane)].fetch_add(1);
      if (std::this_thread::get_id() == caller) caller_lane = lane;
    });
    for (int l = 0; l < 4; ++l) EXPECT_EQ(hits[l].load(), 1) << "lane " << l;
    EXPECT_EQ(caller_lane.load(), 0);  // the caller participates as lane 0
  }
}

TEST(WorkerPool, BodyExceptionDrainsBarrierAndRethrows) {
  // A throwing body used to escape the worker thread (std::terminate) and
  // leak the `remaining` count. Loop to give tsan / the claim protocol
  // race coverage; rotate the throwing lane so caller and workers both hit
  // the capture path.
  exec::WorkerPool pool(4);
  for (int round = 0; round < 64; ++round) {
    std::atomic<int> ran{0};
    bool caught = false;
    try {
      pool.run([&](int lane) {
        ran.fetch_add(1);
        if (lane == round % 4) throw std::runtime_error("lane boom");
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "lane boom");
    }
    EXPECT_TRUE(caught) << "round " << round;
    EXPECT_EQ(ran.load(), 4);  // the barrier drained: every lane still ran
  }
  // The pool survives and stays reusable after every exception.
  std::atomic<int> ok{0};
  pool.run([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(pool.lanes_degraded(), 0);
}

TEST(WorkerPool, FirstExceptionWinsWhenEveryLaneThrows) {
  exec::WorkerPool pool(3);
  for (int round = 0; round < 16; ++round) {
    EXPECT_THROW(pool.run([&](int) { throw std::runtime_error("all boom"); }),
                 std::runtime_error);
  }
}

TEST(WorkerPool, WatchdogStealsHungLaneAndDegradesWidth) {
  exec::WorkerPool pool(4);
  pool.set_watchdog(0.05);
  pool.inject_hang(2);  // lane 2's worker wedges before claiming its work
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  pool.run([&](int lane) { hits[static_cast<std::size_t>(lane)].fetch_add(1); });
  // The caller claimed and ran the hung lane's work: nothing was lost.
  for (int l = 0; l < 4; ++l) EXPECT_EQ(hits[l].load(), 1) << "lane " << l;
  EXPECT_EQ(pool.lanes_degraded(), 1);
  EXPECT_EQ(pool.width(), 3);
  // Subsequent batches run at the degraded (responsive) width, and the
  // dead worker is never dispatched to again.
  std::atomic<int> ran{0};
  pool.run([&](int lane) {
    EXPECT_LT(lane, 3);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.lanes_degraded(), 1);
}

TEST(WorkerPool, WidthOneSpawnsNoThreads) {
  exec::WorkerPool pool(1);
  int runs = 0;
  std::thread::id ran_on;
  pool.run([&](int lane) {
    EXPECT_EQ(lane, 0);
    ran_on = std::this_thread::get_id();
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// ---- BatchExecutor against a mock backend ------------------------------

Task make_task(TaskType type, index_t id, index_t blocks) {
  Task t;
  t.id = id;
  t.type = type;
  t.k = 0;
  t.row = id;
  t.col = 0;
  t.cost.cuda_blocks = blocks;
  return t;
}

/// Records exactly which block ranges / whole tasks ran, keyed by task id.
class MockBackend : public NumericBackend {
 public:
  explicit MockBackend(index_t n_tasks, bool with_scratch = false)
      : covered_(static_cast<std::size_t>(n_tasks)),
        with_scratch_(with_scratch) {
    for (auto& c : covered_) c = 0;
  }

  void run_task(const Task& t, bool) override {
    const std::lock_guard<std::mutex> lock(mu_);
    whole_.push_back(t.id);
  }

  bool run_blocks(const Task& t, index_t b0, index_t b1, bool,
                  real_t* into) override {
    if (t.type == TaskType::kGetrf) return false;  // sequential body
    EXPECT_TRUE(b0 >= 0 && b0 < b1 && b1 <= t.cost.cuda_blocks);
    covered_[static_cast<std::size_t>(t.id)].fetch_add(b1 - b0);
    if (into != nullptr) {
      // Scratch arrives zero-initialised; slices of one task may run on
      // different lanes concurrently, so each deposits only into its own
      // disjoint block slots (the contract real backends honour: one
      // column range per block).
      for (index_t b = b0; b < b1; ++b) into[b] += 1.0;
    }
    return true;
  }

  offset_t scratch_size(const Task& t) override {
    return with_scratch_ ? t.cost.cuda_blocks : 0;
  }

  void apply_scratch(const Task& t, const real_t* scratch) override {
    real_t sum = 0;
    for (index_t b = 0; b < t.cost.cuda_blocks; ++b) sum += scratch[b];
    const std::lock_guard<std::mutex> lock(mu_);
    folded_.emplace_back(t.id, sum);
  }

  index_t coverage(index_t id) const {
    return covered_[static_cast<std::size_t>(id)].load();
  }

  std::mutex mu_;
  std::vector<std::atomic<index_t>> covered_;  // blocks run per task id
  bool with_scratch_;
  std::vector<index_t> whole_;       // run_task calls, in call order
  std::vector<std::pair<index_t, real_t>> folded_;  // apply_scratch order
};

TEST(BatchExecutor, EveryBlockRunsExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    std::vector<Task> storage;
    for (index_t i = 0; i < 9; ++i) {
      storage.push_back(make_task(TaskType::kSsssm, i, 1 + (i * 7) % 23));
    }
    std::vector<const Task*> batch;
    for (const Task& t : storage) batch.push_back(&t);
    MockBackend mock(9);
    exec::BatchExecOptions opt;
    opt.n_threads = threads;
    opt.chunk_blocks = 3;  // force chunks to straddle task boundaries
    exec::BatchExecutor ex(opt);
    ex.execute(mock, batch, std::vector<char>(9, 0), nullptr);
    for (index_t i = 0; i < 9; ++i) {
      EXPECT_EQ(mock.coverage(i), storage[i].cost.cuda_blocks)
          << "task " << i << " at " << threads << " threads";
    }
    EXPECT_TRUE(mock.whole_.empty());
    EXPECT_GT(ex.stats().slices, 0);
    EXPECT_EQ(ex.stats().fallback_tasks, 0);
  }
}

TEST(BatchExecutor, SequentialTaskFallsBackWholeOnFirstBlockLane) {
  // GETRF has no block body; it must run whole exactly once even when its
  // block range spans several chunks.
  std::vector<Task> storage = {make_task(TaskType::kGetrf, 0, 10),
                               make_task(TaskType::kSsssm, 1, 5)};
  std::vector<const Task*> batch = {&storage[0], &storage[1]};
  MockBackend mock(2);
  exec::BatchExecOptions opt;
  opt.n_threads = 4;
  opt.chunk_blocks = 2;
  exec::BatchExecutor ex(opt);
  ex.execute(mock, batch, std::vector<char>(2, 0), nullptr);
  EXPECT_EQ(mock.whole_, std::vector<index_t>{0});
  EXPECT_EQ(mock.coverage(1), 5);
  EXPECT_EQ(ex.stats().fallback_tasks, 1);
}

TEST(BatchExecutor, DeterministicModeFoldsScratchInBatchOrder) {
  std::vector<Task> storage;
  for (index_t i = 0; i < 5; ++i) {
    storage.push_back(make_task(TaskType::kSsssm, i, 3 + i));
  }
  std::vector<const Task*> batch;
  for (const Task& t : storage) batch.push_back(&t);
  MockBackend mock(5, /*with_scratch=*/true);
  exec::BatchExecOptions opt;
  opt.n_threads = 4;
  opt.chunk_blocks = 2;
  exec::BatchExecutor ex(opt);
  ex.execute(mock, batch, std::vector<char>{0, 1, 1, 0, 1}, nullptr);
  // Conflicting members 1, 2, 4 fold in batch order, each having deposited
  // exactly its block count into scratch[0].
  ASSERT_EQ(mock.folded_.size(), 3u);
  EXPECT_EQ(mock.folded_[0].first, 1);
  EXPECT_EQ(mock.folded_[1].first, 2);
  EXPECT_EQ(mock.folded_[2].first, 4);
  for (const auto& [id, sum] : mock.folded_) {
    EXPECT_DOUBLE_EQ(sum,
                     static_cast<real_t>(storage[id].cost.cuda_blocks));
  }
  EXPECT_EQ(ex.stats().det_reductions, 3);
}

TEST(BatchExecutor, DeterministicModeWithoutScratchSerialises) {
  // scratch_size() == 0: the conflicting member must run whole in the
  // ordered epilogue instead (still deterministic).
  std::vector<Task> storage = {make_task(TaskType::kSsssm, 0, 4),
                               make_task(TaskType::kSsssm, 1, 4)};
  std::vector<const Task*> batch = {&storage[0], &storage[1]};
  MockBackend mock(2, /*with_scratch=*/false);
  exec::BatchExecOptions opt;
  opt.n_threads = 2;
  exec::BatchExecutor ex(opt);
  ex.execute(mock, batch, std::vector<char>{0, 1}, nullptr);
  EXPECT_EQ(mock.coverage(0), 4);  // unconflicted member still sliced
  ASSERT_EQ(mock.whole_.size(), 1u);
  EXPECT_EQ(mock.whole_[0], 1);
  EXPECT_EQ(mock.coverage(1), 0);  // and never sliced in parallel
  EXPECT_EQ(ex.stats().fallback_tasks, 1);
}

TEST(BatchExecutor, DeterministicSkipContributesNoScratchFolds) {
  // Deterministic accumulation with a non-null skip vector: members the
  // scheduler marked skipped (crashed attempts) must neither slice nor
  // fold their scratch, while surviving conflicted members still fold in
  // batch order.
  std::vector<Task> storage;
  for (index_t i = 0; i < 5; ++i) {
    storage.push_back(make_task(TaskType::kSsssm, i, 3 + i));
  }
  std::vector<const Task*> batch;
  for (const Task& t : storage) batch.push_back(&t);
  MockBackend mock(5, /*with_scratch=*/true);
  exec::BatchExecOptions opt;
  opt.n_threads = 4;
  opt.chunk_blocks = 2;
  exec::BatchExecutor ex(opt);
  const std::vector<char> skip = {0, 1, 0, 1, 0};
  ex.execute(mock, batch, std::vector<char>(5, 1), &skip);
  // Only the surviving members 0, 2, 4 folded, in batch order.
  ASSERT_EQ(mock.folded_.size(), 3u);
  EXPECT_EQ(mock.folded_[0].first, 0);
  EXPECT_EQ(mock.folded_[1].first, 2);
  EXPECT_EQ(mock.folded_[2].first, 4);
  for (const auto& [id, sum] : mock.folded_) {
    EXPECT_DOUBLE_EQ(sum, static_cast<real_t>(storage[id].cost.cuda_blocks));
  }
  EXPECT_EQ(mock.coverage(1), 0);
  EXPECT_EQ(mock.coverage(3), 0);
  EXPECT_EQ(ex.stats().det_reductions, 3);
  EXPECT_EQ(ex.stats().fallback_tasks, 0);
}

TEST(BatchExecutor, VerifyCountsNonSkippedMembers) {
  // The ABFT exchange at the exec layer: with a backend whose default
  // abft hooks accept everything, every non-skipped member is verified
  // and no outcome is flagged.
  std::vector<Task> storage = {make_task(TaskType::kSsssm, 0, 4),
                               make_task(TaskType::kSsssm, 1, 4),
                               make_task(TaskType::kSsssm, 2, 4)};
  std::vector<const Task*> batch = {&storage[0], &storage[1], &storage[2]};
  MockBackend mock(3);
  exec::BatchExecutor ex(exec::BatchExecOptions{});
  exec::BatchVerify bv;
  bv.abft = true;
  const std::vector<char> skip = {0, 1, 0};
  ex.execute(mock, batch, std::vector<char>(3, 0), &skip, &bv);
  EXPECT_EQ(bv.verified, 2);
  ASSERT_EQ(bv.outcome.size(), 3u);
  for (const char c : bv.outcome) EXPECT_EQ(c, 0);
  EXPECT_EQ(bv.sabotaged, 0);
}

TEST(BatchExecutor, WatchdogDegradesHungLaneMidBatch) {
  std::vector<Task> storage;
  for (index_t i = 0; i < 6; ++i) {
    storage.push_back(make_task(TaskType::kSsssm, i, 4));
  }
  std::vector<const Task*> batch;
  for (const Task& t : storage) batch.push_back(&t);
  MockBackend mock(6);
  exec::BatchExecOptions opt;
  opt.n_threads = 4;
  opt.chunk_blocks = 2;
  opt.watchdog_s = 0.05;
  exec::BatchExecutor ex(opt);
  ex.pool().inject_hang(1);
  ex.execute(mock, batch, std::vector<char>(6, 0), nullptr);
  // Every block still ran exactly once (the caller claimed the hung
  // lane's chunks) and the pool shrank instead of hanging.
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_EQ(mock.coverage(i), storage[i].cost.cuda_blocks) << "task " << i;
  }
  EXPECT_EQ(ex.stats().lanes_degraded, 1);
  EXPECT_EQ(ex.pool().width(), 3);
  // The next batch runs at the degraded width without further loss.
  MockBackend mock2(6);
  ex.execute(mock2, batch, std::vector<char>(6, 0), nullptr);
  for (index_t i = 0; i < 6; ++i) {
    EXPECT_EQ(mock2.coverage(i), storage[i].cost.cuda_blocks);
  }
}

TEST(BatchExecutor, SkippedMembersNeverExecute) {
  std::vector<Task> storage = {make_task(TaskType::kSsssm, 0, 4),
                               make_task(TaskType::kGetrf, 1, 2),
                               make_task(TaskType::kSsssm, 2, 4)};
  std::vector<const Task*> batch = {&storage[0], &storage[1], &storage[2]};
  MockBackend mock(3);
  exec::BatchExecutor ex(exec::BatchExecOptions{});
  const std::vector<char> skip = {1, 1, 0};
  ex.execute(mock, batch, std::vector<char>(3, 0), &skip);
  EXPECT_EQ(mock.coverage(0), 0);
  EXPECT_TRUE(mock.whole_.empty());  // skipped GETRF does not fall back
  EXPECT_EQ(mock.coverage(2), 4);
}

// ---- End-to-end parallel factorisation ---------------------------------

Csr exec_matrix() { return finalize_system(banded_random(300, 12, 0.4, 7), 7); }

// The conflict tests tile exec_matrix() at b = 12: under AMD its fill is
// sparse enough at b = 16 that no batch holds two PLU updates of one tile,
// and the folds they check would never run.
constexpr index_t kConflictBlock = 12;

ScheduleResult factor(SolverInstance& inst, int threads) {
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = threads;
  return inst.run_numeric(so);
}

real_t solve_residual(SolverInstance& inst, const Csr& a) {
  const std::vector<real_t> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const std::vector<real_t> x = inst.solve(b);
  return scaled_residual(a, x, b);
}

TEST(ParallelFactor, DeterministicMatchesSerialResidual) {
  const Csr a = exec_matrix();
  for (const int threads : {1, 2, 4, 8}) {
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = kConflictBlock;
    SolverInstance inst(a, io);
    const ScheduleResult r = factor(inst, threads);
    EXPECT_LT(solve_residual(inst, a), 1e-10) << threads << " threads";
    EXPECT_EQ(r.stats().exec.workers, threads);
    EXPECT_GT(r.stats().exec.slices, 0);
    EXPECT_GT(r.stats().exec.det_reductions, 0);  // scratch folds actually happened
  }
}

// Every factor value of a finished instance, in a fixed storage order:
// PLU tiles row-major over the tile grid (an absent tile adds nothing),
// or the SLU supernode panels.
std::vector<real_t> factor_values(const SolverInstance& inst) {
  if (inst.plu_factorization() == nullptr) {
    return inst.slu_factorization()->values();
  }
  const TileMatrix& tm = inst.plu_factorization()->tiles();
  std::vector<real_t> v;
  for (index_t i = 0; i < tm.nt(); ++i) {
    for (index_t j = 0; j < tm.nt(); ++j) {
      if (!tm.has(i, j)) continue;
      const Tile& t = *tm.tile(i, j);
      for (index_t c = 0; c < t.cols(); ++c) {
        for (index_t r = 0; r < t.rows(); ++r) v.push_back(t.at(r, c));
      }
    }
  }
  return v;
}

TEST(ParallelFactor, DeterministicModeIsBitIdenticalAcrossThreadCounts) {
  // Default ExecOptions: deterministic accumulation is the only mode. PLU
  // folds conflicting members' scratch in batch order; SLU (no scratch
  // form) runs them whole in the ordered epilogue.
  const Csr a = exec_matrix();
  for (const SolverCore core : {SolverCore::kPlu, SolverCore::kSlu}) {
    const char* name = core == SolverCore::kPlu ? "plu" : "slu";
    std::vector<real_t> ref;
    for (const int threads : {1, 2, 4, 8}) {
      InstanceOptions io;
      io.core = core;
      io.block = kConflictBlock;
      SolverInstance inst(a, io);
      const ScheduleResult r = factor(inst, threads);
      EXPECT_GT(r.atomic_tasks, 0) << name;  // conflicts were exercised
      const std::vector<real_t> got = factor_values(inst);
      if (threads == 1) {
        ref = got;
        continue;
      }
      ASSERT_EQ(got.size(), ref.size()) << name;
      for (std::size_t e = 0; e < ref.size(); ++e) {
        // Bitwise identity, not a tolerance: the ordered reduction must
        // erase the thread count from the result entirely.
        ASSERT_EQ(std::memcmp(&got[e], &ref[e], sizeof(real_t)), 0)
            << name << " factor value " << e << " differs between 1 and "
            << threads << " threads";
      }
    }
  }
}

TEST(ParallelFactor, SluBackendFallsBackWholeTaskDeterministically) {
  // The SLU core has no block-level bodies: every member runs whole, and
  // the runtime serialises conflicting members in the epilogue. The result
  // must still solve.
  const Csr a = finalize_system(grid2d_laplacian(18, 18), 1);
  InstanceOptions io;
  io.core = SolverCore::kSlu;
  SolverInstance inst(a, io);
  const ScheduleResult r = factor(inst, 4);
  EXPECT_GT(r.stats().exec.fallback_tasks, 0);
  EXPECT_EQ(r.stats().exec.slices, 0);
  EXPECT_LT(solve_residual(inst, a), 1e-10);
}

TEST(ParallelFactor, ExecStatsAreCoherent) {
  const Csr a = finalize_system(grid2d_laplacian(18, 18), 1);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  const ScheduleResult r = factor(inst, 4);
  EXPECT_EQ(r.stats().exec.workers, 4);
  EXPECT_GT(r.stats().exec.batches, 0);
  EXPECT_GT(r.stats().exec.wall_s, 0);
  EXPECT_GT(r.stats().exec.busy_s, 0);
  EXPECT_GT(r.stats().exec.span_s, 0);
  // The critical path can never exceed the total work.
  EXPECT_LE(r.stats().exec.span_s, r.stats().exec.busy_s + 1e-12);
}

// ---- Scheduler-level batching invariant --------------------------------

TEST(ParallelFactor, UrgentTasksFormAPrefixOfEveryBatch) {
  // The Collector admits urgent tasks (Prioritizer phase 1) strictly before
  // Container top-ups (phase 2); with atomic batching on, urgent tasks
  // never enter the Container at all — so each recorded batch must be an
  // urgent prefix followed by deferrable members only.
  const Csr a = exec_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.collect_batches = true;
  const ScheduleResult r = inst.run_timing(so);
  const Prioritizer pr(so.prioritizer);
  ASSERT_FALSE(r.stats().batches.empty());
  for (std::size_t b = 0; b < r.stats().batches.size(); ++b) {
    bool seen_deferrable = false;
    for (const index_t id : r.stats().batches[b].members) {
      const bool urgent = pr.is_urgent(inst.graph().task(id));
      EXPECT_FALSE(urgent && seen_deferrable)
          << "urgent task " << id << " after a deferrable one in batch " << b;
      seen_deferrable = seen_deferrable || !urgent;
    }
  }
}

}  // namespace
}  // namespace th
