// Tests of the parallel batch-execution runtime (src/exec): WorkerPool
// lanes, the BatchExecutor's one-lane-per-target contract against a mock
// backend, and end-to-end parallel numeric factorisation against a serial
// replay of the simulated batches, bitwise at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/batch_executor.hpp"
#include "exec/worker_pool.hpp"
#include "gen/generators.hpp"
#include "kernels/simd.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "sparse/ops.hpp"

namespace th {
namespace {

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

Task make_task(index_t id, index_t row, index_t col) {
  Task t;
  t.id = id;
  t.type = TaskType::kSsssm;
  t.row = row;
  t.col = col;
  t.cost.cuda_blocks = 4;
  return t;
}

/// Logs (thread, task id) for every run_task and abft_verify call, in call
/// order.
class LoggingBackend : public NumericBackend {
 public:
  struct Call {
    std::thread::id lane;
    index_t id;
  };

  void run_task(const Task& t, bool) override { log(runs_, t); }
  bool abft_verify(const Task& t, real_t) override {
    log(verifies_, t);
    return true;
  }

  std::vector<Call> runs_;
  std::vector<Call> verifies_;

 private:
  void log(std::vector<Call>& calls, const Task& t) {
    const std::lock_guard<std::mutex> lock(mu_);
    calls.push_back({std::this_thread::get_id(), t.id});
  }
  std::mutex mu_;
};

/// Member ids in call order.
std::vector<index_t> ids_of(const std::vector<LoggingBackend::Call>& calls) {
  std::vector<index_t> ids;
  for (const auto& c : calls) ids.push_back(c.id);
  return ids;
}

TEST(BatchExecutor, EachTargetRunsWholeOnOneLaneInBatchOrder) {
  // Members 1, 4 and 7 update one target (5, 2), interleaved with
  // independent members; 3 and 6 are skipped (one of them an update of
  // the shared target).
  std::vector<Task> storage;
  for (index_t i = 0; i < 9; ++i) storage.push_back(make_task(i, 10 + i, 0));
  for (const index_t i : {1, 4, 6, 7}) storage[i] = make_task(i, 5, 2);
  std::vector<const Task*> batch;
  for (const Task& t : storage) batch.push_back(&t);
  const std::vector<char> skip = {0, 0, 0, 1, 0, 0, 1, 0, 0};
  LoggingBackend mock;
  exec::BatchExecOptions opt;
  opt.n_threads = 4;
  exec::BatchExecutor ex(opt);
  exec::BatchVerify bv;
  bv.abft = true;
  ex.execute(mock, batch, &skip, &bv);

  for (const auto* calls : {&mock.runs_, &mock.verifies_}) {
    // Every member that is not skipped ran exactly once; skipped never.
    std::vector<index_t> ids = ids_of(*calls);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<index_t>{0, 1, 2, 4, 5, 7, 8}));
    // The shared target's members ran on one lane, in batch order.
    std::vector<index_t> shared;
    std::thread::id lane;
    for (const auto& c : *calls) {
      if (storage[c.id].row != 5) continue;
      if (shared.empty()) lane = c.lane;
      EXPECT_EQ(c.lane, lane) << "member " << c.id;
      shared.push_back(c.id);
    }
    EXPECT_EQ(shared, (std::vector<index_t>{1, 4, 7}));
    // Groups go to lanes round-robin in first-member order: member 0's
    // group is the first, so it runs on lane 0, the caller.
    for (const auto& c : *calls) {
      if (c.id == 0) {
        EXPECT_EQ(c.lane, std::this_thread::get_id());
      }
    }
  }
  EXPECT_EQ(bv.verified, 7);
  EXPECT_EQ(ex.stats().det_reductions, 2);  // members 4 and 7
  EXPECT_EQ(ex.stats().fallback_tasks, 0);
}

TEST(BatchExecutor, VerifyCountsNonSkippedMembers) {
  // The ABFT exchange at the exec layer: with a backend whose verify
  // accepts everything, every non-skipped member is verified and no
  // outcome is flagged.
  std::vector<Task> storage = {make_task(0, 0, 0), make_task(1, 1, 0),
                               make_task(2, 2, 0)};
  std::vector<const Task*> batch = {&storage[0], &storage[1], &storage[2]};
  LoggingBackend mock;
  exec::BatchExecutor ex(exec::BatchExecOptions{});
  exec::BatchVerify bv;
  bv.abft = true;
  const std::vector<char> skip = {0, 1, 0};
  ex.execute(mock, batch, &skip, &bv);
  EXPECT_EQ(bv.verified, 2);
  ASSERT_EQ(bv.outcome.size(), 3u);
  for (const char c : bv.outcome) EXPECT_EQ(c, 0);
  EXPECT_EQ(bv.sabotaged, 0);
}

TEST(BatchExecutor, WatchdogDegradesHungLaneMidBatch) {
  std::vector<Task> storage;
  for (index_t i = 0; i < 6; ++i) storage.push_back(make_task(i, i, 0));
  std::vector<const Task*> batch;
  for (const Task& t : storage) batch.push_back(&t);
  const std::vector<index_t> all = {0, 1, 2, 3, 4, 5};
  LoggingBackend mock;
  exec::BatchExecOptions opt;
  opt.n_threads = 4;
  opt.watchdog_s = 0.05;
  exec::BatchExecutor ex(opt);
  ex.pool().inject_hang(1);
  ex.execute(mock, batch, nullptr);
  // Every member still ran exactly once (the caller claimed the hung
  // lane's members) and the pool shrank instead of hanging.
  std::vector<index_t> ids = ids_of(mock.runs_);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, all);
  EXPECT_EQ(ex.stats().lanes_degraded, 1);
  EXPECT_EQ(ex.pool().width(), 3);
  // The next batch runs at the degraded width without further loss.
  LoggingBackend mock2;
  ex.execute(mock2, batch, nullptr);
  ids = ids_of(mock2.runs_);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, all);
}

// ---- End-to-end parallel factorisation ---------------------------------

Csr exec_matrix() { return finalize_system(banded_random(300, 12, 0.4, 7), 7); }

// The conflict tests tile exec_matrix() at b = 12: under AMD its fill is
// sparse enough at b = 16 that no batch holds two PLU updates of one tile,
// and the ordered reductions they check would never run.
constexpr index_t kConflictBlock = 12;

ScheduleResult factor(SolverInstance& inst, int threads,
                      bool collect_batches = false, bool abft = false) {
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = threads;
  so.collect_batches = collect_batches;
  so.abft.enabled = abft;
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
    // Ordered reductions (same-target members) actually happened.
    EXPECT_GT(r.stats().exec.det_reductions, 0);
  }
}

// Every factor value of a finished instance, in a fixed storage order:
// PLU tiles row-major over the tile grid (an absent tile adds nothing),
// or the SLU supernode panels.
std::vector<real_t> factor_values(const SolverInstance& inst) {
  if (inst.plu_factorization() == nullptr) {
    return inst.slu_factorization()->values();
  }
  std::vector<real_t> v;
  inst.plu_factorization()->tiles().for_each(
      [&](index_t, index_t, const Tile& t) {
        for (index_t c = 0; c < t.cols(); ++c) {
          for (index_t r = 0; r < t.rows(); ++r) v.push_back(t.at(r, c));
        }
      });
  return v;
}

TEST(ParallelFactor, EveryWidthEqualsTheSerialReplayOfItsBatches) {
  // The host contract: a factorization at any thread count equals, bit
  // for bit, running every simulated batch's members through run_task in
  // (batch, member) order on one thread. Both cores, with write-conflicting
  // members present (atomic_tasks > 0).
  const Csr a = exec_matrix();
  for (const SolverCore core : {SolverCore::kPlu, SolverCore::kSlu}) {
    const char* name = core == SolverCore::kPlu ? "plu" : "slu";
    InstanceOptions io;
    io.core = core;
    io.block = kConflictBlock;
    for (const int threads : {1, 2, 4, 8}) {
      SolverInstance inst(a, io);
      const ScheduleResult r = factor(inst, threads, /*collect_batches=*/true);
      EXPECT_GT(r.atomic_tasks, 0) << name;  // conflicts were exercised
      EXPECT_EQ(r.stats().exec.fallback_tasks, 0) << name;

      SolverInstance replay(a, io);
      NumericBackend& backend = core == SolverCore::kPlu
                                    ? replay.plu_factorization()->backend()
                                    : replay.slu_factorization()->backend();
      for (const BatchLog::Batch& b : r.stats().batches.batches) {
        for (std::size_t m = 0; m < b.members.size(); ++m) {
          ASSERT_EQ(b.status[m], 0);  // a clean run: every member completed
          backend.run_task(replay.graph().task(b.members[m]), false);
        }
      }

      const std::vector<real_t> got = factor_values(inst);
      const std::vector<real_t> want = factor_values(replay);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (std::size_t e = 0; e < want.size(); ++e) {
        // Bitwise identity, not a tolerance: the thread count must vanish
        // from the result entirely.
        ASSERT_EQ(std::memcmp(&got[e], &want[e], sizeof(real_t)), 0)
            << name << " factor value " << e << " at " << threads
            << " threads differs from the serial replay";
      }
    }
  }
}

// FNV-1a over the PLU factor panels: each tile's block coordinates, then
// its panel's bytes, in TileMatrix::for_each order.
std::uint64_t plu_factor_hash(const SolverInstance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 0x100000001b3ULL;
  };
  inst.plu_factorization()->tiles().for_each(
      [&](index_t i, index_t j, const Tile& t) {
        mix(&i, sizeof i);
        mix(&j, sizeof j);
        mix(t.data(), static_cast<std::size_t>(t.panel_size()) * sizeof(real_t));
      });
  return h;
}

TEST(FactorBits, PluPanelsArePinnedOnEveryDispatchPath) {
  // The kernel contract (DESIGN.md §17) end to end: every dispatch path
  // this machine supports, at 1 and 4 threads, with ABFT off and on,
  // reproduces one constant, so a change that moves any factor bit fails
  // on every machine, not only where the paths differ. ABFT reads tiles
  // on the lanes that write them and must leave no mark on a clean run.
  // CI also runs this under -march=native.
  const Csr a = finalize_system(circuit_like(600, 2.6, 5, 71), 71);
  constexpr std::uint64_t kPinned = 0x7fea743067cb5302ULL;
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 32;
  for (int p = 0; p <= static_cast<int>(simd::detail::hw_isa()); ++p) {
    simd::cap_isa(static_cast<simd::Isa>(p));
    for (const int threads : {1, 4}) {
      for (const bool abft : {false, true}) {
        SolverInstance inst(a, io);
        const ScheduleResult r =
            factor(inst, threads, /*collect_batches=*/false, abft);
        EXPECT_EQ(r.stats().abft.corrupt_detected, 0);
        EXPECT_EQ(plu_factor_hash(inst), kPinned)
            << simd::dispatch_name() << " at " << threads << " threads"
            << (abft ? " with ABFT" : "");
      }
    }
  }
  simd::cap_isa(simd::Isa::kAvx512);
}

TEST(FactorBits, SluValuesArePinnedOnEveryDispatchPath) {
  // The same contract for the SLU core: its supernode panels run GETRF,
  // TSTRF, GEESM and the GEMM update through the dense kernels, so every
  // dispatch path at 1 and 4 threads reproduces one FNV-1a hash of
  // values().
  const Csr a = finalize_system(circuit_like(600, 2.6, 5, 71), 71);
  constexpr std::uint64_t kPinned = 0x716cf35119ba0069ULL;
  InstanceOptions io;
  io.core = SolverCore::kSlu;
  for (int p = 0; p <= static_cast<int>(simd::detail::hw_isa()); ++p) {
    simd::cap_isa(static_cast<simd::Isa>(p));
    for (const int threads : {1, 4}) {
      SolverInstance inst(a, io);
      factor(inst, threads);
      const std::vector<real_t> v = inst.slu_factorization()->values();
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto* c = reinterpret_cast<const unsigned char*>(v.data());
      for (std::size_t i = 0; i < v.size() * sizeof(real_t); ++i) {
        h = (h ^ c[i]) * 0x100000001b3ULL;
      }
      EXPECT_EQ(h, kPinned) << simd::dispatch_name() << " at " << threads
                            << " threads";
    }
  }
  simd::cap_isa(simd::Isa::kAvx512);
}

TEST(ParallelFactor, SluFactorsSolveAtFourThreads) {
  const Csr a = finalize_system(grid2d_laplacian(18, 18), 1);
  InstanceOptions io;
  io.core = SolverCore::kSlu;
  SolverInstance inst(a, io);
  const ScheduleResult r = factor(inst, 4);
  EXPECT_EQ(r.stats().exec.workers, 4);
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

// ---- Plan replay ---------------------------------------------------------

ScheduleOptions plan_options(int threads) {
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = threads;
  return so;
}

// Every modelled field of two results, compared exactly.
void expect_same_model(const ScheduleResult& got, const ScheduleResult& want,
                       const std::string& what) {
  EXPECT_EQ(got.makespan_s, want.makespan_s) << what;
  EXPECT_EQ(got.kernel_count, want.kernel_count) << what;
  EXPECT_EQ(got.mean_batch_size, want.mean_batch_size) << what;
  EXPECT_EQ(got.comm_bytes, want.comm_bytes) << what;
  EXPECT_EQ(got.comm_messages, want.comm_messages) << what;
  EXPECT_EQ(got.atomic_tasks, want.atomic_tasks) << what;
  EXPECT_EQ(got.deferred_tasks, want.deferred_tasks) << what;
  const auto& gr = got.trace.records();
  const auto& wr = want.trace.records();
  ASSERT_EQ(gr.size(), wr.size()) << what;
  for (std::size_t i = 0; i < wr.size(); ++i) {
    EXPECT_TRUE(gr[i].rank == wr[i].rank && gr[i].start_s == wr[i].start_s &&
                gr[i].end_s == wr[i].end_s && gr[i].host_s == wr[i].host_s &&
                gr[i].flops == wr[i].flops && gr[i].tasks == wr[i].tasks)
        << what << ": kernel " << i;
  }
  const auto& gs = got.stats();
  const auto& ws = want.stats();
  ASSERT_EQ(gs.ranks.size(), ws.ranks.size()) << what;
  for (std::size_t r = 0; r < ws.ranks.size(); ++r) {
    EXPECT_EQ(gs.ranks[r].kernels, ws.ranks[r].kernels) << what;
    EXPECT_EQ(gs.ranks[r].busy_s, ws.ranks[r].busy_s) << what;
    EXPECT_EQ(gs.ranks[r].flops, ws.ranks[r].flops) << what;
  }
  EXPECT_EQ(gs.batches.size(), ws.batches.size()) << what;
  EXPECT_EQ(gs.faults.injected(), ws.faults.injected()) << what;
  EXPECT_EQ(gs.faults.fault_free_makespan_s, ws.faults.fault_free_makespan_s)
      << what;
  EXPECT_EQ(gs.checkpoint.empty(), ws.checkpoint.empty()) << what;
  EXPECT_EQ(gs.abft.enabled, ws.abft.enabled) << what;
  EXPECT_EQ(gs.mem.enabled, ws.mem.enabled) << what;
}

void expect_same_values(const SolverInstance& got, const SolverInstance& want,
                        const std::string& what) {
  const std::vector<real_t> g = factor_values(got);
  const std::vector<real_t> w = factor_values(want);
  ASSERT_EQ(g.size(), w.size()) << what;
  ASSERT_EQ(std::memcmp(g.data(), w.data(), w.size() * sizeof(real_t)), 0)
      << what << ": replayed factors differ from the live run's";
}

TEST(PlanReplay, FactorsAndModelledFieldsEqualTheLiveRun) {
  // A clean factorization that replays a recorded plan equals the live
  // event loop bit for bit: the factors (PLU panels, SLU values) and every
  // modelled field, at 1, 2 and 4 threads, with the plan recorded once by
  // a timing-only run on another instance of the pattern. PLU replays on
  // donor-built instances with new values, as the serve layer does.
  const Csr a = finalize_system(circuit_like(600, 2.6, 5, 71), 71);
  const Csr a2 = finalize_system(circuit_like(600, 2.6, 5, 71), 72);
  for (const SolverCore core : {SolverCore::kPlu, SolverCore::kSlu}) {
    InstanceOptions io;
    io.core = core;
    if (core == SolverCore::kPlu) io.block = 32;
    const SolverInstance base(a, io);
    const SchedulePlan plan = base.record_plan(plan_options(1));
    ASSERT_TRUE(plan.replayable);
    ASSERT_EQ(plan.batch_ptr.size(), plan.polls.size() + 1);
    for (const int threads : {1, 2, 4}) {
      const std::string what = std::string(solver_core_name(core)) + " at " +
                               std::to_string(threads) + " threads";
      const auto build = [&] {
        return core == SolverCore::kPlu
                   ? std::make_unique<SolverInstance>(a2, io, base)
                   : std::make_unique<SolverInstance>(a2, io);
      };
      const auto live = build();
      const auto replayed = build();
      const ScheduleOptions so = plan_options(threads);
      const ScheduleResult rl = live->run_numeric(so);
      const ScheduleResult rr = replayed->run_numeric(so, plan);
      expect_same_values(*replayed, *live, what);
      expect_same_model(rr, rl, what);
      EXPECT_EQ(rr.stats().exec.batches, rl.stats().exec.batches) << what;
      EXPECT_EQ(rr.stats().exec.det_reductions,
                rl.stats().exec.det_reductions)
          << what;
      EXPECT_EQ(rr.stats().exec.workers, threads) << what;
      EXPECT_GT(rr.stats().exec.wall_s, 0) << what;
    }
  }
}

TEST(PlanReplay, PlanHoldsTheBatchLogsMembersAndTheLoopsPolls) {
  // One recorder of batch membership: the plan's ids are the BatchLog's
  // members in order, one poll per loop iteration, and a multi-rank
  // timing-only replay returns the live run's modelled fields.
  const Csr a = exec_matrix();
  InstanceOptions io;
  io.block = kConflictBlock;
  io.grid = make_process_grid(4);
  const SolverInstance inst(a, io);
  ScheduleOptions so = plan_options(1);
  so.n_ranks = 4;
  so.cluster = cluster_h100();
  const SchedulePlan plan = inst.record_plan(so);
  ScheduleOptions logged = so;
  logged.collect_batches = true;
  const ScheduleResult live = inst.run_timing(logged);
  std::vector<index_t> members;
  for (const BatchLog::Batch& b : live.stats().batches.batches) {
    members.insert(members.end(), b.members.begin(), b.members.end());
  }
  EXPECT_EQ(plan.ids, members);
  EXPECT_EQ(plan.polls.size(), live.stats().batches.size());
  EXPECT_TRUE(std::is_sorted(plan.polls.begin(), plan.polls.end()));
  EXPECT_GT(live.comm_messages, 0);
  expect_same_model(replay(inst.graph(), plan, so, nullptr),
                    inst.run_timing(so), "4 ranks");
}

TEST(PlanReplay, ExcludedOptionsLeaveThePlanUnread) {
  // The fixed rule: a run asking for any excluded option takes the live
  // path and never reads the plan. A poisoned plan (wrong task count,
  // garbage batches) throws if read, so each excluded run completing with
  // the live result proves the plan stayed unread.
  const Csr a = exec_matrix();
  InstanceOptions io;
  io.block = 16;
  const SolverInstance inst(a, io);
  const ScheduleOptions clean = plan_options(1);
  SchedulePlan poisoned = inst.record_plan(clean);
  ASSERT_TRUE(poisoned.replayable);
  std::fill(poisoned.ids.begin(), poisoned.ids.end(), index_t{-1});
  poisoned.ids.push_back(-1);
  EXPECT_TRUE(replay_eligible(clean));
  EXPECT_THROW(replay(inst.graph(), poisoned, clean, nullptr), Error);

  ScheduleOptions ck = clean;
  ck.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  ck.checkpoint.interval_s = inst.run_timing(clean).makespan_s / 3;
  ck.checkpoint.write_cost_s = ck.checkpoint.interval_s / 10;
  const CheckpointState snap = inst.run_timing(ck).stats().checkpoint;
  ASSERT_FALSE(snap.empty());

  std::vector<std::pair<const char*, ScheduleOptions>> excluded;
  const auto add = [&](const char* name, auto edit) {
    ScheduleOptions o = clean;
    edit(o);
    excluded.emplace_back(name, o);
  };
  add("faults", [](ScheduleOptions& o) { o.faults.set_transient_all(0.01); });
  add("guards", [](ScheduleOptions& o) { o.faults.numeric_guards = true; });
  add("abft", [](ScheduleOptions& o) { o.abft.enabled = true; });
  add("memory budget",
      [](ScheduleOptions& o) { o.mem.budget_bytes = offset_t{1} << 40; });
  add("checkpoints", [&](ScheduleOptions& o) { o.checkpoint = ck.checkpoint; });
  add("resume", [&](ScheduleOptions& o) { o.resume = snap; });
  add("validate_schedule",
      [](ScheduleOptions& o) { o.validate_schedule = true; });
  add("collect_batches", [](ScheduleOptions& o) { o.collect_batches = true; });
  for (const auto& [name, o] : excluded) {
    EXPECT_FALSE(replay_eligible(o)) << name;
    ScheduleResult got;
    ASSERT_NO_THROW(got = replay(inst.graph(), poisoned, o, nullptr)) << name;
    expect_same_model(got, inst.run_timing(o), name);
    if (o.resume.has_value()) continue;  // resume replays timing only
    // With numerics too: the factors are the live run's.
    SolverInstance live(a, io);
    SolverInstance replayed(a, io);
    live.run_numeric(o);
    ASSERT_NO_THROW(replayed.run_numeric(o, poisoned)) << name;
    expect_same_values(replayed, live, name);
  }
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
