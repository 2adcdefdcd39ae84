// Batched multi-RHS SpTRSV (src/rhs, DESIGN.md §15): the solve price table,
// block-solve correctness against the sequential driver, bitwise results
// across worker counts and batch widths, the single-vs-block bitwise
// contract, and the serve-layer integration (solve coalescing, triage at
// the block boundary, th.rhs.* reconciliation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "kernels/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "order/perm.hpp"
#include "rhs/solve_dag.hpp"
#include "serve/chaos.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "solvers/driver.hpp"
#include "solvers/trisolve.hpp"
#include "sparse/ops.hpp"
#include "support/cancel.hpp"
#include "support/rng.hpp"

namespace th {
namespace {

using rhs::BlockSolver;
using rhs::RhsOptions;
using rhs::SolvePrices;
using rhs::SolveSchedule;

Csr grid(index_t side, std::uint64_t value_seed) {
  return finalize_system(grid2d_laplacian(side, side), value_seed);
}

/// One factored PLU instance shared across the block-solver tests (numerics
/// run once; every solver constructed on top reuses the factors).
class BlockSolverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    a_ = new Csr(grid(20, 7));
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    inst_ = new SolverInstance(*a_, io);
    sched_ = new ScheduleOptions();
    sched_->exec.workers = 2;
    inst_->run_numeric(*sched_);
  }
  static void TearDownTestSuite() {
    delete inst_;
    delete a_;
    delete sched_;
    inst_ = nullptr;
    a_ = nullptr;
    sched_ = nullptr;
  }

  /// b = A x_true for a fresh random x_true.
  static std::vector<real_t> rhs_for(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<real_t> xt(static_cast<std::size_t>(a_->n_rows));
    for (real_t& v : xt) v = rng.uniform(-1, 1);
    return spmv(*a_, xt);
  }

  /// Solve `bs` as consecutive blocks of `width` (the last may be
  /// narrower); the solutions in the permuted ordering, one per column.
  static std::vector<std::vector<real_t>> solve_blocks(
      BlockSolver& solver, const std::vector<std::vector<real_t>>& bs,
      std::size_t width) {
    const std::size_t n = static_cast<std::size_t>(a_->n_rows);
    std::vector<std::vector<real_t>> out;
    for (std::size_t at = 0; at < bs.size(); at += width) {
      const std::size_t w = std::min(width, bs.size() - at);
      std::vector<real_t> x(n * w);
      for (std::size_t j = 0; j < w; ++j) {
        const std::vector<real_t> pb =
            apply_permutation(bs[at + j], inst_->permutation());
        std::copy(pb.begin(), pb.end(), x.begin() + j * n);
      }
      solver.solve(x.data(), static_cast<index_t>(w),
                   SolveSchedule::kPriorityDag);
      for (std::size_t j = 0; j < w; ++j) {
        out.emplace_back(x.begin() + j * n, x.begin() + (j + 1) * n);
      }
    }
    return out;
  }

  static Csr* a_;
  static SolverInstance* inst_;
  static ScheduleOptions* sched_;
};

Csr* BlockSolverTest::a_ = nullptr;
SolverInstance* BlockSolverTest::inst_ = nullptr;
ScheduleOptions* BlockSolverTest::sched_ = nullptr;

TEST(RhsOptionsValidate, RejectsNonsense) {
  RhsOptions opt;
  opt.max_width = 0;
  EXPECT_THROW(opt.validate(), Error);
}

// ---- solve price table -----------------------------------------------------

TEST_F(BlockSolverTest, SolveDagBuildsOncePerWidthThenReuses) {
  const PluFactorization& fact = *inst_->plu_factorization();
  const auto prices =
      std::make_shared<SolvePrices>(fact.shared_pattern(), *sched_);
  BlockSolver solver(fact, prices);
  std::vector<real_t> b = apply_permutation(rhs_for(1), inst_->permutation());
  solver.solve(b.data(), 1, SolveSchedule::kPriorityDag);
  EXPECT_EQ(solver.dag().builds(), 1);
  EXPECT_EQ(solver.dag().reuses(), 0);

  std::vector<real_t> b2 = apply_permutation(rhs_for(2), inst_->permutation());
  solver.solve(b2.data(), 1, SolveSchedule::kPriorityDag);
  EXPECT_EQ(solver.dag().builds(), 1);  // same width: cache hit
  EXPECT_EQ(solver.dag().reuses(), 1);

  std::vector<real_t> wide(b.size() * 4);
  for (int j = 0; j < 4; ++j) {
    std::copy(b.begin(), b.end(), wide.begin() + j * b.size());
  }
  solver.solve(wide.data(), 4, SolveSchedule::kPriorityDag);
  EXPECT_EQ(solver.dag().builds(), 2);  // new width: one more build
  EXPECT_EQ(solver.dag().reuses(), 1);

  // The price, not only the graphs, is cached: pricing a priced width
  // replays nothing, and another schedule is its own (schedule, width).
  EXPECT_EQ(prices->price(4, SolveSchedule::kPriorityDag).makespan_s(),
            solver.solve(wide.data(), 4, SolveSchedule::kPriorityDag)
                .makespan_s());
  EXPECT_EQ(solver.dag().builds(), 2);
  EXPECT_EQ(solver.dag().reuses(), 3);
  solver.solve(b.data(), 1, SolveSchedule::kLevelSet);
  EXPECT_EQ(solver.dag().builds(), 3);
  EXPECT_EQ(solver.dag().reuses(), 3);
}

// Block solves price with obs off: executing blocks publishes no scheduler
// metrics and records no simulated-time events, so th.sched.* keeps
// describing the last factorization or timing run.
TEST_F(BlockSolverTest, BlockSolvesLeaveSchedulerMetricsUntouched) {
  const obs::Session obs_session(true);
  inst_->run_timing(*sched_);
  const auto sched_metrics = [] {
    std::vector<obs::MetricSample> out;
    for (obs::MetricSample& m : obs::Registry::global().snapshot()) {
      if (m.name.rfind("th.sched.", 0) == 0) out.push_back(std::move(m));
    }
    return out;
  };
  const auto sim_events = [] {
    offset_t n = 0;
    for (const obs::Event& e : obs::Recorder::global().events()) {
      n += e.domain == obs::Domain::kSim;
    }
    return n;
  };
  const std::vector<obs::MetricSample> before = sched_metrics();
  const offset_t events_before = sim_events();
  ASSERT_FALSE(before.empty());
  ASSERT_GT(events_before, 0);

  BlockSolver solver(*inst_->plu_factorization(), *sched_);
  std::vector<std::vector<real_t>> bs;
  for (std::uint64_t i = 0; i < 6; ++i) bs.push_back(rhs_for(600 + i));
  ASSERT_EQ(solve_blocks(solver, bs, 3).size(), 6u);  // two width-3 blocks
  ASSERT_EQ(solver.dag().builds() + solver.dag().reuses(), 2);

  const std::vector<obs::MetricSample> after = sched_metrics();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].count, before[i].count) << before[i].name;
    EXPECT_EQ(after[i].value, before[i].value) << before[i].name;
    EXPECT_EQ(after[i].min, before[i].min) << before[i].name;
    EXPECT_EQ(after[i].max, before[i].max) << before[i].name;
  }
  EXPECT_EQ(sim_events(), events_before);
}

TEST_F(BlockSolverTest, EstimateIsPositiveAndGrowsSublinearlyWithWidth) {
  SolvePrices prices(inst_->plu_factorization()->shared_pattern(), *sched_);
  const real_t e1 = prices.price(1, SolveSchedule::kPriorityDag).makespan_s();
  const real_t e16 =
      prices.price(16, SolveSchedule::kPriorityDag).makespan_s();
  EXPECT_GT(e1, 0);
  EXPECT_GT(e16, e1);        // wider blocks do more work...
  EXPECT_LT(e16, 16 * e1);   // ...but amortise launches across the block
}

// ---- block-solve correctness ----------------------------------------------

TEST_F(BlockSolverTest, BlockSolveMatchesSequentialDriver) {
  const std::vector<real_t> b = rhs_for(42);
  const std::vector<real_t> x_ref = inst_->solve(b);

  BlockSolver solver(*inst_->plu_factorization(), *sched_);
  std::vector<real_t> x = apply_permutation(b, inst_->permutation());
  solver.solve(x.data(), 1, SolveSchedule::kPriorityDag);
  const std::vector<real_t> got =
      apply_inverse_permutation(x, inst_->permutation());
  ASSERT_EQ(got.size(), x_ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], x_ref[i], 1e-10);
  }
  EXPECT_LT(scaled_residual(*a_, got, b), 1e-10);
}

TEST_F(BlockSolverTest, LevelSetScheduleIsCorrectButLaunchBound) {
  const std::vector<real_t> b = rhs_for(43);
  BlockSolver solver(*inst_->plu_factorization(), *sched_);

  std::vector<real_t> x_pri = apply_permutation(b, inst_->permutation());
  std::vector<real_t> x_lvl = x_pri;
  const rhs::BlockSolveResult pri =
      solver.solve(x_pri.data(), 1, SolveSchedule::kPriorityDag);
  const rhs::BlockSolveResult lvl =
      solver.solve(x_lvl.data(), 1, SolveSchedule::kLevelSet);

  const std::vector<real_t> got =
      apply_inverse_permutation(x_lvl, inst_->permutation());
  EXPECT_LT(scaled_residual(*a_, got, b), 1e-10);
  // The ablation's reason to exist: one kernel per task vs batched.
  EXPECT_GT(lvl.kernel_count(), pri.kernel_count());
  EXPECT_GT(lvl.makespan_s(), pri.makespan_s());
}

TEST_F(BlockSolverTest, DetModeIsBitwiseAcrossWorkersAndWidths) {
  std::vector<std::vector<real_t>> bs;
  for (int i = 0; i < 8; ++i) bs.push_back(rhs_for(400 + i));

  std::vector<std::vector<real_t>> ref;
  for (const int workers : {1, 2, 4}) {
    for (const std::size_t width : {1, 4, 8}) {
      ScheduleOptions so = *sched_;
      so.exec.workers = workers;
      BlockSolver solver(*inst_->plu_factorization(), so);
      std::vector<std::vector<real_t>> xs = solve_blocks(solver, bs, width);
      ASSERT_EQ(xs.size(), bs.size());
      if (ref.empty()) {
        ref = std::move(xs);
        for (std::size_t i = 0; i < bs.size(); ++i) {
          const std::vector<real_t> x =
              apply_inverse_permutation(ref[i], inst_->permutation());
          EXPECT_LT(scaled_residual(*a_, x, bs[i]), 1e-10);
        }
      } else {
        for (std::size_t i = 0; i < bs.size(); ++i) {
          ASSERT_EQ(ref[i].size(), xs[i].size());
          EXPECT_EQ(std::memcmp(ref[i].data(), xs[i].data(),
                                ref[i].size() * sizeof(real_t)),
                    0)
              << "workers=" << workers << " width=" << width << " rhs=" << i;
        }
      }
    }
  }
}

// ---- single-vs-block bitwise contract -------------------------------------

// An n x width column-major block of right-hand sides: uniform values with
// exact 0.0 and -0.0 entries mixed in, and (at width > 1) one column of
// signed zeros only, so the zero-skip masks of the substitution and update
// kernels see zero and nonzero lanes side by side. In the zero column a
// term applied where it should be skipped can flip a -0.0 (-0 - d * -0 is
// +0 for d > 0), so a lost mask shows in the bits.
std::vector<real_t> rhs_block(std::size_t n, index_t width,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> b(n * static_cast<std::size_t>(width));
  for (real_t& v : b) {
    const std::uint64_t r = rng.next_below(10);
    v = r == 0 ? 0.0 : r == 1 ? -0.0 : rng.uniform(-1, 1);
  }
  if (width > 1) {
    const auto col = b.begin() + static_cast<std::ptrdiff_t>(width / 2 * n);
    for (auto v = col; v != col + static_cast<std::ptrdiff_t>(n); ++v) {
      *v = rng.next_below(2) == 0 ? 0.0 : -0.0;
    }
  }
  return b;
}

// A block solve runs tri_solve_in_order at the block's width and
// PluFactorization::solve runs it at width 1; each column gets the width-1
// operation sequence, so every column of a block solve equals the single
// solve bit for bit — at any width (partial and whole 8-RHS groups) and
// worker count.
TEST(SolveContract, SingleSolveEqualsEveryBlockColumn) {
  const Csr mats[] = {finalize_system(grid2d_laplacian(30, 30), 3),
                      finalize_system(cage_like(400, 5, 0.1, 4), 4)};
  for (const Csr& a : mats) {
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = 16;
    SolverInstance inst(a, io);
    inst.run_numeric(ScheduleOptions{});
    const PluFactorization& fact = *inst.plu_factorization();
    const std::size_t n = static_cast<std::size_t>(a.n_rows);

    for (const int workers : {1, 4}) {
      ScheduleOptions so;
      so.exec.workers = workers;
      BlockSolver solver(fact, so);
      for (const index_t width : {1, 3, 7, 8, 9, 16, 17}) {
        const std::vector<real_t> b = rhs_block(
            n, width, static_cast<std::uint64_t>(100 * workers + width));
        std::vector<real_t> x = b;
        solver.solve(x.data(), width, SolveSchedule::kPriorityDag);
        for (index_t j = 0; j < width; ++j) {
          const auto col = b.begin() + static_cast<std::ptrdiff_t>(j * n);
          const std::vector<real_t> single =
              fact.solve(std::vector<real_t>(col, col + n));
          EXPECT_EQ(std::memcmp(single.data(), x.data() + j * n,
                                n * sizeof(real_t)),
                    0)
              << "n=" << n << " workers=" << workers << " width=" << width
              << " column=" << j;
        }
      }
    }
  }
}

// The solve half of the kernel contract (DESIGN.md §17): 16 fixed
// right-hand sides, solved in blocks of each width on every dispatch path
// this machine supports, hash to one constant. A change that moves any
// solve bit, on any path or at any width, fails here. CI also runs this
// under -march=native.
TEST(SolveBits, TriSolveIsPinnedOnEveryDispatchPath) {
  const Csr a = finalize_system(circuit_like(600, 2.6, 5, 71), 71);
  constexpr std::uint64_t kPinned = 0xacf99f428e37a3b4ULL;
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 32;
  SolverInstance inst(a, io);
  inst.run_numeric(ScheduleOptions{});
  const PluFactorization& fact = *inst.plu_factorization();
  const std::size_t n = static_cast<std::size_t>(a.n_rows);
  constexpr index_t kCols = 16;
  const std::vector<real_t> b = rhs_block(n, kCols, 30);
  for (int p = 0; p <= static_cast<int>(simd::detail::hw_isa()); ++p) {
    simd::cap_isa(static_cast<simd::Isa>(p));
    for (const index_t width : {1, 5, 8, 9, 16}) {
      std::vector<real_t> x = b;
      for (index_t j0 = 0; j0 < kCols; j0 += width) {
        tri_solve_in_order(fact, x.data() + j0 * n,
                           std::min(width, kCols - j0));
      }
      // FNV-1a over the solved block's bytes.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      const auto* c = reinterpret_cast<const unsigned char*>(x.data());
      for (std::size_t i = 0; i < x.size() * sizeof(real_t); ++i) {
        h = (h ^ c[i]) * 0x100000001b3ULL;
      }
      EXPECT_EQ(h, kPinned) << simd::dispatch_name() << " width " << width;
    }
  }
  simd::cap_isa(simd::Isa::kAvx512);
}

// ---- solve DAG: structure and pricing --------------------------------------

// The host numerics do not run in the solve DAG's order, so the DAG's
// edges are checked directly: an update depends only on its source row's
// diagonal task and feeds only its target row's, and a diagonal task waits
// for exactly the updates into its row — one per present tile of the
// triangle being solved.
TEST(SolveDagStructure, UpdatesLinkSourceAndTargetDiagonals) {
  const Csr mats[] = {finalize_system(grid2d_laplacian(30, 30), 3),
                      finalize_system(cage_like(400, 5, 0.1, 4), 4)};
  for (const Csr& a : mats) {
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = 16;
    const SolverInstance inst(a, io);
    const PluFactorization& fact = *inst.plu_factorization();
    const TilePattern& p = fact.pattern();
    for (const bool forward : {true, false}) {
      const TaskGraph g = build_solve_graph(p, forward, 3);
      std::vector<index_t> diag(static_cast<std::size_t>(p.nt), -1);
      std::vector<std::vector<index_t>> updates_into(
          static_cast<std::size_t>(p.nt));
      for (index_t id = 0; id < g.size(); ++id) {
        const Task& t = g.task(id);
        if (t.type == TaskType::kGetrf) {
          ASSERT_EQ(t.row, t.k);
          ASSERT_EQ(t.col, t.k);
          diag[static_cast<std::size_t>(t.k)] = id;
        } else {
          ASSERT_EQ(t.type, TaskType::kSsssm);
          ASSERT_TRUE(p.has(t.row, t.col));
          ASSERT_TRUE(forward ? t.col < t.row : t.col > t.row);
          updates_into[static_cast<std::size_t>(t.row)].push_back(id);
        }
      }
      for (index_t k = 0; k < p.nt; ++k) {
        ASSERT_GE(diag[static_cast<std::size_t>(k)], 0) << "block row " << k;
      }
      for (index_t id = 0; id < g.size(); ++id) {
        const Task& t = g.task(id);
        if (t.type != TaskType::kSsssm) continue;
        const auto [pb, pe] = g.predecessors(id);
        ASSERT_EQ(pe - pb, 1) << "update " << id;
        EXPECT_EQ(*pb, diag[static_cast<std::size_t>(t.col)]);
        const auto [sb, se] = g.successors(id);
        ASSERT_EQ(se - sb, 1) << "update " << id;
        EXPECT_EQ(*sb, diag[static_cast<std::size_t>(t.row)]);
      }
      for (index_t k = 0; k < p.nt; ++k) {
        const auto [pb, pe] = g.predecessors(diag[static_cast<std::size_t>(k)]);
        std::vector<index_t> preds(pb, pe);
        std::vector<index_t> want = updates_into[static_cast<std::size_t>(k)];
        std::sort(preds.begin(), preds.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(preds, want) << "forward=" << forward << " row " << k;
        offset_t present = 0;
        for (index_t src = 0; src < p.nt; ++src) {
          if (forward ? src < k : src > k) present += p.has(k, src);
        }
        EXPECT_EQ(static_cast<offset_t>(want.size()), present)
            << "forward=" << forward << " row " << k;
      }
      for (const SolveSchedule sched :
           {SolveSchedule::kPriorityDag, SolveSchedule::kLevelSet}) {
        ScheduleOptions so;
        so.policy = rhs::solve_policy(sched);
        so.validate_schedule = true;
        EXPECT_NO_THROW(simulate(g, so, nullptr))
            << "forward=" << forward << " "
            << rhs::solve_schedule_name(sched);
      }
    }
  }
}

// price() and solve read one cached replay, so the cost admission is
// charged and the cost a block solve reports are the same number — also
// with ABFT on and a memory budget tight enough to shrink solve batches. A
// first pricing that throws caches nothing and leaves the caller's block
// untouched.
TEST(SolveDagPricing, EstimateEqualsExecutedMakespan) {
  const Csr a = finalize_system(grid2d_laplacian(30, 30), 3);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  inst.run_numeric(ScheduleOptions{});
  const PluFactorization& fact = *inst.plu_factorization();
  const std::size_t n = static_cast<std::size_t>(a.n_rows);

  // Half the unconstrained high water of the widest priced solve.
  ScheduleOptions probe;
  probe.n_ranks = 4;
  probe.mem.budget_bytes = offset_t{1} << 40;
  const TaskGraph wide =
      build_solve_graph(fact.pattern(), true, 16, make_process_grid(4));
  const offset_t high =
      simulate(wide, probe, nullptr).stats().mem.high_water_bytes;
  ASSERT_GT(high, 0);

  ScheduleOptions plain;
  ScheduleOptions tight;
  tight.n_ranks = 4;
  tight.abft.enabled = true;
  tight.mem.budget_bytes = high / 2;
  offset_t shrinks = 0;
  for (const ScheduleOptions* so : {&plain, &tight}) {
    const auto prices = std::make_shared<SolvePrices>(
        fact.shared_pattern(), *so, make_process_grid(so->n_ranks));
    BlockSolver solver(fact, prices);
    for (const SolveSchedule sched :
         {SolveSchedule::kPriorityDag, SolveSchedule::kLevelSet}) {
      for (const index_t width : {1, 3, 16}) {
        const real_t est = prices->price(width, sched).makespan_s();
        Rng rng(static_cast<std::uint64_t>(width));
        std::vector<real_t> x(n * static_cast<std::size_t>(width));
        for (real_t& v : x) v = rng.uniform(-1, 1);
        const rhs::BlockSolveResult r = solver.solve(x.data(), width, sched);
        const real_t got = r.makespan_s();
        EXPECT_EQ(std::memcmp(&est, &got, sizeof(real_t)), 0)
            << "abft=" << so->abft.enabled << " width=" << width << " "
            << rhs::solve_schedule_name(sched) << ": " << est
            << " != " << got;
        if (so == &tight) {
          shrinks += r.forward.stats().mem.batch_shrinks +
                     r.backward.stats().mem.batch_shrinks;
        }
      }
    }
  }
  EXPECT_GT(shrinks, 0) << "the tight budget never shrank a solve batch";

  // A fired token aborts the pricing replay before any numerics run.
  CancelToken token;
  token.cancel();
  ScheduleOptions cancelled;
  cancelled.cancel = &token;
  BlockSolver solver(fact, cancelled);
  Rng rng(7);
  std::vector<real_t> x(n * 4);
  for (real_t& v : x) v = rng.uniform(-1, 1);
  const std::vector<real_t> before = x;
  EXPECT_THROW(solver.solve(x.data(), 4, SolveSchedule::kPriorityDag),
               CancelledError);
  EXPECT_EQ(std::memcmp(before.data(), x.data(), x.size() * sizeof(real_t)),
            0);
  EXPECT_EQ(solver.dag().builds(), 0);
}

// ---- serve integration ----------------------------------------------------

/// The price the service charges a width-`width` block solve on `sid`.
real_t block_price_s(const serve::SolverService& svc, serve::SessionId sid,
                     const serve::ServeOptions& o, index_t width) {
  SolvePrices prices(
      svc.session_instance(sid)->plu_factorization()->shared_pattern(),
      o.sched, make_process_grid(o.sched.n_ranks));
  return prices.price(width, o.rhs.schedule).makespan_s();
}

/// Open a session on a 14x14 grid and factor it.
serve::SessionId open_factored(serve::SolverService& svc) {
  const serve::SessionId sid = svc.open_session("alice", grid(14, 3));
  serve::Request f;
  f.kind = serve::RequestKind::kFactor;
  svc.submit(sid, f);
  svc.drain();
  return sid;
}

serve::RequestId submit_solve(serve::SolverService& svc, serve::SessionId sid,
                              std::uint64_t seed,
                              real_t deadline_s = CancelToken::kNoDeadline) {
  serve::Request sol;
  sol.kind = serve::RequestKind::kSolve;
  sol.value_seed = seed;
  sol.deadline_s = deadline_s;
  return svc.submit(sid, sol);
}

TEST(ServeRhs, QueuedSolvesCoalesceIntoOneBlockSolve) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 2;
  serve::SolverService svc(o);
  const serve::SessionId sid = svc.open_session("alice", grid(14, 3));
  serve::Request f;
  f.kind = serve::RequestKind::kFactor;
  svc.submit(sid, f);
  svc.drain();

  for (int i = 0; i < 5; ++i) {
    serve::Request sol;
    sol.kind = serve::RequestKind::kSolve;
    sol.value_seed = 900 + static_cast<std::uint64_t>(i);
    svc.submit(sid, sol);
  }
  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 5u);
  for (const serve::Completion& c : done) {
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
    EXPECT_GE(c.residual, 0);
    EXPECT_LT(c.residual, 1e-9);
  }
  const rhs::RhsStats rst = svc.rhs_stats();
  EXPECT_EQ(rst.solved, 5);
  EXPECT_EQ(rst.batches, 1);       // the dispatcher fused all five
  EXPECT_EQ(rst.widest_batch, 5);  // into one block solve
  EXPECT_EQ(svc.stats().solves, 5);
}

// A block finishes at its priced width's makespan, not the width-1
// admission price: the dispatcher widens a block only while that finish
// meets every member's deadline. Here one solve's deadline falls between
// the width-1 and width-5 finishes, ahead of four deadline-free solves, so
// a width-5 block would finish after it.
TEST(ServeRhs, CoalescedSolveMeetsItsDeadline) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  serve::SolverService svc(o);
  const serve::SessionId sid = svc.open_session("alice", grid(14, 3));
  serve::Request f;
  f.kind = serve::RequestKind::kFactor;
  svc.submit(sid, f);
  svc.drain();

  const real_t e1 = block_price_s(svc, sid, o, 1);
  const real_t e5 = block_price_s(svc, sid, o, 5);
  ASSERT_LT(e1, e5);
  serve::Request urgent;
  urgent.kind = serve::RequestKind::kSolve;
  urgent.deadline_s = svc.now_s() + 0.5 * (e1 + e5);
  const serve::RequestId id = svc.submit(sid, urgent);
  for (int i = 0; i < 4; ++i) {
    serve::Request sol;
    sol.kind = serve::RequestKind::kSolve;
    sol.value_seed = 40 + static_cast<std::uint64_t>(i);
    svc.submit(sid, sol);
  }
  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 5u);
  for (const serve::Completion& c : done) {
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
    if (c.id == id) {
      EXPECT_LE(c.finish_s, urgent.deadline_s)
          << "a solve reported done after its deadline";
    }
  }
}

// Two tenants' floods, submitted back to back as a transient step does:
// each round-robin turn runs one tenant's whole queue as one block solve,
// and every served column still equals its session's width-1 solve. The
// completion carries the residual of the served column, not the column, so
// the check compares it with the residual of SolverInstance::solve on the
// same b bit for bit.
TEST(ServeRhs, TwoTenantsCoalescePerTurn) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  o.max_queued_global = 64;
  o.max_queued_per_tenant = 32;
  o.rhs.max_width = 16;
  serve::SolverService svc(o);
  const Csr a = grid(14, 3);
  const serve::SessionId sid[2] = {svc.open_session("tenant-a", a),
                                   svc.open_session("tenant-b", a)};
  for (int t = 0; t < 2; ++t) {
    serve::Request rf;
    rf.kind = serve::RequestKind::kRefactor;
    rf.value_seed = 10 + static_cast<std::uint64_t>(t);
    svc.submit(sid[t], rf);
  }
  svc.drain();

  std::map<serve::RequestId, std::uint64_t> seed_of;
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 16; ++i) {
      serve::Request sol;
      sol.kind = serve::RequestKind::kSolve;
      sol.value_seed = 1000 + static_cast<std::uint64_t>(64 * t + i);
      seed_of[svc.submit(sid[t], sol)] = sol.value_seed;
    }
  }
  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 32u);
  const rhs::RhsStats rst = svc.rhs_stats();
  EXPECT_EQ(rst.batches, 2);
  EXPECT_EQ(rst.widest_batch, 16);
  for (std::size_t i = 0; i < done.size(); ++i) {
    const serve::Completion& c = done[i];
    ASSERT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
    EXPECT_EQ(c.session, sid[i / 16]) << "completion " << i;
    EXPECT_LT(c.residual, 1e-9);
    const SolverInstance& inst = *svc.session_instance(c.session);
    Rng rng(seed_of.at(c.id));
    std::vector<real_t> x_true(static_cast<std::size_t>(a.n_rows));
    for (real_t& v : x_true) v = rng.uniform(-1.0, 1.0);
    const std::vector<real_t> b = spmv(inst.matrix(), x_true);
    const real_t want = scaled_residual(inst.matrix(), inst.solve(b), b);
    EXPECT_EQ(std::memcmp(&want, &c.residual, sizeof(real_t)), 0)
        << "completion " << i << ": " << c.residual << " vs " << want;
  }
}

TEST(ServeRhs, RhsStatsSurviveRefactorRetirement) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  serve::SolverService svc(o);
  const serve::SessionId sid = svc.open_session("alice", grid(12, 5));
  serve::Request f;
  f.kind = serve::RequestKind::kFactor;
  svc.submit(sid, f);
  serve::Request sol;
  sol.kind = serve::RequestKind::kSolve;
  svc.submit(sid, sol);
  svc.drain();
  EXPECT_EQ(svc.rhs_stats().solved, 1);

  // A refactor rebuilds the instance; the block solves run on the old one
  // must stay in the service totals, not vanish.
  serve::Request rf;
  rf.kind = serve::RequestKind::kRefactor;
  rf.value_seed = 99;
  svc.submit(sid, rf);
  svc.submit(sid, sol);
  const std::vector<serve::Completion> done = svc.drain();
  for (const serve::Completion& c : done) {
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
  }
  EXPECT_EQ(svc.rhs_stats().solved, 2);
  EXPECT_EQ(svc.rhs_stats().batches, 2);
}

// Triage at the block boundary: a queued solve whose handle is cancelled
// ends kCancelled without joining the block; the rest run as one block.
TEST(ServeRhs, CancelledQueuedSolveEndsCancelled) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  serve::SolverService svc(o);
  const serve::SessionId sid = open_factored(svc);
  submit_solve(svc, sid, 200);
  const serve::RequestId gone = submit_solve(svc, sid, 201);
  submit_solve(svc, sid, 202);
  svc.cancel(gone);
  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].id, gone);  // triage finishes it before the block runs
  EXPECT_EQ(done[0].status, serve::Completion::Status::kCancelled);
  EXPECT_EQ(done[0].finish_s, done[0].start_s);
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_EQ(done[i].status, serve::Completion::Status::kDone)
        << done[i].detail;
    EXPECT_LT(done[i].residual, 1e-9);
  }
  const rhs::RhsStats rst = svc.rhs_stats();
  EXPECT_EQ(rst.solved, 2);
  EXPECT_EQ(rst.batches, 1);
  EXPECT_EQ(rst.widest_batch, 2);  // only the live members ran
  EXPECT_EQ(svc.stats().cancelled, 1);
}

// A block whose every member is shed runs no block solve: no batch, no
// busy time, no clock advance.
TEST(ServeRhs, FullyShedBlockRunsNoBlockSolve) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  serve::SolverService svc(o);
  const serve::SessionId sid = open_factored(svc);
  const rhs::RhsStats before = svc.rhs_stats();
  const real_t now = svc.now_s();
  svc.cancel(submit_solve(svc, sid, 300));
  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, serve::Completion::Status::kCancelled);
  const rhs::RhsStats after = svc.rhs_stats();
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.solved, 0);
  EXPECT_EQ(after.busy_s, 0);
  EXPECT_EQ(svc.now_s(), now);
}

// A member due before even a width-1 block could finish is shed as a
// deadline miss at the block boundary, and the others are served as one
// narrower block. Admission accepted its deadline against the backlog it
// saw; another tenant's factorization, submitted later, runs first in the
// round-robin turn order ("alice" sorts before "bob").
TEST(ServeRhs, MemberThatCannotFinishAloneIsShed) {
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  serve::SolverService svc(o);
  const serve::SessionId bob = svc.open_session("bob", grid(14, 3));
  serve::Request f;
  f.kind = serve::RequestKind::kFactor;
  svc.submit(bob, f);
  svc.drain();

  // Bob's queued solves form one width-2 block at admission; the urgent
  // one's deadline is exactly that block's finish.
  const real_t due_s = svc.now_s() + block_price_s(svc, bob, o, 2);
  const serve::RequestId s0 = submit_solve(svc, bob, 10);
  const serve::RequestId late = submit_solve(svc, bob, 11, due_s);
  const serve::RequestId s2 = submit_solve(svc, bob, 12);
  const serve::SessionId alice = svc.open_session("alice", grid(14, 4));
  svc.submit(alice, f);

  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0].session, alice);
  EXPECT_EQ(done[0].status, serve::Completion::Status::kDone);
  const real_t start_s = done[0].finish_s;
  ASSERT_GT(start_s + block_price_s(svc, bob, o, 1), due_s);

  EXPECT_EQ(done[1].id, late);
  EXPECT_EQ(done[1].status, serve::Completion::Status::kDeadlineMiss);
  EXPECT_EQ(done[1].detail, "solve cannot finish before its deadline");
  EXPECT_EQ(done[1].start_s, start_s);
  EXPECT_EQ(done[1].finish_s, start_s);  // never ran
  const real_t finish_s = start_s + block_price_s(svc, bob, o, 2);
  const serve::RequestId served[] = {s0, s2};
  for (int i = 0; i < 2; ++i) {
    const serve::Completion& c = done[2 + static_cast<std::size_t>(i)];
    EXPECT_EQ(c.id, served[i]);  // block order
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
    EXPECT_EQ(c.start_s, start_s);
    EXPECT_EQ(c.finish_s, finish_s);
    EXPECT_LT(c.residual, 1e-9);
  }
  const rhs::RhsStats rst = svc.rhs_stats();
  EXPECT_EQ(rst.solved, 2);
  EXPECT_EQ(rst.batches, 1);
  EXPECT_EQ(rst.widest_batch, 2);
  EXPECT_EQ(svc.stats().deadline_misses, 1);
}

// A member that fits alone and fits the block as coalesced is still shed
// when a cancellation shrinks the block to a width that prices later:
// solve prices need not be monotone in width. On a 20x20 grid over 2 ranks
// with one-task batches (a count-only Collector capped at 1), a width-15
// block prices above a width-16 one. Sixteen solves coalesce; the last,
// a batch-priority one behind fifteen normal ones, so only the width-16
// finish was checked against it, is due between the two finishes. One of
// the others is cancelled, and the settle loop prices the live width 15,
// sheds the late member and serves the other 14 as one block.
TEST(ServeRhs, MemberDueBeforeTheBlockFinishIsShed) {
  const Csr a = grid(20, 3);
  serve::ServeOptions o;
  o.sched.n_ranks = 2;
  o.sched.collector.capacity = CollectorOptions::Capacity::kCountOnly;
  o.sched.collector.max_task_count = 1;
  o.exec_workers = 1;
  o.max_queued_global = 32;
  o.max_queued_per_tenant = 32;
  o.rhs.max_width = 16;
  serve::SolverService svc(o);
  const serve::SessionId sid = svc.open_session("alice", a);
  serve::Request f;
  f.kind = serve::RequestKind::kFactor;
  svc.submit(sid, f);
  for (const serve::Completion& c : svc.drain()) {
    ASSERT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
  }

  const real_t e1 = block_price_s(svc, sid, o, 1);
  const real_t e14 = block_price_s(svc, sid, o, 14);
  const real_t e15 = block_price_s(svc, sid, o, 15);
  const real_t e16 = block_price_s(svc, sid, o, 16);
  ASSERT_LT(e16, e15) << "prices became monotone; pick another budget";
  ASSERT_LE(e1, e16);
  const real_t start_s = svc.now_s();
  const real_t due_s = start_s + 0.5 * (e15 + e16);
  std::vector<serve::RequestId> served;
  for (std::uint64_t i = 0; i < 15; ++i) {
    served.push_back(submit_solve(svc, sid, 600 + i));
  }
  const serve::RequestId gone = served[3];
  served.erase(served.begin() + 3);
  svc.cancel(gone);
  serve::Request late_req;
  late_req.kind = serve::RequestKind::kSolve;
  late_req.value_seed = 615;
  late_req.deadline_s = due_s;
  late_req.priority = serve::Priority::kBatch;  // joins the block last
  const serve::RequestId late = svc.submit(sid, late_req);

  const std::vector<serve::Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 16u);
  EXPECT_EQ(done[0].id, gone);
  EXPECT_EQ(done[0].status, serve::Completion::Status::kCancelled);
  EXPECT_EQ(done[1].id, late);
  EXPECT_EQ(done[1].status, serve::Completion::Status::kDeadlineMiss);
  EXPECT_EQ(done[1].detail, "solve cannot finish before its block does");
  EXPECT_EQ(done[1].start_s, start_s);
  EXPECT_EQ(done[1].finish_s, start_s);  // never ran
  for (std::size_t i = 0; i < served.size(); ++i) {
    const serve::Completion& c = done[2 + i];
    EXPECT_EQ(c.id, served[i]);  // block order
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
    EXPECT_EQ(c.start_s, start_s);
    EXPECT_EQ(c.finish_s, start_s + e14);
    EXPECT_LT(c.residual, 1e-9);
  }
  const rhs::RhsStats rst = svc.rhs_stats();
  EXPECT_EQ(rst.solved, 14);
  EXPECT_EQ(rst.batches, 1);
  EXPECT_EQ(rst.widest_batch, 14);
  EXPECT_EQ(svc.stats().deadline_misses, 1);
  EXPECT_EQ(svc.stats().cancelled, 1);

  // The same block with nobody cancelled and the late member due exactly
  // at the width-16 finish: a finish on the deadline meets it, so all 16
  // are served.
  const real_t again_s = svc.now_s();
  for (std::uint64_t i = 0; i < 15; ++i) submit_solve(svc, sid, 700 + i);
  late_req.deadline_s = again_s + e16;
  const serve::RequestId on_time = svc.submit(sid, late_req);
  const std::vector<serve::Completion> all = svc.drain();
  ASSERT_EQ(all.size(), 16u);
  for (const serve::Completion& c : all) {
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
    EXPECT_EQ(c.finish_s, again_s + e16);
  }
  EXPECT_EQ(all.back().id, on_time);
  EXPECT_EQ(svc.rhs_stats().widest_batch, 16);
}

// The served block solves mirror into th.rhs.* exactly, and each one left
// one span on the rhs track.
TEST(ServeRhs, StatsReconcileWithObsRegistry) {
  const obs::Session obs_session(true);
  serve::ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  o.rhs.max_width = 2;
  serve::SolverService svc(o);
  const serve::SessionId sid = open_factored(svc);
  for (std::uint64_t i = 0; i < 5; ++i) submit_solve(svc, sid, 500 + i);
  for (const serve::Completion& c : svc.drain()) {
    EXPECT_EQ(c.status, serve::Completion::Status::kDone) << c.detail;
  }

  const rhs::RhsStats st = svc.rhs_stats();
  st.publish_metrics();
  auto& reg = obs::Registry::global();
  EXPECT_EQ(st.solved, 5);
  EXPECT_EQ(reg.counter("th.rhs.solved").value(),
            static_cast<std::int64_t>(st.solved));
  EXPECT_EQ(st.batches, 3);  // blocks of 2, 2 and 1
  EXPECT_EQ(reg.counter("th.rhs.batches").value(),
            static_cast<std::int64_t>(st.batches));
  EXPECT_EQ(reg.counter("th.rhs.dag.builds").value(),
            static_cast<std::int64_t>(st.dag_builds));
  EXPECT_EQ(reg.counter("th.rhs.dag.reuses").value(),
            static_cast<std::int64_t>(st.dag_reuses));
  EXPECT_EQ(reg.counter("th.rhs.widest_batch").value(),
            static_cast<std::int64_t>(st.widest_batch));
  // publish is set-semantics: publishing twice must not double-count.
  st.publish_metrics();
  EXPECT_EQ(reg.counter("th.rhs.solved").value(),
            static_cast<std::int64_t>(st.solved));

  offset_t spans = 0;
  for (const obs::Event& e : obs::Recorder::global().events()) {
    if (std::string(e.name) == "rhs block solve") ++spans;
  }
  EXPECT_EQ(spans, static_cast<offset_t>(st.batches));
}

TEST(ServeRhs, SolveFloodAndMidBatchCancelScenariosHold) {
  serve::ServeOptions sopt;
  sopt.sched.n_ranks = 1;
  sopt.exec_workers = 1;
  serve::TraceOptions topt;
  topt.seed = 11;
  topt.n_patterns = 2;
  topt.base_n = 10;
  topt.n_tenants = 2;
  topt.n_requests = 20;
  topt.mean_service_s = serve::estimate_mean_service_s(sopt, topt);
  const serve::ServeTrace trace = serve::synth_trace(topt);

  std::vector<serve::Misbehavior> m(2);
  m[0].kind = serve::MisbehaviorKind::kSolveFlood;
  m[0].at_s = 0;
  m[0].tenant = 0;
  m[0].count = 12;
  m[1].kind = serve::MisbehaviorKind::kMidBatchCancel;
  m[1].at_s = 1e-4;
  const std::string finding = serve::run_serve_scenario(sopt, trace, m);
  EXPECT_EQ(finding, "") << finding;
}

}  // namespace
}  // namespace th
