// Property-based sweeps: invariants that must hold for any matrix from any
// generator, under any policy — residual correctness, flop conservation
// across schedules, makespan lower bounds, per-task execution counts, and
// kernel-count monotonicity. Parameterised over a grid of generator
// families, seeds, block sizes and rank counts (TEST_P / INSTANTIATE).
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "sparse/ops.hpp"

namespace th {
namespace {

struct PropCase {
  int family;          // generator family
  std::uint64_t seed;
  SolverCore core;
  index_t block;
  int ranks;
};

Csr make_case_matrix(const PropCase& c) {
  switch (c.family) {
    case 0:
      return finalize_system(grid2d_laplacian(13, 17), c.seed);
    case 1:
      return finalize_system(grid3d_laplacian(5, 6, 7), c.seed);
    case 2:
      return finalize_system(banded_random(240, 9, 0.5, c.seed), c.seed);
    case 3:
      return finalize_system(cage_like(220, 5, 0.12, c.seed), c.seed);
    case 4:
      return finalize_system(circuit_like(260, 2.2, 2, c.seed), c.seed);
    case 5:
      return finalize_system(kkt_like(120, 80, 3, c.seed), c.seed);
    default:
      return finalize_system(grid2d_fem9(14, 14), c.seed);
  }
}

std::string case_name(const testing::TestParamInfo<PropCase>& info) {
  const PropCase& c = info.param;
  return std::string("f") + std::to_string(c.family) + "_s" +
         std::to_string(c.seed) + "_" + solver_core_name(c.core) + "_b" +
         std::to_string(c.block) + "_r" + std::to_string(c.ranks);
}

class SolverProperties : public testing::TestWithParam<PropCase> {};

TEST_P(SolverProperties, InvariantsHold) {
  const PropCase c = GetParam();
  const Csr a = make_case_matrix(c);

  InstanceOptions io;
  io.core = c.core;
  io.block = c.block;
  io.grid = make_process_grid(c.ranks);
  SolverInstance inst(a, io);

  ScheduleOptions th_opts;
  th_opts.policy = Policy::kTrojanHorse;
  th_opts.n_ranks = c.ranks;
  th_opts.cluster = c.ranks > 1 ? cluster_mi50() : single_gpu(device_a100());
  ScheduleOptions base_opts = th_opts;
  base_opts.policy = Policy::kPriorityPerTask;

  // Property 1: the baseline replay and the TH replay conserve flops and
  // execute every task exactly once.
  const ScheduleResult base = inst.run_timing(base_opts);
  const ScheduleResult th = inst.run_timing(th_opts);
  EXPECT_EQ(base.trace.total_flops(), th.trace.total_flops());
  offset_t base_tasks = 0, th_tasks = 0;
  for (const auto& r : base.trace.records()) base_tasks += r.tasks;
  for (const auto& r : th.trace.records()) th_tasks += r.tasks;
  EXPECT_EQ(base_tasks, inst.graph().size());
  EXPECT_EQ(th_tasks, inst.graph().size());

  // Property 2: the baseline launches exactly one kernel per task; TH never
  // launches more.
  EXPECT_EQ(base.kernel_count, inst.graph().size());
  EXPECT_LE(th.kernel_count, base.kernel_count);

  // Property 3: makespan can never beat the critical-path/occupancy lower
  // bound: total exec work spread over all ranks at zero overhead.
  EXPECT_GT(th.makespan_s, 0);
  EXPECT_GE(base.makespan_s, th.trace.total_kernel_seconds() / c.ranks / 10);

  // Property 4: single-rank runs never communicate.
  if (c.ranks == 1) {
    EXPECT_EQ(th.comm_bytes, 0);
    EXPECT_EQ(th.comm_messages, 0);
  }

  // Property 5: numerics are correct under TH scheduling.
  inst.run_numeric(th_opts);
  std::vector<real_t> x_true(static_cast<std::size_t>(a.n_rows));
  for (std::size_t i = 0; i < x_true.size(); ++i) {
    x_true[i] = 1.0 + static_cast<real_t>(i % 13) / 7.0;
  }
  const std::vector<real_t> b = spmv(a, x_true);
  const std::vector<real_t> x = inst.solve(b);
  EXPECT_LT(scaled_residual(a, x, b), 1e-11);
}

std::vector<PropCase> make_cases() {
  std::vector<PropCase> cases;
  // Every family x both cores, varying seeds/blocks/ranks deterministically.
  for (int family = 0; family < 7; ++family) {
    for (int v = 0; v < 2; ++v) {
      const SolverCore core = v == 0 ? SolverCore::kPlu : SolverCore::kSlu;
      const index_t block = (family % 2 == 0) ? 12 : 24;
      const int ranks = 1 << ((family + v) % 3);  // 1, 2, or 4
      cases.push_back(
          {family, static_cast<std::uint64_t>(100 + family * 7 + v), core,
           block, ranks});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SolverProperties,
                         testing::ValuesIn(make_cases()), case_name);

// Batch-size monotonicity: a larger device (more resident blocks) can only
// reduce the number of kernels the Collector emits.
TEST(SchedulerProperties, BiggerDeviceNeverMoreKernels) {
  const Csr a = finalize_system(grid2d_laplacian(16, 16), 3);
  InstanceOptions io;
  io.block = 12;
  SolverInstance inst(a, io);
  offset_t prev = -1;
  for (const DeviceSpec& dev :
       {device_rtx5060ti(), device_a100(), device_h100()}) {
    ScheduleOptions o;
    o.policy = Policy::kTrojanHorse;
    o.cluster = single_gpu(dev);
    const offset_t kernels = inst.run_timing(o).kernel_count;
    if (prev >= 0) {
      EXPECT_LE(kernels, prev) << dev.name;
    }
    prev = kernels;
  }
}

// More ranks can only reduce (or keep) each rank's share of tasks, and the
// sum over ranks always equals the task count.
TEST(SchedulerProperties, RankStatsPartitionTasks) {
  const Csr a = finalize_system(cage_like(250, 6, 0.1, 17), 17);
  InstanceOptions io;
  io.block = 16;
  SolverInstance inst(a, io);
  for (int ranks : {1, 2, 4, 8}) {
    inst.set_grid(make_process_grid(ranks));
    ScheduleOptions o;
    o.policy = Policy::kPriorityPerTask;
    o.n_ranks = ranks;
    o.cluster = cluster_h100();
    const ScheduleResult r = inst.run_timing(o);
    offset_t total = 0;
    for (const auto& rs : r.stats().ranks) total += rs.kernels;
    EXPECT_EQ(total, inst.graph().size());
  }
}

// Strong scaling sanity: with communication-free work (1 rank vs 4 ranks on
// a fast cluster), 4 ranks should not be slower than 1 rank by more than
// the communication it introduces (makespan within 3x of ideal range).
TEST(SchedulerProperties, MoreRanksNeverCatastrophic) {
  const Csr a = finalize_system(grid3d_laplacian(7, 7, 7), 21);
  InstanceOptions io;
  io.block = 16;
  SolverInstance inst(a, io);
  ScheduleOptions o;
  o.policy = Policy::kTrojanHorse;
  o.cluster = cluster_h100();
  o.n_ranks = 1;
  inst.set_grid(make_process_grid(1));
  const real_t t1 = inst.run_timing(o).makespan_s;
  o.n_ranks = 4;
  inst.set_grid(make_process_grid(4));
  const real_t t4 = inst.run_timing(o).makespan_s;
  EXPECT_LT(t4, t1 * 3.0);
}

// Determinism across repeated full pipelines (matrix generation included).
TEST(Determinism, EndToEndRepeatable) {
  DriverOptions opt;
  opt.sched.policy = Policy::kTrojanHorse;
  opt.sched.cluster = single_gpu(device_a100());
  const DriverReport r1 =
      run_solver(finalize_system(cage_like(200, 5, 0.1, 9), 9), opt);
  const DriverReport r2 =
      run_solver(finalize_system(cage_like(200, 5, 0.1, 9), 9), opt);
  EXPECT_EQ(r1.numeric.makespan_s, r2.numeric.makespan_s);
  EXPECT_EQ(r1.numeric.kernel_count, r2.numeric.kernel_count);
  EXPECT_EQ(r1.residual, r2.residual);
  EXPECT_EQ(r1.nnz_lu, r2.nnz_lu);
}

}  // namespace
}  // namespace th
