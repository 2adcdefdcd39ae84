// Tests for the extension modules: parallel triangular solve (SpTRSV),
// iterative refinement, the critical-path priority metric, upward ranks,
// and the simulated-kernel spans of the Chrome trace exporter.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "rhs/solve_dag.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "solvers/refine.hpp"
#include "sparse/ops.hpp"

namespace th {
namespace {

ScheduleOptions th_opts(Policy p = Policy::kTrojanHorse) {
  ScheduleOptions o;
  o.policy = p;
  o.cluster = single_gpu(device_a100());
  return o;
}

// Build a factored PLU instance ready for triangular solves.
std::unique_ptr<SolverInstance> factored_instance(const Csr& a,
                                                  index_t block = 16) {
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = block;
  auto inst = std::make_unique<SolverInstance>(a, io);
  inst->run_numeric(th_opts());
  return inst;
}

TEST(TriSolve, BatchingReducesSolveKernels) {
  const Csr a = finalize_system(grid2d_laplacian(20, 20), 6);
  auto inst = factored_instance(a, 8);
  rhs::BlockSolver solver(*inst->plu_factorization(), th_opts());
  std::vector<real_t> x_th(static_cast<std::size_t>(a.n_rows), 1.0);
  std::vector<real_t> x_base = x_th;

  const rhs::BlockSolveResult th =
      solver.solve(x_th.data(), 1, rhs::SolveSchedule::kPriorityDag);
  const rhs::BlockSolveResult base =
      solver.solve(x_base.data(), 1, rhs::SolveSchedule::kLevelSet);

  EXPECT_EQ(base.forward.kernel_count,
            build_solve_graph(inst->plu_factorization()->pattern(), true, 1)
                .size());
  EXPECT_LT(th.forward.kernel_count, base.forward.kernel_count);
  EXPECT_LT(th.backward.kernel_count, base.backward.kernel_count);
  // Same numeric answer either way.
  for (std::size_t i = 0; i < x_th.size(); ++i) {
    EXPECT_NEAR(x_th[i], x_base[i], 1e-10);
  }
}

TEST(TriSolve, GraphShapesAreSane) {
  const Csr a = finalize_system(banded_random(180, 8, 0.5, 3), 3);
  auto inst = factored_instance(a, 12);
  const TilePattern& p = inst->plu_factorization()->pattern();
  const TaskGraph f = build_solve_graph(p, true, 2);
  const TaskGraph bwd = build_solve_graph(p, false, 2);
  const index_t nt = p.nt;
  // nt diagonal tasks plus one update per strictly-lower / upper tile.
  EXPECT_GE(f.size(), nt);
  EXPECT_GE(bwd.size(), nt);
  EXPECT_GT(f.level_count(), 1);
  // Forward graph: first level contains the first diagonal task.
  EXPECT_EQ(f.levels()[0], 0);
}

TEST(Refinement, ReducesOrKeepsResidual) {
  const Csr a = finalize_system(circuit_like(300, 2.5, 2, 8), 8);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  inst.run_numeric(th_opts());
  std::vector<real_t> x_true(static_cast<std::size_t>(a.n_rows), 1.0);
  const std::vector<real_t> b = spmv(a, x_true);

  const RefineReport rep = iterative_refinement(inst, b);
  ASSERT_GE(rep.residual_history.size(), 1u);
  for (std::size_t i = 1; i < rep.residual_history.size(); ++i) {
    EXPECT_LE(rep.residual_history[i], rep.residual_history[i - 1] * 2)
        << "refinement diverged at step " << i;
  }
  EXPECT_LT(rep.final_residual(), 1e-13);
}

TEST(Refinement, StopsAtTolerance) {
  const Csr a = finalize_system(grid2d_laplacian(10, 10), 12);
  InstanceOptions io;
  io.core = SolverCore::kSlu;
  io.block = 8;
  SolverInstance inst(a, io);
  inst.run_numeric(th_opts());
  std::vector<real_t> b(static_cast<std::size_t>(a.n_rows), 2.0);
  RefineOptions opts;
  opts.tolerance = 1e-6;  // already satisfied by the direct solve
  const RefineReport rep = iterative_refinement(inst, b, opts);
  EXPECT_EQ(rep.iterations(), 0);
}

TEST(CriticalPath, UpwardRankIsMonotoneAlongEdges) {
  const Csr a = finalize_system(grid2d_laplacian(12, 12), 7);
  InstanceOptions io;
  io.block = 12;
  SolverInstance inst(a, io);
  const TaskGraph& g = inst.graph();
  const auto& rank = g.upward_rank();
  for (index_t t = 0; t < g.size(); ++t) {
    auto [sb, se] = g.successors(t);
    for (const index_t* s = sb; s != se; ++s) {
      EXPECT_GT(rank[t], rank[*s]) << "rank not strictly decreasing";
    }
    EXPECT_GE(rank[t], g.task(t).cost.flops);
  }
  EXPECT_GE(g.critical_path_flops(), rank[0]);
  EXPECT_LE(g.critical_path_flops(), g.total_flops());
}

TEST(CriticalPath, PolicyProducesCorrectNumerics) {
  const Csr a = finalize_system(cage_like(220, 6, 0.1, 15), 15);
  DriverOptions opt;
  opt.instance.block = 16;
  opt.sched = th_opts();
  opt.sched.prioritizer.metric = PrioritizerOptions::Metric::kCriticalPath;
  const DriverReport rep = run_solver(a, opt);
  EXPECT_LT(rep.residual, 1e-11);
  EXPECT_LT(rep.numeric.kernel_count, rep.task_count);
}

TEST(CriticalPath, MetricChangesScheduleDeterministically) {
  const Csr a = finalize_system(grid3d_laplacian(5, 5, 5), 1);
  InstanceOptions io;
  io.block = 12;
  io.grid = make_process_grid(4);
  SolverInstance inst(a, io);
  ScheduleOptions base = th_opts();
  base.n_ranks = 4;
  base.cluster = cluster_h100();
  ScheduleOptions cp = base;
  cp.prioritizer.metric = PrioritizerOptions::Metric::kCriticalPath;
  const ScheduleResult r1 = inst.run_timing(cp);
  const ScheduleResult r2 = inst.run_timing(cp);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);  // deterministic
  const ScheduleResult rb = inst.run_timing(base);
  EXPECT_GT(r1.makespan_s, 0);
  EXPECT_GT(rb.makespan_s, 0);
}

// The simulated-kernel spans of the unified trace writer, with no
// recorder events mixed in.
std::string unified_trace(const Trace& trace,
                          const std::string& process_name = "trojan-horse") {
  std::ostringstream os;
  obs::write_unified_trace(os, &trace, obs::Recorder(), process_name);
  return os.str();
}

TEST(TraceExport, ValidChromeJsonStructure) {
  Trace trace;
  trace.record({0, 0.0, 1e-3, 1e-4, 5000, 3});
  trace.record({1, 5e-4, 2e-3, 5e-5, 8000, 7});
  const std::string s = unified_trace(trace, "unit-test");
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"unit-test (simulated cluster)\""), std::string::npos);
  EXPECT_NE(s.find("batch of 3 tasks"), std::string::npos);
  EXPECT_NE(s.find("batch of 7 tasks"), std::string::npos);
  EXPECT_NE(s.find("host launch+prep"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char c : s) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceExport, FileRoundTrip) {
  Trace trace;
  trace.record({0, 0.0, 1e-3, 0.0, 100, 1});
  const obs::Recorder empty;
  const std::string path = "unified_trace_test.json";
  obs::write_unified_trace_file(path, &trace, empty, "trojan-horse");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
  EXPECT_THROW(obs::write_unified_trace_file("/nonexistent-dir/x.json", &trace,
                                             empty, "trojan-horse"),
               Error);
}

TEST(TraceExport, RealScheduleExports) {
  const Csr a = finalize_system(grid2d_laplacian(12, 12), 31);
  InstanceOptions io;
  io.block = 12;
  SolverInstance inst(a, io);
  const ScheduleResult r = inst.run_timing(th_opts());
  EXPECT_GT(unified_trace(r.trace).size(), 100u);
}

}  // namespace
}  // namespace th
