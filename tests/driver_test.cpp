// SolverInstance / run_solver API contract tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "order/reorder.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "sparse/convert.hpp"
#include "sparse/ops.hpp"
#include "symbolic/fill.hpp"

namespace th {
namespace {

Csr demo_matrix() { return finalize_system(grid2d_laplacian(14, 14), 5); }

ScheduleOptions gpu_opts(Policy p = Policy::kTrojanHorse) {
  ScheduleOptions o;
  o.policy = p;
  o.cluster = single_gpu(device_a100());
  return o;
}

TEST(SolverInstance, NumericRunsExactlyOnce) {
  SolverInstance inst(demo_matrix(), InstanceOptions{});
  EXPECT_FALSE(inst.numeric_done());
  inst.run_numeric(gpu_opts());
  EXPECT_TRUE(inst.numeric_done());
  EXPECT_THROW(inst.run_numeric(gpu_opts()), Error);
}

TEST(SolverInstance, SolveRequiresNumeric) {
  SolverInstance inst(demo_matrix(), InstanceOptions{});
  std::vector<real_t> b(static_cast<std::size_t>(inst.matrix().n_rows), 1.0);
  EXPECT_THROW(inst.solve(b), Error);
}

TEST(SolverInstance, PreorderedPermutationIsUsed) {
  const Csr a = demo_matrix();
  const Permutation perm = rcm_order(a);
  InstanceOptions io;
  io.preordered = perm;
  io.ordering = Ordering::kMinDegree;  // must be ignored
  SolverInstance inst(a, io);
  EXPECT_EQ(inst.permutation(), perm);
}

TEST(SolverInstance, BadPreorderedRejected) {
  InstanceOptions io;
  io.preordered = Permutation{0, 0, 1};  // not a bijection
  EXPECT_THROW(SolverInstance(demo_matrix(), io), Error);
  io.preordered = identity_permutation(3);  // wrong length
  EXPECT_THROW(SolverInstance(demo_matrix(), io), Error);
}

TEST(SolverInstance, NonSquareRejected) {
  Csr a;
  a.n_rows = 2;
  a.n_cols = 3;
  a.row_ptr = {0, 0, 0};
  EXPECT_THROW(SolverInstance(a, InstanceOptions{}), Error);
}

TEST(SolverInstance, SetGridReassignsOwners) {
  SolverInstance inst(demo_matrix(), InstanceOptions{});
  inst.set_grid(make_process_grid(6));
  const ProcessGrid g = make_process_grid(6);
  for (index_t i = 0; i < inst.graph().size(); ++i) {
    const Task& t = inst.graph().task(i);
    EXPECT_EQ(t.owner_rank, g.owner(t.row, t.col));
    EXPECT_LT(t.owner_rank, 6);
  }
}

// A donor-built instance shares its donor's task DAG by pointer; set_grid
// on it swaps in a re-owned copy and leaves the donor's owners as they were.
TEST(SolverInstance, DonorSharesTheGraphAndSetGridCopiesIt) {
  const Csr a = demo_matrix();
  const SolverInstance donor(a, InstanceOptions{});
  SolverInstance inst(finalize_system(grid2d_laplacian(14, 14), 6),
                      InstanceOptions{}, donor);
  EXPECT_EQ(&inst.graph(), &donor.graph());
  EXPECT_EQ(&inst.plu_factorization()->pattern(),
            &donor.plu_factorization()->pattern());

  inst.set_grid(ProcessGrid{});  // the grid it already has: still shared
  EXPECT_EQ(&inst.graph(), &donor.graph());

  std::vector<int> owners;
  for (const Task& t : donor.graph().tasks()) owners.push_back(t.owner_rank);
  inst.set_grid(make_process_grid(4));
  EXPECT_NE(&inst.graph(), &donor.graph());
  const ProcessGrid g = make_process_grid(4);
  bool moved = false;
  for (index_t i = 0; i < inst.graph().size(); ++i) {
    const Task& t = inst.graph().task(i);
    EXPECT_EQ(t.owner_rank, g.owner(t.row, t.col));
    EXPECT_EQ(donor.graph().task(i).owner_rank,
              owners[static_cast<std::size_t>(i)]);
    moved = moved || t.owner_rank != owners[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(moved);
}

// The shared DAG carries the donor's owner ranks, so a donor build under
// another grid (or tile size) is refused rather than silently mis-owned.
TEST(SolverInstance, DonorRejectsAnotherGridOrBlock) {
  const Csr a = demo_matrix();
  const SolverInstance donor(a, InstanceOptions{});
  InstanceOptions other_grid;
  other_grid.grid = make_process_grid(4);
  EXPECT_THROW(SolverInstance(a, other_grid, donor), Error);
  InstanceOptions other_block;
  other_block.block = 16;
  EXPECT_THROW(SolverInstance(a, other_block, donor), Error);
  EXPECT_NO_THROW(SolverInstance(a, InstanceOptions{}, donor));
}

TEST(SolverInstance, TimingReplayWorksBeforeAndAfterNumeric) {
  SolverInstance inst(demo_matrix(), InstanceOptions{});
  const ScheduleResult before = inst.run_timing(gpu_opts());
  inst.run_numeric(gpu_opts());
  const ScheduleResult after = inst.run_timing(gpu_opts());
  EXPECT_EQ(before.makespan_s, after.makespan_s);
  EXPECT_EQ(before.kernel_count, after.kernel_count);
}

TEST(SolverInstance, PluNnzLuEstimateMatchesExactForDiagDominantGrid) {
  // The tile estimate equals exact scalar symbolic fill; the post-numeric
  // count can only differ through numerical cancellation (none expected on
  // a random-valued diagonally dominant system beyond exact zeros).
  const Csr a = demo_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  const offset_t estimate = inst.nnz_lu();
  EXPECT_GT(estimate, a.nnz());
  inst.run_numeric(gpu_opts());
  const offset_t exact = inst.nnz_lu();
  // Dense-on-write storage pads tiles, so the exact stored-nonzero count
  // matches the symbolic fill (no pivoting, no dropping).
  EXPECT_NEAR(static_cast<double>(exact), static_cast<double>(estimate),
              0.02 * static_cast<double>(estimate));
}

// A grid with one-sided couplings (A(i, j) != 0, A(j, i) == 0) off its
// band, in both triangles: the analysis must symmetrize the structure
// itself.
Csr one_sided_grid() {
  const Csr grid = grid2d_laplacian(12, 12);
  const index_t n = grid.n_rows;
  Coo c;
  c.n_rows = c.n_cols = n;
  for (index_t r = 0; r < n; ++r) {
    for (offset_t p = grid.row_ptr[r]; p < grid.row_ptr[r + 1]; ++p) {
      c.add(r, grid.col_idx[p], grid.values[p]);
    }
  }
  for (index_t i = 0; i < n; i += 7) {
    const index_t j = (i * 37 + 11) % n;
    if (std::abs(i - j) > 12) c.add(i, j, 1.0);  // not a grid edge
  }
  return finalize_system(coo_to_csr(c), 5);
}

TEST(SolverInstance, StructurallyUnsymmetricInputUnderEveryOrdering) {
  const Csr a = one_sided_grid();
  ASSERT_FALSE(is_pattern_symmetric(a));
  const Csr sym = symmetrize_pattern(a);
  std::vector<real_t> b(static_cast<std::size_t>(a.n_rows));
  for (std::size_t j = 0; j < b.size(); ++j) {
    b[j] = static_cast<real_t>(j % 5) - 2.0;
  }
  for (SolverCore core : {SolverCore::kSlu, SolverCore::kPlu}) {
    for (Ordering o : {Ordering::kNatural, Ordering::kRcm,
                       Ordering::kMinDegree, Ordering::kNestedDissection}) {
      SCOPED_TRACE(std::string(solver_core_name(core)) + " " +
                   ordering_name(o));
      InstanceOptions io;
      io.core = core;
      io.ordering = o;
      io.block = 16;
      SolverInstance inst(a, io);
      // The fill is that of the explicitly symmetrized pattern.
      const Csr psym = apply_symmetric_permutation(sym, inst.permutation());
      SluOptions so;
      so.max_supernode = io.block;
      EXPECT_EQ(inst.nnz_lu(), core == SolverCore::kPlu
                                   ? symbolic_fill(psym).nnz_lu()
                                   : SluFactorization(psym, so).nnz_lu());
      inst.run_numeric(gpu_opts());
      EXPECT_LT(scaled_residual(a, inst.solve(b), b), 1e-12);
    }
  }
}

TEST(RunSolver, ReportFieldsConsistent) {
  DriverOptions opt;
  opt.sched = gpu_opts();
  const DriverReport rep = run_solver(demo_matrix(), opt);
  EXPECT_EQ(rep.n, 196);
  EXPECT_GT(rep.nnz, 0);
  EXPECT_GT(rep.task_count, 0);
  EXPECT_GT(rep.dag_levels, 1);
  EXPECT_GT(rep.nnz_lu, rep.nnz / 2);
  EXPECT_GE(rep.reorder_s, 0);
  EXPECT_GE(rep.symbolic_s, 0);
  EXPECT_LT(rep.residual, 1e-12);
  EXPECT_GT(rep.numeric.makespan_s, 0);
}

TEST(RunSolver, ResidualCheckCanBeSkipped) {
  DriverOptions opt;
  opt.sched = gpu_opts();
  opt.check_residual = false;
  const DriverReport rep = run_solver(demo_matrix(), opt);
  EXPECT_EQ(rep.residual, -1);
}

TEST(RunSolver, StructurallySingularMatrixThrows) {
  // A matrix with an exactly zero pivot that no fill can repair: a zero
  // row/column on the diagonal with no couplings.
  Coo c;
  c.n_rows = c.n_cols = 3;
  c.add(0, 0, 1.0);
  c.add(2, 2, 1.0);
  c.add(1, 1, 0.0);  // explicit zero pivot, no neighbours
  DriverOptions opt;
  opt.instance.ordering = Ordering::kNatural;
  opt.sched = gpu_opts();
  EXPECT_THROW(run_solver(coo_to_csr(c), opt), Error);
}

TEST(RunSolver, BothCoresAgreeOnSolution) {
  const Csr a = demo_matrix();
  std::vector<real_t> xs[2];
  int i = 0;
  for (SolverCore core : {SolverCore::kSlu, SolverCore::kPlu}) {
    InstanceOptions io;
    io.core = core;
    io.block = 16;
    SolverInstance inst(a, io);
    inst.run_numeric(gpu_opts());
    std::vector<real_t> b(static_cast<std::size_t>(a.n_rows));
    for (std::size_t j = 0; j < b.size(); ++j) {
      b[j] = static_cast<real_t>(j % 7) - 3.0;
    }
    xs[i++] = inst.solve(b);
  }
  for (std::size_t j = 0; j < xs[0].size(); ++j) {
    EXPECT_NEAR(xs[0][j], xs[1][j], 1e-9);
  }
}

TEST(ProcessGrid, FactorisationsAreMostSquare) {
  EXPECT_EQ(make_process_grid(1).pr, 1);
  EXPECT_EQ(make_process_grid(4).pr, 2);
  EXPECT_EQ(make_process_grid(4).pc, 2);
  EXPECT_EQ(make_process_grid(6).pr, 2);
  EXPECT_EQ(make_process_grid(6).pc, 3);
  EXPECT_EQ(make_process_grid(16).pr, 4);
  EXPECT_EQ(make_process_grid(7).pr, 1);  // prime: 1 x 7
  EXPECT_THROW(make_process_grid(0), Error);
}

TEST(ProcessGrid, OwnerCoversAllRanks) {
  const ProcessGrid g = make_process_grid(6);
  std::vector<int> seen(6, 0);
  for (index_t i = 0; i < 12; ++i) {
    for (index_t j = 0; j < 12; ++j) {
      const int o = g.owner(i, j);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 6);
      seen[o] = 1;
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

}  // namespace
}  // namespace th
