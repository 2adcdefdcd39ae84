// Extension: batched multi-RHS SpTRSV throughput gate (DESIGN.md §15).
//
// Drives rhs::BlockSolver over one factorization, splitting a fixed
// population of right-hand sides into blocks of width 1/4/16/64 and
// solving each block once (the shape of thsolve_cli --nrhs), and holds the
// line on the subsystem's reason to exist:
//
//   (a) throughput scales — RHS per virtual second increases monotonically
//       with batch width, and width 16 is at least 3x width 1 (amortising
//       per-task kernel launches across the block is the whole point);
//   (b) the level-set ablation is reported at width 16 next to the
//       priority-DAG schedule, and the priority-DAG schedule batches
//       kernels the per-level baseline cannot;
//   (c) solves are bit-stable — solutions are bitwise identical across
//       worker counts {1,2,4,8} and batch widths {1,4,16}, and every
//       solution's scaled residual stays tiny;
//   (d) the th.rhs.* registry mirror reconciles with the RhsStats the
//       bench counts, exactly.
//
// Any violated gate exits 1, so CI can hold the line.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "gen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "order/perm.hpp"
#include "rhs/solve_dag.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

using namespace th;
using namespace th::bench;

namespace {

int g_failures = 0;

void gate(bool ok, const char* what) {
  std::printf("  gate: %-58s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++g_failures;
}

std::string fmt_exp(real_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1e", static_cast<double>(v));
  return buf;
}

/// The same right-hand-side population for every configuration: column j is
/// A * x_true(j) in the original ordering.
std::vector<std::vector<real_t>> make_rhs(const Csr& a, int count) {
  Rng rng(777);
  std::vector<std::vector<real_t>> cols(static_cast<std::size_t>(count));
  for (auto& b : cols) {
    std::vector<real_t> xt(static_cast<std::size_t>(a.n_rows));
    for (real_t& v : xt) v = rng.uniform(-1, 1);
    b = spmv(a, xt);
  }
  return cols;
}

struct RunOutcome {
  rhs::RhsStats stats;
  /// Solutions in the permuted ordering, one per column.
  std::vector<std::vector<real_t>> x;
};

/// Split the columns into blocks of ropt.max_width (the last may be
/// narrower) and solve each with a BlockSolver holding a price table of its
/// own, counting the blocks; solutions are stored by column so two runs are
/// comparable column-by-column.
RunOutcome run_blocks(const SolverInstance& inst, const ScheduleOptions& so,
                      const rhs::RhsOptions& ropt,
                      const std::vector<std::vector<real_t>>& cols) {
  rhs::BlockSolver solver(*inst.plu_factorization(), so);
  const std::size_t n = static_cast<std::size_t>(inst.matrix().n_rows);
  RunOutcome out;
  out.x.resize(cols.size());
  std::vector<real_t> block;
  for (std::size_t at = 0; at < cols.size(); at += ropt.max_width) {
    const std::size_t w =
        std::min(cols.size() - at, static_cast<std::size_t>(ropt.max_width));
    block.resize(n * w);
    for (std::size_t j = 0; j < w; ++j) {
      const std::vector<real_t> pb =
          apply_permutation(cols[at + j], inst.permutation());
      std::copy(pb.begin(), pb.end(), block.begin() + j * n);
    }
    const rhs::BlockSolveResult& r =
        solver.solve(block.data(), static_cast<index_t>(w), ropt.schedule);
    out.stats.add_block(static_cast<index_t>(w), r);
    for (std::size_t j = 0; j < w; ++j) {
      out.x[at + j].assign(block.begin() + j * n, block.begin() + (j + 1) * n);
    }
  }
  out.stats.dag_builds = solver.dag().builds();
  out.stats.dag_reuses = solver.dag().reuses();
  return out;
}

real_t worst_residual(const Csr& a, const SolverInstance& inst,
                      const std::vector<std::vector<real_t>>& cols,
                      const RunOutcome& run) {
  real_t worst = 0;
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const std::vector<real_t> x =
        apply_inverse_permutation(run.x[j], inst.permutation());
    worst = std::max(worst, scaled_residual(a, x, cols[j]));
  }
  return worst;
}

/// Every column came back as a full-length solution that the solver wrote:
/// it no longer equals its (permuted) right-hand side.
bool every_column_solved(const SolverInstance& inst,
                         const std::vector<std::vector<real_t>>& cols,
                         const RunOutcome& run) {
  if (run.x.size() != cols.size()) return false;
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const std::vector<real_t> pb =
        apply_permutation(cols[j], inst.permutation());
    if (run.x[j].size() != pb.size() || run.x[j] == pb) return false;
  }
  return true;
}

bool bitwise_equal(const std::vector<std::vector<real_t>>& a,
                   const std::vector<std::vector<real_t>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j].size() != b[j].size() ||
        std::memcmp(a[j].data(), b[j].data(),
                    a[j].size() * sizeof(real_t)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  banner("rhs throughput extension",
         "Batched multi-RHS SpTRSV engine: width scaling, level-set "
         "ablation, bit-stability, obs reconciliation.");

  const obs::Session obs_session(true);

  const index_t side = fast_mode() ? 40 : 60;
  const Csr a = grid2d_laplacian(side, side);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 64;
  SolverInstance inst(a, io);
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = 2;
  inst.run_numeric(so);
  std::printf("matrix: grid2d %dx%d (n=%d, nnz(L+U)=%lld)\n\n", side, side,
              a.n_rows, static_cast<long long>(inst.nnz_lu()));

  const int n_rhs = fast_mode() ? 64 : 128;
  const std::vector<std::vector<real_t>> cols = make_rhs(a, n_rhs);

  rhs::RhsStats total;     // summed across every run, vs the registry
  bool all_solved = true;  // every run returned every column solved

  // ---- (a) width sweep: throughput must scale with batch width ------------
  Table t("Batched SpTRSV: width sweep (priority-DAG schedule)");
  t.set_header({"Width", "Batches", "DAG reuses", "Busy (ms)", "RHS/s",
                "Residual"});
  std::vector<double> tput;
  for (const index_t w : {1, 4, 16, 64}) {
    rhs::RhsOptions ropt;
    ropt.max_width = w;
    const RunOutcome run = run_blocks(inst, so, ropt, cols);
    total += run.stats;
    const bool solved = every_column_solved(inst, cols, run);
    all_solved = all_solved && solved;
    const double rps =
        run.stats.busy_s > 0 ? n_rhs / static_cast<double>(run.stats.busy_s)
                             : 0.0;
    tput.push_back(rps);
    const real_t res = worst_residual(a, inst, cols, run);
    t.add_row({std::to_string(w),
               fmt_count(static_cast<long long>(run.stats.batches)),
               fmt_count(static_cast<long long>(run.stats.dag_reuses)),
               fmt_fixed(run.stats.busy_s * 1e3, 3), fmt_fixed(rps, 1),
               fmt_exp(res)});
    gate(solved, "width run solved every submitted rhs");
    gate(run.stats.widest_batch == static_cast<offset_t>(w),
         "width run filled its block width");
    gate(res < 1e-8, "width run residuals stay below 1e-8");
  }
  emit(t, "ext_rhs_throughput");
  std::printf("\n");

  bool monotone = true;
  for (std::size_t i = 1; i < tput.size(); ++i) {
    if (!(tput[i] > tput[i - 1])) monotone = false;
  }
  gate(monotone, "RHS/s increases monotonically over widths 1/4/16/64");
  std::printf("scaling: width 16 runs %.2fx the width-1 throughput\n",
              tput[0] > 0 ? tput[2] / tput[0] : 0.0);
  gate(tput[2] >= 3.0 * tput[0], "width 16 delivers >= 3x width-1 RHS/s");

  // ---- (b) level-set ablation at width 16 ---------------------------------
  rhs::RhsOptions pri;
  pri.max_width = 16;
  rhs::RhsOptions lvl = pri;
  lvl.schedule = rhs::SolveSchedule::kLevelSet;
  const RunOutcome run_pri = run_blocks(inst, so, pri, cols);
  const RunOutcome run_lvl = run_blocks(inst, so, lvl, cols);
  total += run_pri.stats;
  total += run_lvl.stats;
  all_solved = all_solved && every_column_solved(inst, cols, run_pri) &&
               every_column_solved(inst, cols, run_lvl);
  std::printf("ablation @16: priority-DAG %.3f ms busy (%.1f RHS/s), "
              "level-set %.3f ms busy (%.1f RHS/s)\n",
              run_pri.stats.busy_s * 1e3, n_rhs / run_pri.stats.busy_s,
              run_lvl.stats.busy_s * 1e3, n_rhs / run_lvl.stats.busy_s);
  gate(run_pri.stats.busy_s < run_lvl.stats.busy_s,
       "priority-DAG beats the level-set baseline at width 16");
  gate(worst_residual(a, inst, cols, run_lvl) < 1e-8,
       "level-set ablation stays correct");

  // ---- (c) bitwise across worker counts and widths ------------------------
  const int det_rhs = 16;
  const std::vector<std::vector<real_t>> det_cols(cols.begin(),
                                                  cols.begin() + det_rhs);
  std::vector<std::vector<real_t>> ref;  // workers=1, width=1
  bool det_identical = true;
  bool det_correct = true;
  for (const int workers : {1, 2, 4, 8}) {
    for (const index_t w : {1, 4, 16}) {
      ScheduleOptions dso = so;
      dso.exec.workers = workers;
      rhs::RhsOptions ropt;
      ropt.max_width = w;
      const RunOutcome run = run_blocks(inst, dso, ropt, det_cols);
      total += run.stats;
      all_solved = all_solved && every_column_solved(inst, det_cols, run);
      if (ref.empty()) {
        ref = run.x;
      } else if (!bitwise_equal(ref, run.x)) {
        det_identical = false;
        std::printf("det: MISMATCH at workers=%d width=%d\n", workers,
                    static_cast<int>(w));
      }
      if (worst_residual(a, inst, det_cols, run) >= 1e-8) det_correct = false;
    }
  }
  gate(det_identical,
       "det solutions bitwise identical across workers x widths");
  gate(det_correct, "det solutions stay below the residual bound");

  // ---- (d) th.rhs.* registry reconciles with RhsStats ---------------------
  total.publish_metrics();
  auto& reg = obs::Registry::global();
  const bool reconciled =
      reg.counter("th.rhs.solved").value() ==
          static_cast<std::int64_t>(total.solved) &&
      reg.counter("th.rhs.batches").value() ==
          static_cast<std::int64_t>(total.batches) &&
      reg.counter("th.rhs.dag.builds").value() ==
          static_cast<std::int64_t>(total.dag_builds) &&
      reg.counter("th.rhs.dag.reuses").value() ==
          static_cast<std::int64_t>(total.dag_reuses) &&
      reg.counter("th.rhs.widest_batch").value() ==
          static_cast<std::int64_t>(total.widest_batch);
  gate(reconciled, "obs th.rhs.* counters reconcile with RhsStats");
  gate(all_solved, "every submitted rhs was solved");

  if (g_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
