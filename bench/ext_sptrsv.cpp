// Extension experiment (beyond the paper's evaluated scope): apply the
// aggregate-and-batch strategy to the *solve* phase (SpTRSV) as well. The
// paper's related work singles sparse triangular solve out as an essential
// component; its task structure is even more launch-bound than the
// factorisation's (one tiny kernel per tile), so the Trojan Horse helps it
// at least as much. Reports per-task (rhs::BlockSolver's level-set
// schedule) vs batched (its priority-DAG schedule) kernel counts and
// modelled times for forward+backward solves with 1 and 8 right-hand sides.
#include "common/bench_common.hpp"
#include "gen/registry.hpp"
#include "rhs/solve_dag.hpp"

using namespace th;
using namespace th::bench;

int main() {
  banner("Extension: SpTRSV",
         "Aggregate-and-batch applied to the triangular-solve phase "
         "(A100 model).");

  Table t("SpTRSV: forward+backward solve, per-task vs Trojan Horse");
  t.set_header({"Matrix", "nrhs", "tasks", "kernels per-task", "kernels TH",
                "time per-task ms", "time TH ms", "speedup"});

  for (const PaperMatrix* m : scale_up_matrices()) {
    if (fast_mode() && t.rows() >= 4) break;
    const Csr a = m->make();
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = 64;
    SolverInstance inst(a, io);
    ScheduleOptions numeric_opts;
    numeric_opts.policy = Policy::kTrojanHorse;
    numeric_opts.cluster = single_gpu(device_a100());
    inst.run_numeric(numeric_opts);

    rhs::BlockSolver solver(*inst.plu_factorization(), numeric_opts);
    for (index_t nrhs : {1, 8}) {
      // Both solves run in place on B = all ones.
      std::vector<real_t> x_th(
          static_cast<std::size_t>(a.n_rows) * static_cast<std::size_t>(nrhs),
          1.0);
      std::vector<real_t> x_base = x_th;
      const rhs::BlockSolveResult& rt =
          solver.solve(x_th.data(), nrhs, rhs::SolveSchedule::kPriorityDag);
      const rhs::BlockSolveResult& rb =
          solver.solve(x_base.data(), nrhs, rhs::SolveSchedule::kLevelSet);

      const TilePattern& p = inst.plu_factorization()->pattern();
      const offset_t tasks = build_solve_graph(p, true, nrhs).size() +
                             build_solve_graph(p, false, nrhs).size();
      const offset_t k_base = rb.kernel_count();
      const offset_t k_th = rt.kernel_count();
      const real_t t_base = rb.makespan_s();
      const real_t t_th = rt.makespan_s();
      t.add_row({m->name, std::to_string(nrhs), fmt_count(tasks),
                 fmt_count(k_base), fmt_count(k_th),
                 fmt_fixed(t_base * 1e3, 3), fmt_fixed(t_th * 1e3, 3),
                 fmt_speedup(t_base / t_th)});
    }
  }
  emit(t, "ext_sptrsv");
  return 0;
}
