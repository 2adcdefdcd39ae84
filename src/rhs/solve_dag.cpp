#include "rhs/solve_dag.hpp"

#include "support/error.hpp"

namespace th::rhs {

const char* solve_schedule_name(SolveSchedule s) {
  return s == SolveSchedule::kPriorityDag ? "priority" : "levelset";
}

SolveSchedule solve_schedule_by_name(const std::string& name) {
  if (name == "priority") return SolveSchedule::kPriorityDag;
  if (name == "levelset") return SolveSchedule::kLevelSet;
  throw Error("unknown solve schedule: " + name +
              " (want priority|levelset)");
}

Policy solve_policy(SolveSchedule s) {
  return s == SolveSchedule::kPriorityDag ? Policy::kTrojanHorse
                                          : Policy::kLevelPerTask;
}

SolveDag::SolveDag(const PluFactorization& fact, const ProcessGrid& grid)
    : fact_(fact), grid_(grid) {}

const SolveDag::Graphs& SolveDag::graphs(index_t nrhs) {
  TH_CHECK_MSG(nrhs >= 1, "solve DAG width must be >= 1, got " << nrhs);
  const auto it = cache_.find(nrhs);
  if (it != cache_.end()) {
    ++reuses_;
    return it->second;
  }
  Graphs g;
  g.forward = build_solve_graph(fact_, /*forward=*/true, nrhs, grid_);
  g.backward = build_solve_graph(fact_, /*forward=*/false, nrhs, grid_);
  ++builds_;
  return cache_.emplace(nrhs, std::move(g)).first->second;
}

const SolveFoldPlan& SolveDag::forward_fold() {
  if (!forward_fold_) {
    forward_fold_ = build_solve_fold_plan(fact_.pattern(), /*forward=*/true);
  }
  return *forward_fold_;
}

const SolveFoldPlan& SolveDag::backward_fold() {
  if (!backward_fold_) {
    backward_fold_ =
        build_solve_fold_plan(fact_.pattern(), /*forward=*/false);
  }
  return *backward_fold_;
}

BlockSolver::BlockSolver(const PluFactorization& fact,
                         const ScheduleOptions& base, const ProcessGrid& grid)
    : fact_(fact), base_(base), dag_(fact, grid) {}

ScheduleOptions BlockSolver::run_options(SolveSchedule schedule) const {
  ScheduleOptions run = base_;
  run.policy = solve_policy(schedule);
  return run;
}

BlockSolveResult BlockSolver::solve(real_t* x, index_t nrhs,
                                    SolveSchedule schedule, bool) {
  TH_CHECK_MSG(x != nullptr, "block solve needs caller storage");
  const SolveDag::Graphs& g = dag_.graphs(nrhs);
  const ScheduleOptions run = run_options(schedule);
  BlockSolveResult out;
  {
    TriSolveBackend backend(fact_, x, nrhs, /*forward=*/true,
                            dag_.forward_fold());
    out.forward = simulate(g.forward, run, &backend);
  }
  {
    TriSolveBackend backend(fact_, x, nrhs, /*forward=*/false,
                            dag_.backward_fold());
    out.backward = simulate(g.backward, run, &backend);
  }
  return out;
}

real_t BlockSolver::estimate_s(index_t nrhs, SolveSchedule schedule) {
  const SolveDag::Graphs& g = dag_.graphs(nrhs);
  const ScheduleOptions run = run_options(schedule);
  return simulate(g.forward, run, nullptr).makespan_s +
         simulate(g.backward, run, nullptr).makespan_s;
}

}  // namespace th::rhs
