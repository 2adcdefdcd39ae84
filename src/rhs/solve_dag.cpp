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

BlockSolver::BlockSolver(const PluFactorization& fact,
                         const ScheduleOptions& base, const ProcessGrid& grid)
    : fact_(fact), base_(base), dag_(fact, grid) {}

BlockSolveResult BlockSolver::price(index_t nrhs, SolveSchedule schedule) {
  const SolveDag::Graphs& g = dag_.graphs(nrhs);
  ScheduleOptions run = base_;
  run.policy = solve_policy(schedule);
  BlockSolveResult out;
  out.forward = simulate(g.forward, run, nullptr);
  out.backward = simulate(g.backward, run, nullptr);
  return out;
}

BlockSolveResult BlockSolver::solve(real_t* x, index_t nrhs,
                                    SolveSchedule schedule, bool) {
  TH_CHECK_MSG(x != nullptr, "block solve needs caller storage");
  const BlockSolveResult out = price(nrhs, schedule);
  tri_solve_in_order(fact_, x, nrhs);
  return out;
}

real_t BlockSolver::estimate_s(index_t nrhs, SolveSchedule schedule) {
  return price(nrhs, schedule).makespan_s();
}

}  // namespace th::rhs
