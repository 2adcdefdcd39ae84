#include "rhs/solve_dag.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
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

void RhsOptions::validate() const {
  TH_CHECK_MSG(max_width >= 1,
               "rhs batch width must be >= 1, got " << max_width);
}

void RhsStats::add_block(index_t width, const BlockSolveResult& r) {
  ++batches;
  solved += width;
  widest_batch = std::max(widest_batch, static_cast<offset_t>(width));
  busy_s += r.makespan_s();
}

void RhsStats::publish_metrics() const {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  const auto set = [&reg](const char* name, offset_t v) {
    auto& c = reg.counter(name);
    c.reset();
    c.add(static_cast<std::int64_t>(v));
  };
  set("th.rhs.solved", solved);
  set("th.rhs.batches", batches);
  set("th.rhs.dag.builds", dag_builds);
  set("th.rhs.dag.reuses", dag_reuses);
  set("th.rhs.widest_batch", widest_batch);
  reg.gauge("th.rhs.busy_s").set(busy_s);
}

RhsStats& RhsStats::operator+=(const RhsStats& o) {
  solved += o.solved;
  batches += o.batches;
  dag_builds += o.dag_builds;
  dag_reuses += o.dag_reuses;
  widest_batch = std::max(widest_batch, o.widest_batch);
  busy_s += o.busy_s;
  return *this;
}

SolvePrices::SolvePrices(std::shared_ptr<const TilePattern> pattern,
                         const ScheduleOptions& base, const ProcessGrid& grid)
    : pattern_(std::move(pattern)), base_(base), grid_(grid) {}

const BlockSolveResult& SolvePrices::price(index_t nrhs,
                                           SolveSchedule schedule) {
  TH_CHECK_MSG(nrhs >= 1, "solve DAG width must be >= 1, got " << nrhs);
  const auto key = std::make_pair(schedule, nrhs);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++reuses_;
    return it->second;
  }
  const obs::ScopedDisable no_obs;  // pricing detail, not a run
  ScheduleOptions run = base_;
  run.policy = solve_policy(schedule);
  const auto replay = [&](bool forward) {
    return simulate(build_solve_graph(*pattern_, forward, nrhs, grid_), run,
                    nullptr);
  };
  BlockSolveResult r{replay(true), replay(false)};
  ++builds_;
  return cache_.emplace(key, std::move(r)).first->second;
}

BlockSolver::BlockSolver(const PluFactorization& fact,
                         const ScheduleOptions& base, const ProcessGrid& grid)
    : BlockSolver(fact, std::make_shared<SolvePrices>(fact.shared_pattern(),
                                                      base, grid)) {}

BlockSolver::BlockSolver(const PluFactorization& fact,
                         std::shared_ptr<SolvePrices> prices)
    : fact_(fact), prices_(std::move(prices)) {
  TH_CHECK_MSG(prices_ != nullptr && &prices_->pattern() == &fact.pattern(),
               "block solver needs a price table over its factorization's "
               "pattern");
}

const BlockSolveResult& BlockSolver::solve(real_t* x, index_t nrhs,
                                           SolveSchedule schedule, bool) {
  TH_CHECK_MSG(x != nullptr, "block solve needs caller storage");
  const BlockSolveResult& out = prices_->price(nrhs, schedule);
  tri_solve_in_order(fact_, x, nrhs);
  return out;
}

}  // namespace th::rhs
