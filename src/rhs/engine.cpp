#include "rhs/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace th::rhs {

void RhsStats::publish_metrics() const {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  const auto set = [&reg](const char* name, offset_t v) {
    auto& c = reg.counter(name);
    c.reset();
    c.add(static_cast<std::int64_t>(v));
  };
  set("th.rhs.submitted", submitted);
  set("th.rhs.solved", solved);
  set("th.rhs.cancelled", cancelled);
  set("th.rhs.deadline_misses", deadline_misses);
  set("th.rhs.batches", batches);
  set("th.rhs.dag.builds", dag_builds);
  set("th.rhs.dag.reuses", dag_reuses);
  set("th.rhs.widest_batch", widest_batch);
  reg.gauge("th.rhs.busy_s").set(busy_s);
}

RhsStats& RhsStats::operator+=(const RhsStats& o) {
  submitted += o.submitted;
  solved += o.solved;
  cancelled += o.cancelled;
  deadline_misses += o.deadline_misses;
  batches += o.batches;
  dag_builds += o.dag_builds;
  dag_reuses += o.dag_reuses;
  widest_batch = std::max(widest_batch, o.widest_batch);
  busy_s += o.busy_s;
  return *this;
}

const char* rhs_completion_status_name(RhsCompletion::Status s) {
  switch (s) {
    case RhsCompletion::Status::kDone:
      return "done";
    case RhsCompletion::Status::kCancelled:
      return "cancelled";
    case RhsCompletion::Status::kDeadlineMiss:
      return "deadline_miss";
  }
  return "?";
}

void RhsOptions::validate() const {
  TH_CHECK_MSG(max_width >= 1,
               "rhs batch width must be >= 1, got " << max_width);
}

RhsEngine::RhsEngine(const PluFactorization& fact, const RhsOptions& opt,
                     const ScheduleOptions& sched, const ProcessGrid& grid)
    : opt_(opt), n_(fact.pattern().n), solver_(fact, sched, grid) {
  opt_.validate();
}

real_t RhsEngine::estimate_s(index_t nrhs) {
  const auto it = estimates_.find(nrhs);
  if (it != estimates_.end()) return it->second;
  const obs::ScopedDisable no_obs;  // pricing detail, not a run
  const real_t est = solver_.estimate_s(nrhs, opt_.schedule);
  estimates_.emplace(nrhs, est);
  return est;
}

const RhsStats& RhsEngine::stats() const {
  stats_.dag_builds = solver_.dag().builds();
  stats_.dag_reuses = solver_.dag().reuses();
  return stats_;
}

std::vector<RhsCompletion> RhsEngine::execute(std::vector<RhsEntry> block,
                                              real_t start_s) {
  TH_CHECK_MSG(static_cast<index_t>(block.size()) <= opt_.max_width,
               "rhs block of " << block.size() << " exceeds the width cap "
                               << opt_.max_width);
  std::vector<RhsCompletion> out;
  out.reserve(block.size());
  stats_.submitted += static_cast<offset_t>(block.size());
  const auto shed = [&](const RhsEntry& e, RhsCompletion::Status status) {
    RhsCompletion c;
    c.tag = e.tag;
    c.status = status;
    c.start_s = start_s;
    c.finish_s = start_s;
    ++(status == RhsCompletion::Status::kCancelled ? stats_.cancelled
                                                   : stats_.deadline_misses);
    out.push_back(std::move(c));
  };

  // Triage at the block boundary: members whose token fired or whose
  // deadline already passed are shed without touching the numerics.
  std::vector<RhsEntry*> live;
  live.reserve(block.size());
  bool any_deadline = false;
  for (RhsEntry& e : block) {
    TH_CHECK_MSG(static_cast<index_t>(e.b.size()) == n_,
                 "rhs length " << e.b.size() << " does not match n=" << n_);
    if (e.token != nullptr && e.token->cancel_requested()) {
      shed(e, RhsCompletion::Status::kCancelled);
    } else if (e.deadline_s <= start_s) {
      shed(e, RhsCompletion::Status::kDeadlineMiss);
    } else {
      live.push_back(&e);
      any_deadline = any_deadline || e.deadline_s < CancelToken::kNoDeadline;
    }
  }
  // A member is served only if the block finishes by its deadline: price
  // the block at its live width (the replay solve() charges, bit for bit)
  // and shed the members it would finish late, until the width settles.
  // Blocks without deadlines skip the pricing.
  std::size_t priced = 0;
  while (any_deadline && !live.empty() && live.size() != priced) {
    priced = live.size();
    const real_t finish_s =
        start_s + estimate_s(static_cast<index_t>(priced));
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](const RhsEntry* e) {
                                if (e->deadline_s >= finish_s) return false;
                                shed(*e, RhsCompletion::Status::kDeadlineMiss);
                                return true;
                              }),
               live.end());
  }

  // A fully-shed block executes no block solve and charges no batch
  // accounting.
  if (live.empty()) return out;
  ++stats_.batches;

  const index_t width = static_cast<index_t>(live.size());
  stats_.widest_batch =
      std::max(stats_.widest_batch, static_cast<offset_t>(width));

  // Gather the live members into one n x width column-major block, run it
  // as a single block solve, and scatter the solution columns back out.
  std::vector<real_t> x(static_cast<std::size_t>(n_) * width);
  for (index_t j = 0; j < width; ++j) {
    std::copy(live[j]->b.begin(), live[j]->b.end(),
              x.begin() + static_cast<std::size_t>(j) * n_);
  }
  const BlockSolveResult r = solver_.solve(x.data(), width, opt_.schedule);
  const real_t finish_s = start_s + r.makespan_s();
  stats_.busy_s += r.makespan_s();

  if (obs::enabled()) {
    obs::Recorder::global().span(
        obs::Domain::kHost, obs::kRhsTrack, "rhs block solve", "rhs", start_s,
        finish_s, "width", width, "kernels",
        static_cast<std::int64_t>(r.kernel_count()));
  }

  for (index_t j = 0; j < width; ++j) {
    RhsCompletion c;
    c.tag = live[j]->tag;
    c.status = RhsCompletion::Status::kDone;
    c.start_s = start_s;
    c.finish_s = finish_s;
    c.batch_width = width;
    const auto col = x.begin() + static_cast<std::size_t>(j) * n_;
    c.x.assign(col, col + n_);
    ++stats_.solved;
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace th::rhs
