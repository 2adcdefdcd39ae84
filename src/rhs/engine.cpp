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
  set("th.rhs.close.width", close_width);
  set("th.rhs.close.timeout", close_timeout);
  set("th.rhs.close.flush", close_flush);
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
  close_width += o.close_width;
  close_timeout += o.close_timeout;
  close_flush += o.close_flush;
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

RhsEngine::RhsEngine(const PluFactorization& fact, const RhsOptions& opt,
                     const ScheduleOptions& sched, const ProcessGrid& grid)
    : opt_(opt),
      n_(fact.pattern().n),
      solver_(fact, sched, grid),
      batcher_(opt) {
  opt_.validate();
}

std::int64_t RhsEngine::submit(RhsEntry e, real_t now_s) {
  TH_CHECK_MSG(static_cast<index_t>(e.b.size()) == n_,
               "rhs length " << e.b.size() << " does not match n=" << n_);
  ++stats_.submitted;
  return batcher_.submit(std::move(e), now_s);
}

std::vector<RhsCompletion> RhsEngine::advance(real_t now_s) {
  std::vector<RhsCompletion> out;
  while (auto batch = batcher_.poll(now_s)) {
    execute(std::move(*batch), out);
  }
  return out;
}

std::vector<RhsCompletion> RhsEngine::flush(real_t now_s) {
  std::vector<RhsCompletion> out;
  while (auto batch = batcher_.flush(now_s)) {
    execute(std::move(*batch), out);
  }
  return out;
}

real_t RhsEngine::estimate_s(index_t nrhs) {
  return solver_.estimate_s(nrhs, opt_.schedule);
}

const RhsStats& RhsEngine::stats() const {
  stats_.dag_builds = solver_.dag().builds();
  stats_.dag_reuses = solver_.dag().reuses();
  return stats_;
}

void RhsEngine::execute(RhsBatch batch, std::vector<RhsCompletion>& out) {
  const real_t start_s = batch.closed_s;

  // Triage at the batch boundary: members whose token fired or whose
  // deadline already passed are shed without touching the numerics.
  std::vector<RhsEntry*> live;
  live.reserve(batch.members.size());
  for (RhsEntry& e : batch.members) {
    RhsCompletion c;
    c.id = e.id;
    c.tag = e.tag;
    c.arrival_s = e.arrival_s;
    c.start_s = start_s;
    c.finish_s = start_s;
    c.close = batch.reason;
    if (e.token != nullptr && e.token->cancel_requested()) {
      c.status = RhsCompletion::Status::kCancelled;
      ++stats_.cancelled;
      out.push_back(std::move(c));
      continue;
    }
    if (e.deadline_s <= start_s) {
      c.status = RhsCompletion::Status::kDeadlineMiss;
      ++stats_.deadline_misses;
      out.push_back(std::move(c));
      continue;
    }
    live.push_back(&e);
  }

  // A fully-shed batch executes no block solve and charges no batch
  // accounting — close_width + close_timeout + close_flush == batches by
  // construction.
  if (live.empty()) return;
  ++stats_.batches;
  switch (batch.reason) {
    case CloseReason::kWidth:
      ++stats_.close_width;
      break;
    case CloseReason::kTimeout:
      ++stats_.close_timeout;
      break;
    case CloseReason::kFlush:
      ++stats_.close_flush;
      break;
  }

  const index_t width = static_cast<index_t>(live.size());
  stats_.widest_batch =
      std::max(stats_.widest_batch, static_cast<offset_t>(width));

  // Gather the live members into one n x width column-major block, run it
  // as a single block solve, and scatter the solution columns back out.
  std::vector<real_t> block(static_cast<std::size_t>(n_) * width);
  for (index_t j = 0; j < width; ++j) {
    std::copy(live[j]->b.begin(), live[j]->b.end(),
              block.begin() + static_cast<std::size_t>(j) * n_);
  }
  const BlockSolveResult r =
      solver_.solve(block.data(), width, opt_.schedule);
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
    c.id = live[j]->id;
    c.tag = live[j]->tag;
    c.status = RhsCompletion::Status::kDone;
    c.arrival_s = live[j]->arrival_s;
    c.start_s = start_s;
    c.finish_s = finish_s;
    c.batch_width = width;
    c.close = batch.reason;
    const auto col = block.begin() + static_cast<std::size_t>(j) * n_;
    c.x.assign(col, col + n_);
    ++stats_.solved;
    out.push_back(std::move(c));
  }
}

}  // namespace th::rhs
