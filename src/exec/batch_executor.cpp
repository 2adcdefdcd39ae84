#include "exec/batch_executor.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "support/stopwatch.hpp"

namespace th::exec {

// Per-lane busy time (and the batch span derived from it) uses
// th::thread_cpu_seconds (support/stopwatch.hpp): immune to preemption, so
// it stays meaningful on machines with fewer cores than lanes.

BatchExecutor::BatchExecutor(const BatchExecOptions& opt)
    : own_pool_(opt.shared_pool != nullptr
                    ? nullptr
                    : std::make_unique<WorkerPool>(opt.n_threads)),
      pool_(opt.shared_pool != nullptr ? opt.shared_pool : own_pool_.get()) {
  TH_CHECK(opt.watchdog_s >= 0);
  // A borrowed pool keeps its owner's watchdog configuration — many
  // executors share it and must not fight over the period.
  if (own_pool_ != nullptr) pool_->set_watchdog(opt.watchdog_s);
  // Sized for the full width: the watchdog may shrink the pool later, but
  // every batch indexes lanes [0, width-at-dispatch).
  lanes_.assign(static_cast<std::size_t>(pool_->width()), Lane{});
}

void BatchExecutor::execute(NumericBackend& backend,
                            const std::vector<const Task*>& tasks,
                            const std::vector<char>* skip,
                            BatchVerify* verify) {
  TH_CHECK(!tasks.empty());
  TH_CHECK(skip == nullptr || skip->size() == tasks.size());
  const bool obs_on = obs::enabled();
  obs::Recorder& rec = obs::Recorder::global();
  const real_t batch_t0 = obs_on ? rec.host_now() : 0;
  const Stopwatch wall;
  const real_t caller_t0 = thread_cpu_seconds();

  // Group the members that run by target tile, numbering groups in
  // first-member order; a member joining an existing group is one ordered
  // reduction.
  const std::size_t nb = tasks.size();
  by_target_.clear();
  for (std::size_t i = 0; i < nb; ++i) {
    if (skip == nullptr || (*skip)[i] == 0) {
      by_target_.emplace_back(tasks[i]->target_key(), i);
    }
  }
  std::sort(by_target_.begin(), by_target_.end());
  first_.resize(nb);
  for (std::size_t r = 0; r < by_target_.size(); ++r) {
    const std::size_t i = by_target_[r].second;
    const bool head = r == 0 || by_target_[r - 1].first != by_target_[r].first;
    first_[i] = head ? i : first_[by_target_[r - 1].second];
  }
  const offset_t runs = static_cast<offset_t>(by_target_.size());
  long det_reds = 0;
  group_.assign(nb, -1);
  groups_ = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    if (skip != nullptr && (*skip)[i] != 0) continue;
    if (first_[i] == i) {
      group_[i] = groups_++;
    } else {
      group_[i] = group_[first_[i]];
      ++det_reds;
    }
  }

  // Group g runs on lane g % width, its members in batch position order:
  // a fixed rule, so per-lane work never depends on OS scheduling, and
  // concurrent lanes never touch one target. `width` is read once: a
  // watchdog degrade during the fork-join still runs every lane in
  // [0, width) (the caller claims the hung one).
  const int width = pool_->width();
  const auto for_lane_members = [&](int lane, auto&& fn) {
    for (std::size_t i = 0; i < nb; ++i) {
      if (group_[i] >= 0 && group_[i] % width == lane) fn(i);
    }
  };

  // With ABFT on, each lane captures its targets' checksums, runs their
  // members, plants their scheduled silent corruptions (after the kernels
  // wrote the output, before verification — exactly where a real SDC
  // would sit when the checksum pass reaches the tile) and verifies them,
  // all in this one fork-join: a target's capture, kernels and verdict
  // never leave its lane, so they need no coordination.
  const bool abft = verify != nullptr && verify->abft;
  if (verify != nullptr) {
    for (const auto& sab : verify->sabotage) TH_CHECK(sab.first < nb);
    verify->outcome.assign(nb, 0);
  }
  std::fill(lanes_.begin(), lanes_.end(), Lane{});
  pool_->run(
      [&](int lane) {
        Lane& ls = lanes_[static_cast<std::size_t>(lane)];
        const real_t t0 = thread_cpu_seconds();
        if (abft) {
          for_lane_members(lane, [&](std::size_t i) {
            backend.abft_capture(*tasks[i]);
          });
          ls.capture_s = thread_cpu_seconds() - t0;
        }
        for_lane_members(lane, [&](std::size_t i) {
          backend.run_task(*tasks[i], false);
        });
        if (verify != nullptr) {
          for (const auto& [member, kind] : verify->sabotage) {
            if (group_[member] >= 0 && group_[member] % width == lane &&
                backend.inject_fault(*tasks[member], kind))
              ++ls.sabotaged;
          }
        }
        if (abft) {
          const real_t v0 = thread_cpu_seconds();
          for_lane_members(lane, [&](std::size_t i) {
            if (!backend.abft_verify(*tasks[i], verify->rel_tol))
              verify->outcome[i] = 1;
          });
          ls.verify_s = thread_cpu_seconds() - v0;
        }
        ls.busy_s = thread_cpu_seconds() - t0;
      },
      "exec tasks");

  real_t busy = 0;
  real_t span_max = 0;
  for (int l = 0; l < width; ++l) {
    const Lane& ls = lanes_[static_cast<std::size_t>(l)];
    busy += ls.busy_s;
    span_max = std::max(span_max, ls.busy_s);
    if (verify != nullptr) {
      verify->sabotaged += ls.sabotaged;
      verify->capture_s += ls.capture_s;
      verify->verify_s += ls.verify_s;
    }
  }
  if (abft) verify->verified += runs;
  // The caller's CPU time minus its lane-0 share isolates the serial part
  // (grouping and bookkeeping), which sits on the critical path at any
  // width.
  const real_t serial_s = std::max<real_t>(
      0.0, (thread_cpu_seconds() - caller_t0) - lanes_[0].busy_s);
  stats_.busy_s += busy + serial_s;
  stats_.span_s += span_max + serial_s;
  stats_.wall_s += wall.seconds();
  stats_.det_reductions += det_reds;
  const int prev_degraded = stats_.lanes_degraded;
  stats_.workers = pool_->width();  // post-batch: reflects watchdog degrades
  stats_.lanes_degraded = pool_->lanes_degraded();
  stats_.stragglers = pool_->stragglers();
  ++stats_.batches;
  if (obs_on) {
    if (stats_.lanes_degraded > prev_degraded) {
      rec.instant(obs::Domain::kHost, -1, "watchdog degraded lane", "recovery",
                  rec.host_now(), "lanes",
                  stats_.lanes_degraded - prev_degraded, "width",
                  stats_.workers);
    }
    rec.span(obs::Domain::kHost, -1, "exec batch", "exec", batch_t0,
             rec.host_now(), "tasks", static_cast<std::int64_t>(nb), "targets",
             static_cast<std::int64_t>(groups_));
  }
}

void ExecStats::publish_metrics() const {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("th.exec.wall_s").add(wall_s);
  reg.gauge("th.exec.busy_s").add(busy_s);
  reg.gauge("th.exec.span_s").add(span_s);
  reg.counter("th.exec.fallback_tasks").add(fallback_tasks);
  reg.counter("th.exec.det_reductions").add(det_reductions);
  reg.gauge("th.exec.workers").set(workers);
  reg.counter("th.exec.batches").add(batches);
  reg.counter("th.exec.lanes_degraded").add(lanes_degraded);
  reg.counter("th.exec.stragglers").add(stragglers);
}

}  // namespace th::exec
