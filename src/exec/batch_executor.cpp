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
  lane_busy_.assign(static_cast<std::size_t>(pool_->width()), 0.0);
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
  // concurrent lanes never write one target. `width` is read just before
  // each fork-join, because the watchdog may shrink the pool in between.
  const auto for_lane_members = [&](int lane, int width, auto&& fn) {
    for (std::size_t i = 0; i < nb; ++i) {
      if (group_[i] >= 0 && group_[i] % width == lane) fn(i);
    }
  };

  // ABFT capture: snapshot + pre-execution checksums for every member that
  // will run. Planning is serial and cheap; the heavy per-target jobs
  // (snapshot, sums, SSSSM delta folds) drain on the worker lanes —
  // distinct jobs touch distinct targets, so they need no coordination.
  if (verify != nullptr && verify->abft) {
    const Stopwatch cap;
    for (std::size_t i = 0; i < nb; ++i) {
      if (group_[i] >= 0) backend.abft_capture_plan(*tasks[i]);
    }
    if (const std::size_t jobs = backend.abft_capture_jobs(); jobs > 0) {
      const std::size_t cw = static_cast<std::size_t>(pool_->width());
      pool_->run(
          [&](int lane) {
            for (std::size_t j = static_cast<std::size_t>(lane); j < jobs;
                 j += cw)
              backend.abft_capture_run(j);
          },
          "abft capture");
    }
    verify->capture_s += cap.seconds();
  }

  const int width = pool_->width();
  std::fill(lane_busy_.begin(), lane_busy_.end(), 0.0);
  pool_->run(
      [&](int lane) {
        const real_t t0 = thread_cpu_seconds();
        for_lane_members(lane, width, [&](std::size_t i) {
          backend.run_task(*tasks[i], false);
        });
        lane_busy_[static_cast<std::size_t>(lane)] = thread_cpu_seconds() - t0;
      },
      "exec tasks");

  if (verify != nullptr) {
    // Plant silent corruption into the outputs the kernels just wrote —
    // after execution, before verification, exactly where a real SDC would
    // sit when the checksum pass reaches the tile.
    for (const auto& [member, kind] : verify->sabotage) {
      TH_CHECK(member < nb);
      if (group_[member] < 0) continue;
      if (backend.inject_fault(*tasks[member], kind)) ++verify->sabotaged;
    }
    verify->outcome.assign(nb, 0);
    if (verify->abft) {
      const Stopwatch ver;
      // Verification is independent per target, so it runs on the same
      // per-target groups: members sharing a target stay on one lane (the
      // backend memoizes the verdict per target, and concurrent verify of
      // one target would race on it). Outcome slots are per member.
      verify->verified += runs;
      if (runs > 0) {
        const int vw = pool_->width();
        pool_->run(
            [&](int lane) {
              for_lane_members(lane, vw, [&](std::size_t i) {
                if (!backend.abft_verify(*tasks[i], verify->rel_tol))
                  verify->outcome[i] = 1;
              });
            },
            "abft verify");
      }
      verify->verify_s += ver.seconds();
    }
  }

  real_t busy = 0;
  real_t span_max = 0;
  for (int l = 0; l < width; ++l) {
    const real_t lb = lane_busy_[static_cast<std::size_t>(l)];
    busy += lb;
    span_max = std::max(span_max, lb);
  }
  // The caller's CPU time minus its lane-0 share isolates the serial part
  // (grouping, ABFT planning and verification bookkeeping), which sits on
  // the critical path at any width.
  const real_t serial_s = std::max<real_t>(
      0.0, (thread_cpu_seconds() - caller_t0) - lane_busy_[0]);
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
