#include "core/sim_state.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace th::detail {

namespace {

std::uint64_t order_key(Policy policy, const TaskGraph& g, const Task& t) {
  switch (policy) {
    case Policy::kLevelPerTask: {
      // (DAG level, kernel type, id): SuperLU issues level by level,
      // grouping kernel types within a level.
      const std::uint64_t level = g.levels()[t.id];
      return (level << 34) |
             (static_cast<std::uint64_t>(t.type) << 30) |
             static_cast<std::uint64_t>(t.id);
    }
    case Policy::kDmdas: {
      // Locality first (more local producers = earlier), then urgency.
      index_t local = 0, remote = 0;
      auto [pb, pe] = g.predecessors(t.id);
      for (const index_t* p = pb; p != pe; ++p) {
        if (g.task(*p).owner_rank == t.owner_rank) {
          ++local;
        } else {
          ++remote;
        }
      }
      const std::uint64_t nonlocal =
          static_cast<std::uint64_t>(remote) * 64 /
          std::max<index_t>(1, local + remote);
      return (nonlocal << 50) |
             (static_cast<std::uint64_t>(t.diag_distance()) << 28) |
             static_cast<std::uint64_t>(t.id);
    }
    default:
      // Priority (diagonal-distance) order.
      return Prioritizer::priority_key(t);
  }
}

// Pop every entry of a rank's queues — arrivals first when asked, then the
// pool, the urgent heap and the Container — handing each id to `visit`.
template <class Visit>
void drain_queues(RankState& st, bool with_arrivals, Visit visit) {
  while (with_arrivals && !st.arrivals.empty()) {
    const index_t id = st.arrivals.top().id;
    st.arrivals.pop();
    visit(id);
  }
  for (MinHeap* q : {&st.pool, &st.urgent}) {
    while (!q->empty()) {
      const index_t id = q->top().second;
      q->pop();
      visit(id);
    }
  }
  while (!st.container.empty()) visit(st.container.pop());
}

// Predecessors of the leading `count` members that satisfy `keep`,
// deduplicated and ascending so pinning, reload and restore order are
// deterministic.
template <class Keep>
std::vector<index_t> inputs_where(const TaskGraph& g,
                                  const std::vector<index_t>& members,
                                  std::size_t count, Keep keep) {
  std::vector<index_t> in;
  for (std::size_t i = 0; i < count; ++i) {
    auto [pb, pe] = g.predecessors(members[i]);
    for (const index_t* pp = pb; pp != pe; ++pp) {
      if (keep(*pp)) in.push_back(*pp);
    }
  }
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  return in;
}

}  // namespace

SimState::SimState(const TaskGraph& graph_, const ScheduleOptions& opt_,
                   NumericBackend* backend_)
    : graph(graph_), opt(opt_), backend(backend_) {
  for (index_t id = 0; id < n; ++id) {
    eff_owner[id] = graph.task(id).owner_rank;
    TH_CHECK_MSG(eff_owner[id] >= 0 && eff_owner[id] < opt.n_ranks,
                 "task " << id << " owner " << eff_owner[id]
                         << " out of range");
  }
  for (RankState& r : ranks) {
    r.container = Container(opt.container);
    r.stream_free.assign(static_cast<std::size_t>(std::max(1, opt.n_streams)),
                         0.0);
  }
  // HEFT-style extension: priority = remaining critical-path length.
  // Normalise upward ranks into the top bits of the key (larger rank =>
  // smaller key => scheduled earlier), keeping the task id as a
  // deterministic tie-break.
  if (opt.prioritizer.metric == PrioritizerOptions::Metric::kCriticalPath) {
    const std::vector<offset_t>& rank = graph.upward_rank();
    const offset_t max_rank =
        std::max<offset_t>(graph.critical_path_flops(), 1);
    cp_key.resize(static_cast<std::size_t>(n));
    for (index_t t = 0; t < n; ++t) {
      const std::uint64_t scaled = static_cast<std::uint64_t>(
          (static_cast<__int128>(max_rank - rank[t]) * ((1ULL << 42) - 1)) /
          max_rank);
      cp_key[t] = (scaled << 22) | static_cast<std::uint64_t>(t & 0x3FFFFF);
    }
  }
  rstats.ranks.assign(n_ranks, RankStats{});
  // Same-timestamp failures apply in (time, rank, recovery) order — never
  // in container order — so two plans listing the same events in a
  // different order replay bit-identically (locked by a regression test).
  std::sort(failures.begin(), failures.end(), fault_order_less);
  rstats.abft.enabled = abft_mode;

  mstats.enabled = mem_mode;
  mstats.budget_bytes = mem_mode ? mopt.budget_bytes : 0;
  if (mem_mode) {
    // Pressure ramps replay in deterministic (time, rank, factor) order
    // regardless of plan listing order, like rank failures.
    pressures = plan.mem_pressure;
    std::sort(pressures.begin(), pressures.end(), mem_pressure_order_less);
  }
  if (spill_io) store = mem::TileStore(mopt.spill_dir);

  // A write pause as long as the cadence would stall the run in an endless
  // checkpoint storm (each pause pushes every launch past the next
  // checkpoint instant) — reject the configuration up front.
  TH_CHECK_MSG(!ckpt_mode || ckpt_interval > ckpt.write_cost_s,
               "checkpoint interval " << ckpt_interval
                                      << "s must exceed the write cost "
                                      << ckpt.write_cost_s << "s");
}

void SimState::seed() {
  for (index_t id = 0; id < n; ++id) {
    deps_left[id] = graph.in_degree(id);
    if (deps_left[id] == 0) enqueue_ready(id, 0.0);
  }
}

// The progress frontier at instant t_c; restore() reads back exactly these
// fields, so a resumed run replays bit-identically to the trace suffix of
// the run that captured it.
CheckpointState SimState::capture(real_t t_c) const {
  CheckpointState s;
  s.time_s = t_c;
  s.n_tasks = n;
  s.n_ranks = opt.n_ranks;
  s.n_streams = static_cast<int>(ranks[0].stream_free.size());
  s.done = task_done;
  s.finish_time = finish_time;
  s.owner = eff_owner;
  s.attempts = attempts.empty()
                   ? std::vector<int>(static_cast<std::size_t>(n), 0)
                   : attempts;
  for (index_t id = 0; id < n; ++id) {
    if (in_queue[id] != 0) s.pending.push_back({id, arrival_time[id]});
  }
  s.rank_dead = rank_dead;
  s.rank_cpu = rank_cpu;
  for (const RankState& st : ranks) {
    s.rank_free.push_back(st.rank_free);
    s.stream_free.insert(s.stream_free.end(), st.stream_free.begin(),
                         st.stream_free.end());
  }
  s.failures_applied = static_cast<index_t>(next_failure);
  s.numeric_pending = numeric_pending;
  s.report = freport;
  return s;
}

void SimState::restore(const CheckpointState& snap) {
  TH_CHECK_MSG(backend == nullptr,
               "resume replays timing only — pass a null backend");
  TH_CHECK_MSG(!snap.empty() && snap.n_tasks == n &&
                   snap.n_ranks == opt.n_ranks,
               "resume snapshot shape ("
                   << snap.n_tasks << " tasks, " << snap.n_ranks
                   << " ranks) does not match this run (" << n << " tasks, "
                   << opt.n_ranks << " ranks)");
  const std::size_t lanes = ranks[0].stream_free.size();
  TH_CHECK_MSG(snap.n_streams == static_cast<int>(lanes),
               "resume snapshot has " << snap.n_streams
                                      << " stream lanes per rank, this run has "
                                      << lanes);
  TH_CHECK_MSG(snap.numeric_pending.size() == numeric_pending.size() &&
                   snap.failures_applied <=
                       static_cast<index_t>(failures.size()),
               "resume snapshot was taken under a different fault plan");
  task_done = snap.done;
  finish_time = snap.finish_time;
  eff_owner = snap.owner;
  completed = static_cast<index_t>(
      std::count_if(task_done.begin(), task_done.end(),
                    [](char d) { return d != 0; }));
  if (!attempts.empty()) attempts = snap.attempts;
  rank_dead = snap.rank_dead;
  rank_cpu = snap.rank_cpu;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    ranks[r].rank_free = snap.rank_free[r];
    std::copy_n(snap.stream_free.begin() +
                    static_cast<std::ptrdiff_t>(r * lanes),
                lanes, ranks[r].stream_free.begin());
  }
  next_failure = static_cast<std::size_t>(snap.failures_applied);
  numeric_pending = snap.numeric_pending;
  freport = snap.report;
  recount_deps();
  for (const CheckpointState::Pending& p : snap.pending) {
    enqueue_ready(p.id, p.arrival_s);
  }
  last_ckpt = snap;
  // Re-derive the checkpoint cadence by the same repeated addition the
  // original run used, so the next capture lands on the identical double.
  if (ckpt_mode) {
    next_ckpt_t = ckpt_interval;
    while (next_ckpt_t <= snap.time_s) next_ckpt_t += ckpt_interval;
  }
  if (obs_on) {
    obs::Recorder::global().instant(
        obs::Domain::kSim, -1, "resume from checkpoint", "recovery",
        snap.time_s, "tasks_done", static_cast<std::int64_t>(completed));
  }
}

// Pick the rank able to launch earliest — after taking any checkpoint and
// applying any rank failure whose time has come, in event order
// (checkpoint first on ties, so a same-instant restart rolls back to it
// rather than past it). Failures move work between queues, so they must
// land before the launch decision.
std::pair<int, real_t> SimState::next_event() {
  for (;;) {
    int best_rank = -1;
    real_t best_time = kNever;
    for (int r = 0; r < opt.n_ranks; ++r) {
      const real_t t = next_launch_time(r);
      if (t < best_time) {
        best_time = t;
        best_rank = r;
      }
    }
    const real_t fail_t = next_failure < failures.size()
                              ? failures[next_failure].time_s
                              : kNever;
    if (ckpt_mode && std::min(best_time, fail_t) < kNever &&
        next_ckpt_t <= std::min(best_time, fail_t)) {
      take_checkpoint(next_ckpt_t);
      next_ckpt_t += ckpt_interval;
      continue;
    }
    if (next_failure < failures.size() && fail_t <= best_time) {
      process_failure(failures[next_failure]);
      ++next_failure;
      continue;
    }
    TH_CHECK_MSG(best_rank >= 0,
                 "deadlock: " << n - completed << " tasks unreachable");
    return {best_rank, best_time};
  }
}

// The throw frees every run-local structure by plain stack unwinding.
void check_cancel(const CancelToken* cancel, real_t t0, index_t completed,
                  bool obs_on) {
  if (cancel == nullptr) return;
  if (obs_on && (cancel->cancel_requested() || t0 >= cancel->deadline_s())) {
    obs::Recorder::global().instant(obs::Domain::kSim, -1, "cancelled",
                                    "serve", t0, "completed", completed);
  }
  cancel->check(t0);
}

// Every iteration polls, so a clean run's plan records every instant a
// replay must poll at, and where that iteration's members start.
void SimState::poll_cancel(real_t t0) {
  if (sched_plan != nullptr) {
    sched_plan->polls.push_back(t0);
    sched_plan->batch_ptr.push_back(
        static_cast<index_t>(sched_plan->ids.size()));
  }
  check_cancel(opt.cancel, t0, completed, obs_on);
}

// Coordinated checkpoint at instant t_c: every alive rank pauses for the
// write (after any in-flight kernel), then the progress frontier is
// snapshotted. Clocks are captured post-pause, so a resumed run replays
// without re-paying the write.
void SimState::take_checkpoint(real_t t_c) {
  int alive = 0;
  for (int r = 0; r < opt.n_ranks; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    if (rank_dead[rr]) continue;
    ++alive;
    if (mem_mode) {
      // The checkpoint writer stages the largest resident block through a
      // device-side bounce buffer; charge it so a budget sized to the bare
      // factor storage is caught rather than silently exceeded.
      mem::RankLedger& led = ledgers[rr];
      const offset_t stage = led.largest_resident_bytes();
      make_room(r, stage, "checkpoint staging buffer");
      led.budget().charge(stage);
      led.budget().release(stage);
    }
    ranks[rr].rank_free =
        std::max(ranks[rr].rank_free, t_c) + ckpt.write_cost_s;
    for (real_t& lane : ranks[rr].stream_free) {
      lane = std::max(lane, t_c) + ckpt.write_cost_s;
    }
  }
  ++freport.checkpoints_taken;
  freport.checkpoint_write_s += ckpt.write_cost_s * alive;
  if (obs_on) {
    obs::Recorder::global().instant(
        obs::Domain::kSim, -1, "checkpoint", "recovery", t_c, "tasks_done",
        static_cast<std::int64_t>(completed), "alive_ranks", alive);
  }
  last_ckpt = capture(t_c);
}

// Apply one rank failure: the GPU dies and pending work migrates to the
// survivors, the rank degrades to CPU-model execution, or it restarts from
// the last checkpoint.
void SimState::process_failure(const RankFailure& f) {
  const std::size_t fr = static_cast<std::size_t>(f.rank);
  if (rank_dead[fr] || rank_cpu[fr]) return;  // already degraded
  ++freport.ranks_failed;
  if (obs_on) {
    const char* what = f.recovery == RankRecovery::kCpuFallback
                           ? "rank failure: cpu-fallback"
                       : f.recovery == RankRecovery::kRestartFromCheckpoint
                           ? "rank failure: restart"
                           : "rank failure: migrate";
    obs::Recorder::global().instant(obs::Domain::kSim, f.rank, what,
                                    "recovery", f.time_s, "rank", f.rank);
  }
  if (f.recovery == RankRecovery::kCpuFallback) {
    rank_cpu[fr] = 1;  // keeps launching; priced on the CPU model
  } else if (f.recovery == RankRecovery::kRestartFromCheckpoint) {
    restart_rank(f);
  } else {
    migrate_rank(f);
  }
}

// kRestartFromCheckpoint: the rank reboots, reloads the last coordinated
// checkpoint (or rolls back to the initial state when none exists) and
// rejoins at full speed after a priced restore. Work it completed since
// that checkpoint is lost and re-executed; queue entries elsewhere whose
// dependencies reopen become stale and are dropped when popped.
void SimState::restart_rank(const RankFailure& f) {
  const std::size_t fr = static_cast<std::size_t>(f.rank);
  RankState& st = ranks[fr];
  // In-flight batches complete in this model (their consumers already
  // scheduled against those finish times), so the reboot+restore cannot
  // relaunch before they drain — otherwise the restarted rank would run
  // two kernels at once.
  real_t resume_t = std::max(f.time_s, st.rank_free);
  for (const real_t lane : st.stream_free) {
    resume_t = std::max(resume_t, lane);
  }
  resume_t += ckpt.restore_cost_s;
  ++freport.ranks_restarted;
  freport.restore_s += ckpt.restore_cost_s;
  // 1) Completions on this rank since the last checkpoint are gone.
  for (index_t id = 0; id < n; ++id) {
    if (!task_done[id] || eff_owner[id] != f.rank) continue;
    if (!last_ckpt.empty() && last_ckpt.done[id] != 0) continue;
    task_done[id] = 0;
    finish_time[id] = kNever;
    --completed;
    ++freport.tasks_restarted;
    // The rolled-back producer's factor block leaves the device; its
    // re-completion re-registers it (any spilled payload stays valid on
    // disk — the numerics themselves are not re-executed).
    if (mem_mode) ledgers[fr].remove_block(id);
    if (!done_app.empty() && done_app[id].first >= 0) {
      rstats.batches[static_cast<std::size_t>(done_app[id].first)]
          .status[static_cast<std::size_t>(done_app[id].second)] = 2;
    }
  }
  // 2) Re-derive readiness; entries whose dependencies reopened go stale.
  recount_deps();
  // 3) The rank's own queues do not survive the reboot.
  drain_queues(st, true, [&](index_t id) {
    if (stale_entries[id] > 0) {
      --stale_entries[id];
    } else {
      in_queue[id] = 0;
    }
  });
  // 4) Back online after the restore, its ready work re-queued behind
  //    re-shipped producer blocks (which may still be in flight at the
  //    failure instant).
  st.rank_free = resume_t;
  st.stream_free.assign(st.stream_free.size(), resume_t);
  for (index_t id = 0; id < n; ++id) {
    if (task_done[id] || eff_owner[id] != f.rank || deps_left[id] != 0) {
      continue;
    }
    enqueue_ready(id, ready_time(id, resume_t, false));
  }
}

// kMigrate: the rank is gone for good; its pending work moves to the
// survivors by re-running the block-cyclic owner map over them.
void SimState::migrate_rank(const RankFailure& f) {
  rank_dead[static_cast<std::size_t>(f.rank)] = 1;
  std::vector<int> survivors;
  for (int r = 0; r < opt.n_ranks; ++r) {
    if (!rank_dead[static_cast<std::size_t>(r)]) survivors.push_back(r);
  }
  TH_CHECK_MSG(!survivors.empty(), "every rank has failed by t=" << f.time_s);
  for (index_t id = 0; id < n; ++id) {
    if (task_done[id] || eff_owner[id] != f.rank) continue;
    const Task& t = graph.task(id);
    eff_owner[id] = remap_owner(t.row, t.col, survivors);
    ++freport.tasks_migrated;
  }
  // Requeue the dead rank's ready work on the new owners. The producing
  // blocks must be re-shipped (from each producer's rank — completed
  // producers on the dead rank re-send from its node's host checkpoint),
  // so the arrival is delayed by the slowest re-send — which cannot leave
  // before the producing batch itself has finished.
  drain_queues(ranks[static_cast<std::size_t>(f.rank)], true,
               [&](index_t id) {
                 if (entry_stale(id)) return;
                 enqueue_ready(id, ready_time(id, f.time_s, false));
               });
}

// Route a launchable task into its rank's policy pools: TH splits urgent
// work from the deferrable Container, the per-task policies keep one pool.
void SimState::route(RankState& st, index_t id) {
  const Task& task = graph.task(id);
  if (opt.policy != Policy::kTrojanHorse) {
    st.pool.push({order_key(opt.policy, graph, task), id});
  } else if (prioritizer.is_urgent(task)) {
    st.urgent.push({th_key(task), id});
  } else {
    st.container.push(th_key(task), id);
  }
}

// Move every arrival with time <= t into the rank's policy pools.
void SimState::drain_arrivals(RankState& st, real_t t) {
  while (!st.arrivals.empty() && st.arrivals.top().time <= t) {
    const index_t id = st.arrivals.top().id;
    st.arrivals.pop();
    if (!entry_stale(id)) route(st, id);
  }
}

// Earliest time rank r could launch its next kernel (for multi-stream, when
// its host thread is free); kNever if dead, or idle with nothing pending.
real_t SimState::next_launch_time(int r) const {
  if (rank_dead[static_cast<std::size_t>(r)]) return kNever;
  const RankState& st = ranks[static_cast<std::size_t>(r)];
  if (!st.urgent.empty() || !st.container.empty() || !st.pool.empty()) {
    return st.rank_free;
  }
  if (st.arrivals.empty()) return kNever;
  return std::max(st.rank_free, st.arrivals.top().time);
}

// deps_left = unfinished predecessors of every unfinished task. A queued
// entry whose dependencies reopened (a restart rolled a producer back) is
// marked stale.
void SimState::recount_deps() {
  for (index_t id = 0; id < n; ++id) {
    if (task_done[id]) continue;
    index_t d = 0;
    auto [pb, pe] = graph.predecessors(id);
    for (const index_t* pp = pb; pp != pe; ++pp) d += !task_done[*pp];
    deps_left[id] = d;
    if (d > 0 && track_pending && in_queue[id] != 0) {
      ++stale_entries[id];
      in_queue[id] = 0;
    }
  }
}

// When task `id` can start on its owner: the latest predecessor finish (no
// earlier than `floor`) plus the time to ship that block across ranks.
// `account` tallies each (producer, destination) transfer once into the
// result's comm totals.
real_t SimState::ready_time(index_t id, real_t floor, bool account) {
  const int dst = eff_owner[id];
  real_t ready = floor;
  auto [pb, pe] = graph.predecessors(id);
  for (const index_t* pp = pb; pp != pe; ++pp) {
    TH_ASSERT(finish_time[*pp] < kNever);
    real_t f = std::max(floor, finish_time[*pp]);
    const int src = eff_owner[*pp];
    if (src != dst) {
      const offset_t bytes = graph.task(*pp).out_bytes;
      f += comm_s(src, dst, bytes);
      if (account && comm_pairs
                         .insert(static_cast<std::uint64_t>(*pp) * n_ranks +
                                 static_cast<std::uint64_t>(dst))
                         .second) {
        result.comm_bytes += bytes;
        ++result.comm_messages;
      }
    }
    ready = std::max(ready, f);
  }
  return ready;
}

// Fill `b`, which arrives empty, with the next batch from `st`.
void SimState::form_batch(RankState& st, FormedBatch& b) {
  if (opt.cpu_mode) {
    // CPU solvers keep all cores busy with whatever is ready: consume the
    // whole pool in one task-parallel step (conflicting SSSSM updates are
    // reduced per-core, so no atomics are needed in the model; the host
    // runtime runs each target's members in batch order on one lane).
    drain_queues(st, false, [&](index_t id) {
      if (entry_stale(id)) return;
      if (track_pending) in_queue[id] = 0;
      b.ids.push_back(id);
    });
  } else if (opt.policy == Policy::kTrojanHorse) {
    aggregate(st, b);
  } else {
    // All per-task policies launch exactly one kernel per task. The pool
    // may hold only stale (restart-invalidated) entries, in which case the
    // batch comes back empty and the caller re-evaluates.
    while (!st.pool.empty()) {
      const index_t id = st.pool.top().second;
      st.pool.pop();
      if (entry_stale(id)) continue;
      if (track_pending) in_queue[id] = 0;
      b.ids.push_back(id);
      break;
    }
  }
  conflict_flags(b.ids, b.atomic);
}

// The paper's aggregate stage: urgent tasks straight from the Prioritizer,
// topped up from the Container until the Collector is full.
void SimState::aggregate(RankState& st, FormedBatch& b) {
  collector.clear();
  // With atomic batching off, a second SSSSM update of an admitted target
  // is deferred to a later batch instead of joining this one.
  std::unordered_set<std::uint64_t> targets;
  std::vector<index_t> deferred;
  auto admit = [&](index_t id) -> bool {
    const Task& t = graph.task(id);
    const bool serialise =
        !opt.allow_atomic_batching && t.type == TaskType::kSsssm;
    if (serialise && targets.count(t.target_key()) > 0) {
      deferred.push_back(id);
      ++result.deferred_tasks;
      return true;  // skipped but not "full"
    }
    if (!collector.try_add(t)) return false;
    if (track_pending) in_queue[id] = 0;
    if (serialise) targets.insert(t.target_key());
    return true;
  };

  // Phase 1: urgent tasks straight from the Prioritizer.
  while (!st.urgent.empty()) {
    const index_t id = st.urgent.top().second;
    if (!entry_stale(id) && !admit(id)) break;  // full; id stays urgent
    st.urgent.pop();
  }
  b.urgent = static_cast<int>(collector.size());
  // Phase 2: top up from the Container.
  while (!collector.full() && !st.container.empty()) {
    const index_t id = st.container.pop();
    if (entry_stale(id)) continue;
    if (!admit(id)) {
      st.container.push(th_key(graph.task(id)), id);
      break;
    }
  }
  b.ids.assign(collector.members().begin(), collector.members().end());
  b.topup = static_cast<int>(b.ids.size()) - b.urgent;
  b.deferred = static_cast<int>(deferred.size());
  b.close = collector.close_reason();
  for (index_t id : deferred) st.container.push(th_key(graph.task(id)), id);
}

// Per-member atomic flags: every SSSSM member whose target tile another
// SSSSM member of the batch also updates (paper §2.3). They feed the
// modelled accounting only (atomic_tasks, had_conflict); the host runs a
// target's members in batch order on one lane without them.
void SimState::conflict_flags(const std::vector<index_t>& ids,
                              std::vector<char>& atomic) {
  atomic.assign(ids.size(), 0);
  by_target.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Task& t = graph.task(ids[i]);
    if (t.type == TaskType::kSsssm) by_target.emplace_back(t.target_key(), i);
  }
  std::sort(by_target.begin(), by_target.end());
  for (std::size_t r = 1; r < by_target.size(); ++r) {
    if (by_target[r].first == by_target[r - 1].first) {
      atomic[by_target[r].second] = atomic[by_target[r - 1].second] = 1;
    }
  }
}

// Apply every capacity ramp whose time has come. Launch instants are
// non-decreasing, so calling this at each launch replays ramps in order.
void SimState::apply_pressure(real_t t) {
  while (next_pressure < pressures.size() &&
         pressures[next_pressure].time_s <= t) {
    const MemPressure& p = pressures[next_pressure++];
    for (int r = 0; r < opt.n_ranks; ++r) {
      if (p.rank != -1 && p.rank != r) continue;
      MemBudget& b = ledgers[static_cast<std::size_t>(r)].budget();
      b.set_capacity(static_cast<offset_t>(static_cast<real_t>(b.capacity()) *
                                           p.capacity_factor));
    }
    ++mstats.pressure_events;
    if (obs_on) {
      obs::Recorder::global().instant(
          obs::Domain::kSim, p.rank, "memory pressure", "mem", p.time_s,
          "factor_pct", static_cast<std::int64_t>(p.capacity_factor * 100));
    }
  }
}

// Evict the coldest unpinned factor block on `rank` out of core: release
// its bytes from the ledger and (when spilling I/O is armed) persist its
// payload to the tile store. Returns the bytes freed, 0 when nothing is
// evictable. The modelled transfer time lands in mstats.spill_s and, for
// callers on the launch path, in *stall.
offset_t SimState::spill_coldest(int rank, real_t* stall) {
  mem::RankLedger& led = ledgers[static_cast<std::size_t>(rank)];
  const index_t victim = led.coldest();
  if (victim < 0) return 0;
  const offset_t bytes = led.bytes_of(victim);
  led.mark_spilled(victim);
  if (spill_io && payload_out[victim] == 0) {
    std::vector<real_t> payload = backend->extract_block(graph.task(victim));
    if (!payload.empty()) {
      store.spill(victim, payload);
      payload_out[victim] = 1;
    }
  }
  ++mstats.tiles_spilled;
  mstats.bytes_spilled += bytes;
  const real_t spill_s = static_cast<real_t>(bytes) / mopt.spill_bw_bytes_per_s;
  mstats.spill_s += spill_s;
  if (stall != nullptr) *stall += spill_s;
  if (obs_on) {
    obs::Registry::global().counter("th.mem.spill_events").add(1);
  }
  return bytes;
}

// Fit `bytes` on `rank`, else spill cold tiles until they fit (adding the
// transfer time to *stall when given), else throw a typed OomError. A
// zero-byte request works off a capacity-ramp residue; its error reports
// the excess.
void SimState::make_room(int rank, offset_t bytes, const char* what,
                         real_t* stall) {
  MemBudget& b = ledgers[static_cast<std::size_t>(rank)].budget();
  while (!b.fits(bytes)) {
    if (mopt.policy == mem::MemPolicy::kSpill &&
        spill_coldest(rank, stall) > 0) {
      continue;
    }
    throw mem::OomError(rank, bytes > 0 ? bytes : b.used() - b.capacity(),
                        b.capacity(), b.used(), what);
  }
}

// Before the batch launches its rank must hold: the batch members'
// resident inputs (pinned; spilled ones reloaded at the modelled
// bandwidth), plus transient launch demand — output staging and ABFT
// snapshot+checksum buffers. When that does not fit the degradation
// ladder escalates: shrink the batch width, then spill cold tiles out of
// core, then fail with a typed OomError.
void SimState::reserve_memory(Launch& l) {
  if (!mem_mode || on_cpu_fallback(l.rank)) return;
  std::vector<index_t>& batch = l.batch.ids;
  mem::RankLedger& led = ledgers[static_cast<std::size_t>(l.rank)];
  // Tracked predecessor blocks the leading `keep` members read.
  auto input_set = [&](std::size_t keep) {
    return inputs_where(graph, batch, keep,
                        [&](index_t p) { return led.tracked(p); });
  };
  // Pins track the candidate width: only blocks the current width still
  // reads are immovable, so narrowing the batch frees the tail members'
  // inputs for eviction.
  const std::vector<index_t> all_inputs = input_set(batch.size());
  auto set_pins = [&](const std::vector<index_t>& in) {
    for (index_t id : all_inputs) led.unpin(id);
    for (index_t id : in) {
      if (!led.spilled(id)) led.pin(id);
    }
  };
  set_pins(all_inputs);
  // A capacity ramp may have left the ledger over its shrunken capacity;
  // work the residue off before admitting new demand.
  make_room(l.rank, 0, "working off a capacity-ramp residue", &l.mem_stall_s);
  // Injected transient allocation failure: the batch's first scratch
  // allocation fails once and the runtime reacts by evicting a cold tile
  // before retrying (absorbed when nothing is evictable).
  if (fault_mode && plan.mem_alloc_fail_prob > 0 &&
      mem_alloc_fails(plan, l.rank,
                      alloc_seq[static_cast<std::size_t>(l.rank)]++)) {
    ++mstats.alloc_failures;
    if (obs_on) {
      obs::Recorder::global().instant(obs::Domain::kSim, l.rank,
                                      "transient alloc failure", "mem", l.t0);
    }
    if (mopt.policy == mem::MemPolicy::kSpill) {
      spill_coldest(l.rank, &l.mem_stall_s);
    }
  }
  // Transient launch demand of the leading `keep` members.
  auto batch_demand = [&](std::size_t keep) -> offset_t {
    offset_t d = 0;
    for (std::size_t i = 0; i < keep; ++i) {
      const Task& t = graph.task(batch[i]);
      d += t.out_bytes;  // output staging for the launch
      // Conflicting members accumulate atomically, in place, on the
      // modelled GPU.
      if (abft_mode) {
        // Target snapshot plus row+column checksum vectors
        // (~2*sqrt(elems) doubles).
        d += t.out_bytes;
        d += static_cast<offset_t>(
            16.0 * std::sqrt(static_cast<real_t>(t.out_bytes) / 8.0));
      }
    }
    return d;
  };
  // The ladder picks the widest launch that fits: the spilled inputs the
  // width must reload plus its transient demand, beside what is already
  // resident. Narrowing the width shrinks both terms.
  std::size_t keep = batch.size();
  std::vector<index_t> inputs = all_inputs;
  auto resize = [&](std::size_t width) {
    keep = width;
    inputs = input_set(width);
    set_pins(inputs);
  };
  for (;;) {
    offset_t reload_bytes = 0;
    for (index_t id : inputs) {
      if (led.spilled(id)) reload_bytes += led.bytes_of(id);
    }
    l.mem_demand = batch_demand(keep);
    if (led.budget().fits(reload_bytes + l.mem_demand)) break;
    // Rung 1: narrow the batch — but never below half its width while
    // spilling is still available; paying eviction I/O beats degrading the
    // batching this whole design exists to preserve.
    const std::size_t min_keep =
        mopt.policy == mem::MemPolicy::kSpill
            ? std::max<std::size_t>(1, batch.size() / 2)
            : 1;
    if (mopt.policy != mem::MemPolicy::kFailFast && keep > min_keep) {
      resize(keep - 1);
      continue;
    }
    if (mopt.policy == mem::MemPolicy::kSpill) {
      // Rung 2: evict cold tiles. The eviction I/O is being paid anyway, so
      // recover the full batch width — the run narrows its batches only
      // once nothing is left to spill.
      if (spill_coldest(l.rank, &l.mem_stall_s) > 0) {
        resize(batch.size());
        continue;
      }
      if (keep > 1) {
        resize(keep - 1);  // nothing left to evict: narrow the rest of the way
        continue;
      }
    }
    throw mem::OomError(l.rank, reload_bytes + l.mem_demand,
                        led.budget().capacity(), led.budget().used(),
                        "batch launch working set");
  }
  // Reload the admitted width's spilled inputs at the modelled bandwidth
  // (the fits() above guaranteed the room).
  for (index_t id : inputs) {
    if (!led.spilled(id)) continue;
    const offset_t bytes = led.bytes_of(id);
    led.mark_resident(id, l.t0);
    led.pin(id);
    ++mstats.tiles_reloaded;
    mstats.bytes_reloaded += bytes;
    const real_t stall = static_cast<real_t>(bytes) / mopt.spill_bw_bytes_per_s;
    mstats.reload_s += stall;
    l.mem_stall_s += stall;
  }
  if (keep < batch.size()) {
    ++mstats.batch_shrinks;
    mstats.tasks_displaced += static_cast<offset_t>(batch.size() - keep);
    if (obs_on) {
      obs::Recorder::global().instant(
          obs::Domain::kSim, l.rank, "batch shrunk", "mem", l.t0, "kept",
          static_cast<std::int64_t>(keep), "displaced",
          static_cast<std::int64_t>(batch.size() - keep));
    }
    // Displaced members go back to the pools they came from and ride a
    // later batch.
    for (std::size_t i = keep; i < batch.size(); ++i) {
      if (track_pending) in_queue[batch[i]] = 1;
      route(*l.st, batch[i]);
    }
    batch.resize(keep);
    // Conflicts may have left with the tail; recompute atomic flags.
    conflict_flags(batch, l.batch.atomic);
  }
  // Any input whose authoritative payload sits in the tile store gets its
  // exact bytes restored before a member reads it — including producer
  // blocks owned by other ranks (host storage is shared).
  if (spill_io) {
    for (index_t id : inputs_where(graph, batch, batch.size(), [&](index_t p) {
           return payload_out[p] != 0;
         })) {
      backend->restore_block(graph.task(id), store.reload(id));
      payload_out[id] = 0;
    }
  }
  led.budget().charge(l.mem_demand);  // released after pricing
  for (index_t id : all_inputs) led.unpin(id);
  for (index_t id : inputs) {
    led.touch(id, l.t0);  // LRU freshness: these inputs were just read
  }
}

void SimState::record_aggregate(const Launch& l) const {
  if (!obs_on || opt.policy != Policy::kTrojanHorse || opt.cpu_mode) return;
  auto& rec = obs::Recorder::global();
  auto& reg = obs::Registry::global();
  const FormedBatch& b = l.batch;
  const auto depth = static_cast<std::int64_t>(l.st->container.size());
  rec.instant(obs::Domain::kSim, l.rank, "batch formed", "aggregate", l.t0,
              "urgent", b.urgent, "topup", b.topup);
  rec.instant(obs::Domain::kSim, l.rank, "container depth", "aggregate", l.t0,
              "depth", depth, "deferred", b.deferred);
  // Indexed by Collector::RejectReason: kNone, kCount, kBlocks, kShmem.
  static constexpr const char* kCloseEvent[] = {
      nullptr, "collector full: count", "collector full: blocks",
      "collector full: shmem"};
  static constexpr const char* kCloseCounter[] = {
      "th.agg.close_drained", "th.agg.close_count", "th.agg.close_blocks",
      "th.agg.close_shmem"};
  const auto close = static_cast<std::size_t>(b.close);
  if (kCloseEvent[close] != nullptr) {
    rec.instant(obs::Domain::kSim, l.rank, kCloseEvent[close], "aggregate",
                l.t0);
  }
  reg.counter(kCloseCounter[close]).add(1);
  reg.counter("th.agg.topup_tasks").add(b.topup);
  reg.counter("th.agg.deferred_conflicts").add(b.deferred);
  reg.histogram("th.agg.container_depth").record(static_cast<double>(depth));
  reg.histogram("th.sched.batch_size")
      .record(static_cast<double>(b.ids.size()));
}

// Decide transient kernel faults for this attempt *before* numerics run:
// faulted members are priced (the kernel ran and its results were
// discarded) but their numeric bodies are deferred to the retry, so every
// task's numerics still execute exactly once, in dependency order.
void SimState::decide_transients(Launch& l) {
  const std::vector<index_t>& batch = l.batch.ids;
  l.status.assign(batch.size(), 0);
  if (!fault_mode || !plan.has_transient()) return;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!transient_fault_fires(plan, batch[i], attempts[batch[i]],
                               graph.task(batch[i]).type)) {
      continue;
    }
    l.status[i] = 1;
    l.any_failed = true;
    ++freport.transient_faults;
    if (obs_on) {
      obs::Recorder::global().instant(obs::Domain::kSim, l.rank,
                                      "transient fault", "recovery", l.t0,
                                      "task", batch[i]);
    }
  }
}

void SimState::log_batch(const Launch& l) {
  const auto conflicted =
      std::count(l.batch.atomic.begin(), l.batch.atomic.end(), 1);
  result.atomic_tasks += conflicted;
  if (sched_plan != nullptr) {
    sched_plan->ids.insert(sched_plan->ids.end(), l.batch.ids.begin(),
                           l.batch.ids.end());
  }
  if (!collect) return;
  BatchLog::Batch& blog = rstats.batches.batches.emplace_back();
  blog.members = l.batch.ids;
  blog.had_conflict = conflicted > 0;
  blog.status = l.status;  // a restart may later flip entries to 2
}

// Plant pending numeric corruptions: guard-visible kinds go into the target
// before it runs; silent (ABFT) kinds are deferred to the runtime, which
// plants them after the kernels wrote their output but before checksum
// verification. A corruption on a crashing attempt stays pending — the
// retry would wipe it anyway. At most one corruption lands on a member per
// attempt: two on one target would share one verdict (or cancel out), so
// the rest stay pending for the ABFT retry.
void SimState::plant_corruptions(Launch& l) {
  l.bv.abft = abft_mode;
  l.bv.rel_tol = opt.abft.rel_tol;
  if (!fault_mode || backend == nullptr || plan.numeric_faults.empty()) return;
  const std::vector<index_t>& batch = l.batch.ids;
  std::vector<char> planted(batch.size(), 0);
  for (std::size_t f = 0; f < plan.numeric_faults.size(); ++f) {
    if (!numeric_pending[f]) continue;
    const NumericFault& nf = plan.numeric_faults[f];
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i] != nf.task_id) continue;
      if (l.status[i] == 1 || planted[i]) break;  // pending for the retry
      planted[i] = 1;
      if (silent_fault_kind(nf.kind)) {
        l.bv.sabotage.emplace_back(i, nf.kind);
      } else if (backend->inject_fault(graph.task(batch[i]), nf.kind)) {
        ++freport.numeric_faults_injected;
      }
      numeric_pending[f] = 0;
      break;
    }
  }
}

// Execute numerics (host) and price the launch (model).
BatchResult SimState::execute(Launch& l) {
  const std::vector<index_t>& batch = l.batch.ids;
  ExecuteOptions eo;
  if (l.any_failed) eo.skip_numeric = &l.status;
  std::vector<char> skip_rerun;  // restart re-executions: time, no numerics
  if (!numerics_ran.empty()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!numerics_ran[batch[i]]) continue;
      if (skip_rerun.empty()) skip_rerun = l.status;
      skip_rerun[i] = 1;
    }
    if (!skip_rerun.empty()) eo.skip_numeric = &skip_rerun;
  }
  eo.run_guards = fault_mode && plan.numeric_guards && backend != nullptr;
  eo.guard = plan.guard;
  if (l.verified()) eo.verify = &l.bv;
  const BatchResult br = executor.execute(graph, batch, eo);
  if (br.guards.fired()) {
    freport.guards.merge(br.guards);
    freport.escalate_refinement = true;
  }
  return br;
}

// ABFT outcome processing: detect -> retry -> escalate.
void SimState::settle_abft(Launch& l) {
  const std::vector<index_t>& batch = l.batch.ids;
  const exec::BatchVerify& bv = l.bv;
  if (l.verified()) {
    freport.numeric_faults_injected += bv.sabotaged;
    rstats.abft.silent_injected += bv.sabotaged;
    rstats.abft.tasks_verified += bv.verified;
    rstats.abft.capture_s += bv.capture_s;
    rstats.abft.verify_s += bv.verify_s;
    // Silent corruption planted without the checksum layer armed is, by
    // construction, never caught — record it as fatal so the fault balance
    // (injected == handled + fatal) still closes.
    if (!abft_mode) freport.fatal_faults += bv.sabotaged;
  }
  if (abft_mode && !bv.outcome.empty()) {
    // Group corrupt members by target tile: SSSSM members sharing a corrupt
    // target share one verdict and one rollback, and they must all re-run
    // (a re-run member's update would otherwise be lost for the others).
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (bv.outcome[i]) groups[graph.task(batch[i]).target_key()].push_back(i);
    }
    for (const auto& [tk, members] : groups) {
      bool any_within = false;
      for (const std::size_t i : members) {
        if (++abft_attempts[batch[i]] <= abft_budget) any_within = true;
      }
      rstats.abft.corrupt_detected += static_cast<offset_t>(members.size());
      if (any_within) {
        backend->abft_rollback(graph.task(batch[members.front()]));
        for (const std::size_t i : members) {
          l.status[i] = 3;
          ++rstats.abft.retries;
          ++freport.abft_corrected;
        }
        if (obs_on) {
          obs::Recorder::global().instant(
              obs::Domain::kSim, l.rank, "abft rollback", "recovery", l.t0,
              "members", static_cast<std::int64_t>(members.size()), "task",
              batch[members.front()]);
        }
      } else {
        // Budget spent on every member touching this target: accept the
        // corrupt output and flag post-solve iterative refinement as the
        // last rung of the escalation ladder.
        rstats.abft.exhausted += static_cast<offset_t>(members.size());
        freport.abft_corrected += static_cast<offset_t>(members.size());
        freport.escalate_refinement = true;
        if (obs_on) {
          obs::Recorder::global().instant(
              obs::Domain::kSim, l.rank, "abft budget exhausted", "recovery",
              l.t0, "members", static_cast<std::int64_t>(members.size()));
        }
      }
    }
  }
  if (abft_mode) backend->abft_reset();
  if (!numerics_ran.empty()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (l.status[i] == 0) numerics_ran[batch[i]] = 1;
    }
  }
}

void SimState::price(Launch& l, const BatchResult& br) {
  RankState& st = *l.st;
  const std::size_t width = l.batch.ids.size();
  // Spill/reload transfers stall the launch; with no budget the stall is
  // identically zero and t_launch == t0 (bit-identical off switch).
  const real_t t_launch = mem_mode ? l.t0 + l.mem_stall_s : l.t0;
  real_t start = t_launch, end = t_launch;
  real_t host_share = br.host_s;
  if (opt.cpu_mode || on_cpu_fallback(l.rank)) {
    std::vector<TaskCost> costs;
    costs.reserve(width);
    for (index_t id : l.batch.ids) costs.push_back(graph.task(id).cost);
    end = start + cpu_batch_seconds(opt.cpu, costs);
    host_share = 0;  // CPU model folds dispatch into the step itself
    st.rank_free = end;
    if (!opt.cpu_mode) {
      // Degraded-mode execution: the rank's GPU is dead but the node keeps
      // computing on its host CPU.
      freport.cpu_fallback_tasks += static_cast<offset_t>(width);
    }
  } else if (opt.policy == Policy::kMultiStream) {
    // Host serialises launches; kernels overlap across streams.
    const real_t launch_s = opt.cluster.gpu.launch_latency_us * 1e-6;
    const real_t host_done = t_launch + launch_s;
    auto it = std::min_element(st.stream_free.begin(), st.stream_free.end());
    start = std::max(host_done, *it);
    end = start + std::max<real_t>(br.seconds - launch_s, 0);
    host_share = std::max<real_t>(br.host_s - launch_s, 0);
    *it = end;
    st.rank_free = host_done;  // host is free to launch the next kernel
  } else {
    end = start + br.seconds;
    st.rank_free = end;
  }
  l.end = end;

  result.trace.record(
      {l.rank, start, end, host_share, br.flops, static_cast<int>(width)});
  RankStats& rs = rstats.ranks[static_cast<std::size_t>(l.rank)];
  ++rs.kernels;
  rs.busy_s += end - start;
  rs.flops += br.flops;
  if (mem_mode && l.mem_demand > 0) {
    // The launch's transient demand drains; the members' factor blocks are
    // registered permanently at completion.
    ledgers[static_cast<std::size_t>(l.rank)].budget().release(l.mem_demand);
  }
}

// Completion: faulted and rolled-back members schedule their retry with
// exponential backoff priced into the timeline; the rest finish and, with a
// memory budget, register their factor block.
void SimState::complete(const Launch& l) {
  const bool track_mem = mem_mode && !on_cpu_fallback(l.rank);
  for (std::size_t i = 0; i < l.batch.ids.size(); ++i) {
    const index_t id = l.batch.ids[i];
    if (l.status[i] != 0) {
      // A transient fault, or corrupt output whose target ABFT rolled back:
      // re-run the task after the same exponential backoff.
      const bool transient = l.status[i] == 1;
      const int att = transient ? ++attempts[id] : abft_attempts[id];
      if (transient) {
        TH_CHECK_MSG(att <= plan.max_retries,
                     "task " << id << " ("
                             << task_type_name(graph.task(id).type)
                             << ") exhausted its retry budget of "
                             << plan.max_retries << " after " << att
                             << " transient faults");
        ++freport.retries;
      }
      const real_t backoff = plan.backoff_s(att);
      freport.backoff_delay_s += backoff;
      enqueue_ready(id, l.end + backoff);
      continue;
    }
    finish_time[id] = l.end;
    task_done[id] = 1;
    ++completed;
    // The completed task's factor block becomes permanently resident on its
    // rank (SSSSM updates an already-counted block in place).
    const offset_t fb = track_mem ? mem::factor_bytes(graph.task(id)) : 0;
    if (fb > 0) {
      mem::RankLedger& led = ledgers[static_cast<std::size_t>(l.rank)];
      if (!led.tracked(id)) {
        make_room(l.rank, fb, "registering a completed factor block");
      }
      led.add_block(id, fb, l.end);
    }
    if (!done_app.empty()) {
      done_app[id] = {static_cast<index_t>(rstats.batches.size() - 1),
                      static_cast<index_t>(i)};
    }
  }
}

// Wake the successors of every surviving member; the last producer to
// finish releases a consumer at max(finish + comm).
void SimState::wake_successors(const Launch& l) {
  for (std::size_t i = 0; i < l.batch.ids.size(); ++i) {
    if (l.status[i] != 0) continue;
    auto [sb, se] = graph.successors(l.batch.ids[i]);
    for (const index_t* sp = sb; sp != se; ++sp) {
      const index_t c = *sp;
      // A restarted producer re-completes; consumers that finished before
      // the failure already got its data the first time around.
      if (restart_mode && task_done[c]) continue;
      if (--deps_left[c] > 0) continue;
      enqueue_ready(c, ready_time(c, 0, true));
    }
  }
}

// Snapshots reconcile with the ScheduleResult by construction (DESIGN.md
// §12 lists the name mapping).
void publish_result_metrics(const ScheduleResult& r, index_t n_tasks,
                            bool numeric) {
  auto& reg = obs::Registry::global();
  reg.counter("th.sched.kernels").add(r.kernel_count);
  reg.counter("th.sched.tasks").add(n_tasks);
  reg.counter("th.sched.atomic_tasks").add(r.atomic_tasks);
  reg.counter("th.sched.deferred_tasks").add(r.deferred_tasks);
  reg.counter("th.sched.comm_bytes").add(r.comm_bytes);
  reg.counter("th.sched.comm_messages").add(r.comm_messages);
  reg.gauge("th.sched.makespan_s").set(r.makespan_s);
  reg.gauge("th.sched.mean_batch_size").set(r.mean_batch_size);
  for (const RankStats& rsr : r.stats().ranks) {
    reg.histogram("th.rank.busy_s").record(rsr.busy_s);
    reg.histogram("th.rank.kernels").record(static_cast<double>(rsr.kernels));
  }
  r.stats().faults.publish_metrics();
  r.stats().abft.publish_metrics();
  // Only runs that execute numerics report th.exec.*: a timing-only run
  // must not overwrite a factor run's gauges.
  if (numeric) r.stats().exec.publish_metrics();
  r.stats().mem.publish_metrics();
}

ScheduleResult SimState::finish() {
  result.makespan_s = result.trace.makespan_seconds();
  result.kernel_count = result.trace.kernel_count();
  result.mean_batch_size = result.trace.mean_batch_size();
  rstats.checkpoint = std::move(last_ckpt);
  rstats.exec = executor.exec_stats();

  if (mem_mode) {
    for (const mem::RankLedger& led : ledgers) {
      mstats.high_water_bytes =
          std::max(mstats.high_water_bytes, led.budget().high_water());
      mstats.allocs += led.budget().allocs();
      mstats.frees += led.budget().frees();
    }
    if (spill_io) {
      // Blocks still cold at the end of the factorization stream back in
      // for the solve phase; restoring them here proves every spilled
      // payload round-trips byte-exact through the THTS store.
      for (index_t id = 0; id < n; ++id) {
        if (payload_out[id] == 0) continue;
        backend->restore_block(graph.task(id), store.reload(id));
        payload_out[id] = 0;
      }
    }
  }

  if (obs_on) {
    publish_result_metrics(result, n, backend != nullptr);
    std::size_t container_peak = 0;
    for (const RankState& st : ranks) {
      container_peak = std::max(container_peak, st.container.peak_size());
    }
    auto& reg = obs::Registry::global();
    reg.gauge("th.agg.container_peak").set(static_cast<double>(container_peak));
    if (mem_mode) {
      for (const mem::RankLedger& led : ledgers) {
        reg.histogram("th.mem.rank_high_water_bytes")
            .record(static_cast<double>(led.budget().high_water()));
      }
    }
  }
  return std::move(result);
}

}  // namespace th::detail
