#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "mem/tile_store.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "resilience/validate.hpp"
#include "support/error.hpp"

namespace th {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kLevelPerTask:
      return "level-per-task";
    case Policy::kPriorityPerTask:
      return "priority-per-task";
    case Policy::kMultiStream:
      return "multi-stream";
    case Policy::kDmdas:
      return "dmdas";
    case Policy::kTrojanHorse:
      return "trojan-horse";
  }
  return "?";
}

namespace {

constexpr real_t kNever = 1e300;

using KeyedEntry = std::pair<std::uint64_t, index_t>;  // (sort key, task id)
using MinHeap =
    std::priority_queue<KeyedEntry, std::vector<KeyedEntry>, std::greater<>>;

// Arrival queue entry: task becomes launchable on its rank at this time.
struct Arrival {
  real_t time;
  index_t id;
  bool operator>(const Arrival& o) const {
    if (time != o.time) return time > o.time;
    return id > o.id;
  }
};
using ArrivalHeap =
    std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>>;

// Per-rank scheduling state.
struct RankState {
  ArrivalHeap arrivals;
  // Non-TH policies: one ordered pool. TH: urgent pool + Container.
  MinHeap pool;
  MinHeap urgent;
  Container container{Container::Discipline::kHeap};
  std::size_t container_size = 0;  // mirrors container (it has size(), kept
                                   // for clarity of pending_count)
  real_t rank_free = 0;            // device (or host, for multi-stream) time
  std::vector<real_t> stream_free; // kMultiStream lanes

  std::size_t pending_count(Policy p) const {
    if (p == Policy::kTrojanHorse) {
      return urgent.size() + container.size();
    }
    return pool.size();
  }
};

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

}  // namespace

// Reject garbage configurations up front instead of producing garbage
// timelines (or dividing by zero deep inside the comm model).
void ScheduleOptions::validate() const {
  const ScheduleOptions& opt = *this;
  TH_CHECK_MSG(opt.n_ranks >= 1, "n_ranks must be >= 1, got " << opt.n_ranks);
  TH_CHECK_MSG(opt.n_streams >= 1,
               "n_streams must be >= 1, got " << opt.n_streams);
  // Bounded above as well: a worker is an OS thread, and a thread count in
  // the thousands is a mistyped flag, not a machine.
  TH_CHECK_MSG(opt.exec.workers >= 1 && opt.exec.workers <= 256,
               "exec.workers must be in [1, 256], got " << opt.exec.workers);
  const ClusterSpec& c = opt.cluster;
  TH_CHECK_MSG(c.gpus_per_node >= 1,
               "cluster '" << c.name << "' needs gpus_per_node >= 1");
  TH_CHECK_MSG(c.intra_node_bw_bps > 0 && c.inter_node_bw_bps > 0,
               "cluster '" << c.name << "' has non-positive link bandwidth ("
                           << c.intra_node_bw_bps << " intra, "
                           << c.inter_node_bw_bps << " inter)");
  TH_CHECK_MSG(c.intra_node_latency_s >= 0 && c.inter_node_latency_s >= 0,
               "cluster '" << c.name << "' has negative link latency");
  TH_CHECK_MSG(c.gpu.sm_count >= 1 && c.gpu.max_blocks_per_sm >= 1,
               "device '" << c.gpu.name << "' has no resident blocks");
  if (opt.cpu_mode) {
    TH_CHECK_MSG(opt.cpu.cores >= 1,
                 "cpu_mode needs cpu.cores >= 1, got " << opt.cpu.cores);
  }
  opt.faults.validate(opt.n_ranks);
  opt.checkpoint.validate();
  opt.abft.validate();
  opt.mem.validate();
  // A checkpoint snapshot carries no memory-ledger or spill-set state, so
  // a budgeted run cannot resume mid-stream — rerun it from t=0 instead.
  TH_CHECK_MSG(!(opt.resume.has_value() && opt.mem.enabled()),
               "resume and a memory budget cannot be combined: snapshots "
               "carry no ledger/spill state");
  TH_CHECK_MSG(opt.exec.watchdog_s >= 0,
               "exec.watchdog_s must be >= 0, got " << opt.exec.watchdog_s);
}

ScheduleResult simulate(const TaskGraph& graph, const ScheduleOptions& opt,
                        NumericBackend* backend) {
  TH_CHECK_MSG(graph.finalized(), "simulate() requires a finalized graph");
  opt.validate();
  const index_t n = graph.size();

  const Prioritizer prioritizer(opt.prioritizer);
  KernelCostModel model(opt.cluster.gpu);
  Executor executor(model, backend, opt.exec);

  // One observability gate per run: with the switch off every
  // instrumentation site below folds to a dead branch and the simulated
  // output is bit-identical to an uninstrumented build.
  const bool obs_on = obs::enabled();

  std::vector<RankState> ranks(static_cast<std::size_t>(opt.n_ranks));
  for (auto& r : ranks) {
    r.container = Container(opt.container);
    r.stream_free.assign(
        static_cast<std::size_t>(std::max(1, opt.n_streams)), 0.0);
  }

  std::vector<index_t> deps_left(static_cast<std::size_t>(n), 0);
  std::vector<real_t> finish_time(static_cast<std::size_t>(n), kNever);

  // HEFT-style extension: priority = remaining critical-path length.
  // Normalise upward ranks into the top bits of the key (larger rank =>
  // smaller key => scheduled earlier), keeping the task id as a
  // deterministic tie-break.
  std::vector<std::uint64_t> cp_key;
  if (opt.prioritizer.metric == PrioritizerOptions::Metric::kCriticalPath) {
    const std::vector<offset_t>& rank = graph.upward_rank();
    const offset_t max_rank = std::max<offset_t>(
        graph.critical_path_flops(), 1);
    cp_key.resize(static_cast<std::size_t>(n));
    for (index_t t = 0; t < n; ++t) {
      const std::uint64_t scaled = static_cast<std::uint64_t>(
          (static_cast<__int128>(max_rank - rank[t]) * ((1ULL << 42) - 1)) /
          max_rank);
      cp_key[t] = (scaled << 22) | static_cast<std::uint64_t>(t & 0x3FFFFF);
    }
  }
  auto th_key = [&](const Task& t) {
    return cp_key.empty() ? prioritizer.key(t) : cp_key[t.id];
  };

  ScheduleResult result;
  ScheduleStats& rstats = result.stats();
  rstats.ranks.assign(static_cast<std::size_t>(opt.n_ranks), RankStats{});
  std::unordered_set<std::uint64_t> comm_pairs;  // (producer, dest rank)

  // ---- Fault-model state -----------------------------------------------
  const FaultPlan& plan = opt.faults;
  const bool fault_mode = !plan.empty();
  FaultReport& freport = rstats.faults;
  // Effective owner of each task; rank-death migration rewrites entries
  // (fault-free runs never touch it, so routing is byte-identical).
  std::vector<int> eff_owner(static_cast<std::size_t>(n));
  for (index_t id = 0; id < n; ++id) {
    const int owner = graph.task(id).owner_rank;
    TH_CHECK_MSG(owner >= 0 && owner < opt.n_ranks,
                 "task " << id << " owner " << owner << " out of range");
    eff_owner[id] = owner;
  }
  std::vector<int> attempts;  // failed execution attempts per task
  if (fault_mode && plan.has_transient()) {
    attempts.assign(static_cast<std::size_t>(n), 0);
  }
  std::vector<char> task_done(static_cast<std::size_t>(n), 0);
  std::vector<char> rank_dead(static_cast<std::size_t>(opt.n_ranks), 0);
  std::vector<char> rank_cpu(static_cast<std::size_t>(opt.n_ranks), 0);
  std::vector<RankFailure> failures = plan.rank_failures;
  // Same-timestamp failures apply in (time, rank, recovery) order — never
  // in container order — so two plans listing the same events in a
  // different order replay bit-identically (fault_order_less; locked by a
  // regression test).
  std::sort(failures.begin(), failures.end(), fault_order_less);
  std::size_t next_failure = 0;
  // One-shot consumption markers for planted numeric corruptions.
  std::vector<char> numeric_pending(plan.numeric_faults.size(), 1);

  // ---- ABFT state (src/abft) -------------------------------------------
  // Checksum protection only makes sense when numerics actually execute;
  // on timing-only replays the option is inert.
  const bool abft_mode = opt.abft.enabled && backend != nullptr;
  const int abft_budget =
      opt.abft.max_retries >= 0 ? opt.abft.max_retries : plan.max_retries;
  rstats.abft.enabled = abft_mode;
  std::vector<int> abft_attempts;  // corrupt re-runs per task
  if (abft_mode) abft_attempts.assign(static_cast<std::size_t>(n), 0);

  // ---- Memory-model state (src/mem, DESIGN.md §13) ---------------------
  // With no budget every site below is a dead branch and the run takes the
  // exact unaccounted path (zero-overhead off switch). CPU-mode runs have
  // no device memory to model.
  const mem::MemOptions& mopt = opt.mem;
  const bool mem_mode = mopt.enabled() && !opt.cpu_mode;
  mem::MemStats& mstats = rstats.mem;
  mstats.enabled = mem_mode;
  mstats.budget_bytes = mem_mode ? mopt.budget_bytes : 0;
  std::vector<mem::RankLedger> ledgers;
  if (mem_mode) {
    ledgers.reserve(static_cast<std::size_t>(opt.n_ranks));
    for (int r = 0; r < opt.n_ranks; ++r) {
      ledgers.emplace_back(mopt.budget_bytes);
    }
  }
  // Payload spilling needs somewhere to write and a backend to extract
  // from; otherwise evictions are priced in the model only.
  const bool spill_io =
      mem_mode && !mopt.spill_dir.empty() && backend != nullptr;
  mem::TileStore store =
      spill_io ? mem::TileStore(mopt.spill_dir) : mem::TileStore();
  std::vector<char> payload_out;  // block's authoritative payload on disk
  if (spill_io) payload_out.assign(static_cast<std::size_t>(n), 0);
  // Pressure ramps replay in deterministic (time, rank, factor) order
  // regardless of plan listing order, like rank failures.
  std::vector<MemPressure> pressures;
  std::size_t next_pressure = 0;
  std::vector<offset_t> alloc_seq;  // per-rank batch-allocation counters
  if (mem_mode) {
    pressures = plan.mem_pressure;
    std::sort(pressures.begin(), pressures.end(), mem_pressure_order_less);
    alloc_seq.assign(static_cast<std::size_t>(opt.n_ranks), 0);
  }

  // Apply every capacity ramp whose time has come. Launch instants are
  // non-decreasing, so calling this at each launch replays ramps in order.
  auto apply_pressure = [&](real_t t) {
    while (next_pressure < pressures.size() &&
           pressures[next_pressure].time_s <= t) {
      const MemPressure& p = pressures[next_pressure++];
      for (int r = 0; r < opt.n_ranks; ++r) {
        if (p.rank != -1 && p.rank != r) continue;
        MemBudget& b = ledgers[static_cast<std::size_t>(r)].budget();
        b.set_capacity(static_cast<offset_t>(
            static_cast<real_t>(b.capacity()) * p.capacity_factor));
      }
      ++mstats.pressure_events;
      if (obs_on) {
        obs::Recorder::global().instant(
            obs::Domain::kSim, p.rank, "memory pressure", "mem", p.time_s,
            "factor_pct",
            static_cast<std::int64_t>(p.capacity_factor * 100));
      }
    }
  };

  // Evict the coldest unpinned factor block on `rank` out of core: release
  // its bytes from the ledger and (when spilling I/O is armed) persist its
  // payload to the tile store. Returns the bytes freed, 0 when nothing is
  // evictable. The modelled transfer time lands in mstats.spill_s; callers
  // on the launch path also stall the batch by it.
  auto spill_coldest = [&](int rank) -> offset_t {
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
    mstats.spill_s += static_cast<real_t>(bytes) / mopt.spill_bw_bytes_per_s;
    if (obs_on) {
      obs::Registry::global().counter("th.mem.spill_events").add(1);
    }
    return bytes;
  };

  // ---- Checkpoint/restart state (src/resilience) -----------------------
  const CheckpointPolicy& ckpt = opt.checkpoint;
  const real_t ckpt_interval = ckpt.effective_interval_s(plan);
  const bool ckpt_mode = ckpt.enabled() && ckpt_interval > 0;
  // A write pause as long as the cadence would stall the run in an
  // endless checkpoint storm (each pause pushes every launch past the
  // next checkpoint instant) — reject the configuration up front.
  TH_CHECK_MSG(!ckpt_mode || ckpt_interval > ckpt.write_cost_s,
               "checkpoint interval " << ckpt_interval
                                      << "s must exceed the write cost "
                                      << ckpt.write_cost_s << "s");
  bool restart_mode = opt.resume.has_value();
  for (const RankFailure& f : failures) {
    restart_mode |= f.recovery == RankRecovery::kRestartFromCheckpoint;
  }
  // Pending-arrival bookkeeping, maintained only when a checkpoint could
  // be captured or a restart could invalidate queue entries — the
  // fault-free path stays byte-identical to a build without it.
  const bool track_pending = ckpt_mode || restart_mode;
  std::vector<real_t> arrival_time;
  std::vector<char> in_queue;
  std::vector<index_t> stale_entries;  // invalidated entries still queued
  if (track_pending) {
    arrival_time.assign(static_cast<std::size_t>(n), 0.0);
    in_queue.assign(static_cast<std::size_t>(n), 0);
    stale_entries.assign(static_cast<std::size_t>(n), 0);
  }
  CheckpointState last_ckpt;  // empty until the first capture / resume
  real_t next_ckpt_t = ckpt_mode ? ckpt_interval : kNever;

  const bool collect = opt.collect_batches || opt.validate_schedule;
  // Where each completed task's surviving trace appearance lives — the
  // retroactive lost-to-restart status flip targets it. (batch, member)
  std::vector<std::pair<index_t, index_t>> done_app;
  if (collect && restart_mode) {
    done_app.assign(static_cast<std::size_t>(n), {index_t{-1}, index_t{-1}});
  }
  // Host memory is the durable store behind the simulated checkpoints: a
  // restarted rank re-executes lost tasks in the *timeline*, but their
  // numeric effects already landed (the checkpointed numeric frontier), so
  // re-running them through the backend would double-apply updates.
  std::vector<char> numerics_ran;
  if (restart_mode && backend != nullptr) {
    numerics_ran.assign(static_cast<std::size_t>(n), 0);
  }

  // Communication pricing with the fault model's per-node-pair bandwidth
  // derate applied (1.0 on healthy links).
  auto comm_s = [&](int src, int dst, offset_t bytes) {
    const real_t derate =
        fault_mode ? plan.link_bw_factor(opt.cluster.node_of(src),
                                         opt.cluster.node_of(dst))
                   : 1.0;
    return opt.cluster.comm_seconds(src, dst, bytes, derate);
  };

  // Route a now-ready task to its (effective) owner's queues.
  auto enqueue_ready = [&](index_t id, real_t when) {
    if (track_pending) {
      arrival_time[id] = when;
      in_queue[id] = 1;
    }
    ranks[static_cast<std::size_t>(eff_owner[id])].arrivals.push({when, id});
  };

  // A restart reopens dependencies of already-queued tasks; their stale
  // queue entries are dropped unseen the moment they are popped.
  auto entry_stale = [&](index_t id) -> bool {
    if (!restart_mode || stale_entries[id] == 0) return false;
    --stale_entries[id];
    return true;
  };

  index_t completed = 0;
  if (opt.resume.has_value()) {
    // Restore the snapshot: the remaining schedule replays bit-identically
    // to the trace suffix of the run that captured it.
    const CheckpointState& snap = *opt.resume;
    TH_CHECK_MSG(backend == nullptr,
                 "resume replays timing only — pass a null backend");
    TH_CHECK_MSG(!snap.empty() && snap.n_tasks == n &&
                     snap.n_ranks == opt.n_ranks,
                 "resume snapshot shape (" << snap.n_tasks << " tasks, "
                                           << snap.n_ranks
                                           << " ranks) does not match this "
                                              "run ("
                                           << n << " tasks, " << opt.n_ranks
                                           << " ranks)");
    TH_CHECK_MSG(
        snap.n_streams == static_cast<int>(ranks[0].stream_free.size()),
        "resume snapshot has " << snap.n_streams
                               << " stream lanes per rank, this run has "
                               << ranks[0].stream_free.size());
    TH_CHECK_MSG(snap.numeric_pending.size() == numeric_pending.size() &&
                     snap.failures_applied <=
                         static_cast<index_t>(failures.size()),
                 "resume snapshot was taken under a different fault plan");
    for (index_t id = 0; id < n; ++id) {
      task_done[id] = snap.done[id];
      finish_time[id] = snap.finish_time[id];
      eff_owner[id] = snap.owner[id];
      if (task_done[id] != 0) ++completed;
    }
    if (!attempts.empty()) attempts = snap.attempts;
    for (int r = 0; r < opt.n_ranks; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      rank_dead[rr] = snap.rank_dead[rr];
      rank_cpu[rr] = snap.rank_cpu[rr];
      ranks[rr].rank_free = snap.rank_free[rr];
      for (std::size_t l = 0; l < ranks[rr].stream_free.size(); ++l) {
        ranks[rr].stream_free[l] =
            snap.stream_free[rr * ranks[rr].stream_free.size() + l];
      }
    }
    next_failure = static_cast<std::size_t>(snap.failures_applied);
    numeric_pending = snap.numeric_pending;
    freport = snap.report;
    for (index_t id = 0; id < n; ++id) {
      if (task_done[id] != 0) continue;
      index_t d = 0;
      auto [pb, pe] = graph.predecessors(id);
      for (const index_t* pp = pb; pp != pe; ++pp) d += !task_done[*pp];
      deps_left[id] = d;
    }
    for (const CheckpointState::Pending& p : snap.pending) {
      enqueue_ready(p.id, p.arrival_s);
    }
    last_ckpt = snap;
    // Re-derive the checkpoint cadence by the same repeated addition the
    // original run used, so the next capture lands on the identical
    // double.
    if (ckpt_mode) {
      next_ckpt_t = ckpt_interval;
      while (next_ckpt_t <= snap.time_s) next_ckpt_t += ckpt_interval;
    }
    if (obs_on) {
      obs::Recorder::global().instant(
          obs::Domain::kSim, -1, "resume from checkpoint", "recovery",
          snap.time_s, "tasks_done", static_cast<std::int64_t>(completed));
    }
  } else {
    for (index_t id = 0; id < n; ++id) {
      deps_left[id] = graph.in_degree(id);
      if (deps_left[id] == 0) enqueue_ready(id, 0.0);
    }
  }

  // Move every arrival with time <= t into the policy pools of rank r.
  auto drain_arrivals = [&](RankState& st, int rank, real_t t) {
    (void)rank;
    while (!st.arrivals.empty() && st.arrivals.top().time <= t) {
      const index_t id = st.arrivals.top().id;
      st.arrivals.pop();
      if (entry_stale(id)) continue;
      const Task& task = graph.task(id);
      if (opt.policy == Policy::kTrojanHorse) {
        if (prioritizer.is_urgent(task)) {
          st.urgent.push({th_key(task), id});
        } else {
          st.container.push(th_key(task), id);
        }
      } else {
        st.pool.push({order_key(opt.policy, graph, task), id});
      }
    }
  };

  // Earliest time rank r could launch its next kernel; kNever if dead, or
  // idle with nothing pending.
  auto next_launch_time = [&](int r) -> real_t {
    if (rank_dead[static_cast<std::size_t>(r)]) return kNever;
    const RankState& st = ranks[static_cast<std::size_t>(r)];
    const bool pool_nonempty =
        opt.policy == Policy::kTrojanHorse
            ? (!st.urgent.empty() || !st.container.empty())
            : !st.pool.empty();
    const real_t base =
        opt.policy == Policy::kMultiStream
            ? st.rank_free  // host thread availability
            : st.rank_free;
    if (pool_nonempty) return base;
    if (!st.arrivals.empty()) {
      return std::max(base, st.arrivals.top().time);
    }
    return kNever;
  };

  // kRestartFromCheckpoint: the rank reboots, reloads the last coordinated
  // checkpoint (or rolls back to the initial state when none exists) and
  // rejoins at full speed after a priced restore. Work it completed since
  // that checkpoint is lost and re-executed; queue entries elsewhere whose
  // dependencies reopen become stale and are dropped when popped.
  auto restart_rank = [&](const RankFailure& f) {
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
    // 2) Re-derive readiness; entries whose dependencies reopened are now
    //    stale.
    for (index_t id = 0; id < n; ++id) {
      if (task_done[id]) continue;
      index_t d = 0;
      auto [pb, pe] = graph.predecessors(id);
      for (const index_t* pp = pb; pp != pe; ++pp) d += !task_done[*pp];
      deps_left[id] = d;
      if (d > 0 && in_queue[id] != 0) {
        ++stale_entries[id];
        in_queue[id] = 0;
      }
    }
    // 3) The rank's own queues do not survive the reboot.
    auto discard = [&](index_t id) {
      if (stale_entries[id] > 0) {
        --stale_entries[id];
      } else {
        in_queue[id] = 0;
      }
    };
    while (!st.arrivals.empty()) {
      discard(st.arrivals.top().id);
      st.arrivals.pop();
    }
    while (!st.pool.empty()) {
      discard(st.pool.top().second);
      st.pool.pop();
    }
    while (!st.urgent.empty()) {
      discard(st.urgent.top().second);
      st.urgent.pop();
    }
    while (!st.container.empty()) discard(st.container.pop());
    // 4) Back online after the restore, its ready work re-queued behind
    //    re-shipped producer blocks (which may still be in flight at the
    //    failure instant).
    st.rank_free = resume_t;
    st.stream_free.assign(st.stream_free.size(), resume_t);
    for (index_t id = 0; id < n; ++id) {
      if (task_done[id] || eff_owner[id] != f.rank || deps_left[id] != 0) {
        continue;
      }
      real_t ready = resume_t;
      auto [pb, pe] = graph.predecessors(id);
      for (const index_t* pp = pb; pp != pe; ++pp) {
        ready = std::max(ready, std::max(resume_t, finish_time[*pp]) +
                                    comm_s(eff_owner[*pp], f.rank,
                                           graph.task(*pp).out_bytes));
      }
      enqueue_ready(id, ready);
    }
  };

  // Apply one rank failure: the GPU dies and pending work migrates to the
  // survivors (re-running the block-cyclic owner map over them), the rank
  // degrades to CPU-model execution, or it restarts from the last
  // checkpoint.
  auto process_failure = [&](const RankFailure& f) {
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
      return;
    }
    if (f.recovery == RankRecovery::kRestartFromCheckpoint) {
      restart_rank(f);
      return;
    }
    rank_dead[fr] = 1;
    std::vector<int> survivors;
    for (int r = 0; r < opt.n_ranks; ++r) {
      if (!rank_dead[static_cast<std::size_t>(r)]) survivors.push_back(r);
    }
    TH_CHECK_MSG(!survivors.empty(),
                 "every rank has failed by t=" << f.time_s);
    for (index_t id = 0; id < n; ++id) {
      if (task_done[id] || eff_owner[id] != f.rank) continue;
      const Task& t = graph.task(id);
      eff_owner[id] = remap_owner(t.row, t.col, survivors);
      ++freport.tasks_migrated;
    }
    // Requeue the dead rank's ready work on the new owners. The producing
    // blocks must be re-shipped (from each producer's rank — completed
    // producers on the dead rank re-send from its node's host checkpoint),
    // so the arrival is delayed by the slowest re-send — which cannot
    // leave before the producing batch itself has finished.
    RankState& st = ranks[fr];
    auto requeue = [&](index_t id) {
      if (entry_stale(id)) return;
      real_t ready = f.time_s;
      auto [pb, pe] = graph.predecessors(id);
      for (const index_t* pp = pb; pp != pe; ++pp) {
        ready = std::max(ready, std::max(f.time_s, finish_time[*pp]) +
                                    comm_s(eff_owner[*pp], eff_owner[id],
                                           graph.task(*pp).out_bytes));
      }
      enqueue_ready(id, ready);
    };
    while (!st.arrivals.empty()) {
      const index_t id = st.arrivals.top().id;
      st.arrivals.pop();
      requeue(id);
    }
    while (!st.pool.empty()) {
      requeue(st.pool.top().second);
      st.pool.pop();
    }
    while (!st.urgent.empty()) {
      requeue(st.urgent.top().second);
      st.urgent.pop();
    }
    while (!st.container.empty()) requeue(st.container.pop());
  };

  // Coordinated checkpoint at instant t_c: every alive rank pauses for
  // the write (after any in-flight kernel), then the progress frontier is
  // snapshotted. Clocks are captured post-pause, so a resumed run replays
  // without re-paying the write.
  auto take_checkpoint = [&](real_t t_c) {
    int alive = 0;
    for (int r = 0; r < opt.n_ranks; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      if (rank_dead[rr]) continue;
      ++alive;
      if (mem_mode) {
        // The checkpoint writer stages the largest resident block through
        // a device-side bounce buffer; charge it so a budget sized to the
        // bare factor storage is caught rather than silently exceeded.
        mem::RankLedger& led = ledgers[rr];
        const offset_t stage = led.largest_resident_bytes();
        while (!led.budget().fits(stage)) {
          if (mopt.policy == mem::MemPolicy::kSpill &&
              spill_coldest(r) > 0) {
            continue;
          }
          throw mem::OomError(r, stage, led.budget().capacity(),
                              led.budget().used(),
                              "checkpoint staging buffer");
        }
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

    CheckpointState s;
    s.time_s = t_c;
    s.n_tasks = n;
    s.n_ranks = opt.n_ranks;
    s.n_streams = static_cast<int>(ranks[0].stream_free.size());
    s.done = task_done;
    s.finish_time = finish_time;
    s.attempts = attempts.empty()
                     ? std::vector<int>(static_cast<std::size_t>(n), 0)
                     : attempts;
    s.owner = eff_owner;
    for (index_t id = 0; id < n; ++id) {
      if (in_queue[id] != 0) s.pending.push_back({id, arrival_time[id]});
    }
    s.rank_free.resize(static_cast<std::size_t>(opt.n_ranks));
    s.stream_free.resize(static_cast<std::size_t>(opt.n_ranks) *
                         ranks[0].stream_free.size());
    s.rank_dead = rank_dead;
    s.rank_cpu = rank_cpu;
    for (int r = 0; r < opt.n_ranks; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      s.rank_free[rr] = ranks[rr].rank_free;
      for (std::size_t l = 0; l < ranks[rr].stream_free.size(); ++l) {
        s.stream_free[rr * ranks[rr].stream_free.size() + l] =
            ranks[rr].stream_free[l];
      }
    }
    s.failures_applied = static_cast<index_t>(next_failure);
    s.numeric_pending = numeric_pending;
    s.report = freport;
    last_ckpt = std::move(s);
  };

  // ---- Batch formation -----------------------------------------------
  // Aggregate-stage anatomy of the most recent form_batch call (TH policy
  // only): how many members came straight from the urgent heap vs. topped
  // up from the Container, how many conflicts were deferred, and which
  // capacity bound closed the batch. Feeds the obs aggregate events.
  int agg_urgent = 0;
  int agg_topup = 0;
  int agg_deferred = 0;
  Collector::RejectReason agg_close = Collector::RejectReason::kNone;

  // Returns task ids + per-task atomic flags.
  auto form_batch = [&](RankState& st)
      -> std::pair<std::vector<index_t>, std::vector<char>> {
    std::vector<index_t> batch;
    std::vector<char> atomic;
    agg_urgent = agg_topup = agg_deferred = 0;
    agg_close = Collector::RejectReason::kNone;

    if (opt.cpu_mode) {
      // CPU solvers keep all cores busy with whatever is ready: consume the
      // whole pool in one task-parallel step (conflicting SSSSM updates are
      // reduced per-core, so no atomics are needed in the model).
      auto take_all = [&](auto& q) {
        while (!q.empty()) {
          const index_t id = q.top().second;
          q.pop();
          if (entry_stale(id)) continue;
          if (track_pending) in_queue[id] = 0;
          batch.push_back(id);
          atomic.push_back(0);
        }
      };
      if (opt.policy == Policy::kTrojanHorse) {
        take_all(st.urgent);
        while (!st.container.empty()) {
          const index_t id = st.container.pop();
          if (entry_stale(id)) continue;
          if (track_pending) in_queue[id] = 0;
          batch.push_back(id);
          atomic.push_back(0);
        }
      } else {
        take_all(st.pool);
      }
      // Conflicting SSSSM members still need atomic accumulation when the
      // numeric backend runs them on a worker pool.
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> tgt;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Task& t = graph.task(batch[i]);
        if (t.type != TaskType::kSsssm) continue;
        auto& v = tgt[(static_cast<std::uint64_t>(t.row) << 32) |
                      static_cast<std::uint32_t>(t.col)];
        v.push_back(i);
        if (v.size() > 1) {
          for (std::size_t s : v) atomic[s] = 1;
        }
      }
      return {std::move(batch), std::move(atomic)};
    }

    if (opt.policy == Policy::kTrojanHorse) {
      Collector collector(opt.cluster.gpu, opt.collector);
      // Track SSSSM write targets within the batch for conflict handling.
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> targets;
      std::vector<index_t> deferred;

      auto target_key = [&](const Task& t) {
        return (static_cast<std::uint64_t>(t.row) << 32) |
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.col));
      };
      auto admit = [&](index_t id) -> bool {
        const Task& t = graph.task(id);
        const bool conflicts =
            t.type == TaskType::kSsssm &&
            targets.count(target_key(t)) > 0;
        if (conflicts && !opt.allow_atomic_batching) {
          deferred.push_back(id);
          ++result.deferred_tasks;
          return true;  // skipped but not "full"
        }
        if (!collector.try_add(t)) return false;
        batch.push_back(id);
        atomic.push_back(0);
        if (track_pending) in_queue[id] = 0;
        if (t.type == TaskType::kSsssm) {
          auto& slots = targets[target_key(t)];
          slots.push_back(batch.size() - 1);
          if (slots.size() > 1) {
            // Conflict: every member updating this block becomes atomic.
            for (std::size_t s : slots) atomic[s] = 1;
          }
        }
        return true;
      };

      // Phase 1: urgent tasks straight from the Prioritizer.
      while (!st.urgent.empty()) {
        const index_t id = st.urgent.top().second;
        if (entry_stale(id)) {
          st.urgent.pop();
          continue;
        }
        if (!admit(id)) break;  // Collector full; id stays urgent
        st.urgent.pop();
      }
      agg_urgent = static_cast<int>(batch.size());
      // Phase 2: top up from the Container.
      while (!collector.full() && !st.container.empty()) {
        const index_t id = st.container.pop();
        if (entry_stale(id)) continue;
        if (!admit(id)) {
          st.container.push(th_key(graph.task(id)), id);
          break;
        }
      }
      agg_topup = static_cast<int>(batch.size()) - agg_urgent;
      agg_deferred = static_cast<int>(deferred.size());
      agg_close = collector.close_reason();
      for (index_t id : deferred) {
        st.container.push(th_key(graph.task(id)), id);
      }
      collector.take();  // reset (ids already copied)
    } else {
      // All per-task policies launch exactly one kernel per task. The pool
      // may hold only stale (restart-invalidated) entries, in which case
      // the batch comes back empty and the caller re-evaluates.
      while (!st.pool.empty()) {
        const index_t id = st.pool.top().second;
        st.pool.pop();
        if (entry_stale(id)) continue;
        if (track_pending) in_queue[id] = 0;
        batch.push_back(id);
        atomic.push_back(0);
        break;
      }
    }
    return {std::move(batch), std::move(atomic)};
  };

  // ---- Main event loop --------------------------------------------------
  while (completed < n) {
    // Pick the rank able to launch earliest — after taking any checkpoint
    // and applying any rank failure whose time has come, in event order
    // (checkpoint first on ties, so a same-instant restart rolls back to
    // it rather than past it). Failures move work between queues, so they
    // must land before the launch decision.
    int best_rank = -1;
    real_t best_time = kNever;
    for (;;) {
      best_rank = -1;
      best_time = kNever;
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
      break;
    }
    TH_CHECK_MSG(best_rank >= 0,
                 "deadlock: " << n - completed << " tasks unreachable");
    RankState& st = ranks[static_cast<std::size_t>(best_rank)];
    const real_t t0 = best_time;
    if (opt.cancel != nullptr) {
      // Batch boundary: no batch in flight, executor lanes parked behind
      // their barrier, ledgers quiescent — the one point a cooperative
      // cancellation may unwind from (support/cancel.hpp). The throw
      // frees every run-local structure by plain stack unwinding.
      if (obs_on && (opt.cancel->cancel_requested() ||
                     t0 >= opt.cancel->deadline_s())) {
        obs::Recorder::global().instant(obs::Domain::kSim, -1, "cancelled",
                                        "serve", t0, "completed", completed);
      }
      opt.cancel->check(t0);
    }
    if (mem_mode) apply_pressure(t0);
    drain_arrivals(st, best_rank, t0);

    auto [batch, atomic] = form_batch(st);
    if (batch.empty()) continue;  // only stale entries were pending

    // ---- Memory-budget enforcement (src/mem, DESIGN.md §13) ------------
    // Before the batch launches its rank must hold: the batch members'
    // resident inputs (pinned; spilled ones reloaded at the modelled
    // bandwidth), plus transient launch demand — output staging, det-mode
    // scratch, ABFT snapshot+checksum buffers. When that does not fit the
    // degradation ladder escalates: shrink the batch width, then spill
    // cold tiles out of core, then fail with a typed OomError.
    real_t mem_stall_s = 0;
    offset_t mem_demand = 0;
    if (mem_mode &&
        !(fault_mode && rank_cpu[static_cast<std::size_t>(best_rank)])) {
      mem::RankLedger& led = ledgers[static_cast<std::size_t>(best_rank)];
      // Tracked predecessor blocks the leading `keep` members read,
      // deduplicated and ascending so pinning and reload order are
      // deterministic.
      auto input_set = [&](std::size_t keep) {
        std::vector<index_t> in;
        for (std::size_t i = 0; i < keep; ++i) {
          auto [pb, pe] = graph.predecessors(batch[i]);
          for (const index_t* pp = pb; pp != pe; ++pp) {
            if (led.tracked(*pp)) in.push_back(*pp);
          }
        }
        std::sort(in.begin(), in.end());
        in.erase(std::unique(in.begin(), in.end()), in.end());
        return in;
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
      // A capacity ramp may have left the ledger over its shrunken
      // capacity; work the residue off before admitting new demand.
      while (led.budget().over_capacity()) {
        if (mopt.policy == mem::MemPolicy::kSpill) {
          const offset_t freed = spill_coldest(best_rank);
          if (freed > 0) {
            mem_stall_s +=
                static_cast<real_t>(freed) / mopt.spill_bw_bytes_per_s;
            continue;
          }
        }
        throw mem::OomError(
            best_rank, led.budget().used() - led.budget().capacity(),
            led.budget().capacity(), led.budget().used(),
            "working off a capacity-ramp residue");
      }
      // Injected transient allocation failure: the batch's first scratch
      // allocation fails once and the runtime reacts by evicting a cold
      // tile before retrying (absorbed when nothing is evictable).
      if (fault_mode && plan.mem_alloc_fail_prob > 0 &&
          mem_alloc_fails(plan, best_rank,
                          alloc_seq[static_cast<std::size_t>(best_rank)]++)) {
        ++mstats.alloc_failures;
        if (obs_on) {
          obs::Recorder::global().instant(obs::Domain::kSim, best_rank,
                                          "transient alloc failure", "mem",
                                          t0);
        }
        if (mopt.policy == mem::MemPolicy::kSpill) {
          const offset_t freed = spill_coldest(best_rank);
          mem_stall_s +=
              static_cast<real_t>(freed) / mopt.spill_bw_bytes_per_s;
        }
      }
      // Transient launch demand of the leading `keep` members.
      auto batch_demand = [&](std::size_t keep) -> offset_t {
        offset_t d = 0;
        for (std::size_t i = 0; i < keep; ++i) {
          const Task& t = graph.task(batch[i]);
          d += t.out_bytes;  // output staging for the launch
          if (atomic[i] != 0 &&
              opt.exec.accum == exec::AccumMode::kDeterministic) {
            d += t.out_bytes;  // private det-mode accumulation scratch
          }
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
      // The ladder picks the widest launch that fits: the spilled inputs
      // the width must reload plus its transient demand, beside what is
      // already resident. Narrowing the width shrinks both terms.
      std::size_t keep = batch.size();
      std::vector<index_t> inputs = all_inputs;
      offset_t reload_bytes = 0;
      for (;;) {
        reload_bytes = 0;
        for (index_t id : inputs) {
          if (led.spilled(id)) reload_bytes += led.bytes_of(id);
        }
        mem_demand = batch_demand(keep);
        if (led.budget().fits(reload_bytes + mem_demand)) break;
        // Rung 1: narrow the batch — but never below half its width while
        // spilling is still available; paying eviction I/O beats degrading
        // the batching this whole design exists to preserve.
        const std::size_t min_keep =
            mopt.policy == mem::MemPolicy::kSpill
                ? std::max<std::size_t>(1, batch.size() / 2)
                : 1;
        if (mopt.policy != mem::MemPolicy::kFailFast && keep > min_keep) {
          --keep;
          inputs = input_set(keep);
          set_pins(inputs);
          continue;
        }
        if (mopt.policy == mem::MemPolicy::kSpill) {
          // Rung 2: evict cold tiles. The eviction I/O is being paid
          // anyway, so recover the full batch width — the run narrows its
          // batches only once nothing is left to spill.
          const offset_t freed = spill_coldest(best_rank);
          if (freed > 0) {
            mem_stall_s +=
                static_cast<real_t>(freed) / mopt.spill_bw_bytes_per_s;
            keep = batch.size();
            inputs = all_inputs;
            set_pins(inputs);
            continue;
          }
          if (keep > 1) {
            --keep;  // nothing left to evict: narrow the rest of the way
            inputs = input_set(keep);
            set_pins(inputs);
            continue;
          }
        }
        throw mem::OomError(best_rank, reload_bytes + mem_demand,
                            led.budget().capacity(), led.budget().used(),
                            "batch launch working set");
      }
      // Reload the admitted width's spilled inputs at the modelled
      // bandwidth (the fits() above guaranteed the room).
      for (index_t id : inputs) {
        if (!led.spilled(id)) continue;
        const offset_t bytes = led.bytes_of(id);
        led.mark_resident(id, t0);
        led.pin(id);
        ++mstats.tiles_reloaded;
        mstats.bytes_reloaded += bytes;
        const real_t stall =
            static_cast<real_t>(bytes) / mopt.spill_bw_bytes_per_s;
        mstats.reload_s += stall;
        mem_stall_s += stall;
      }
      if (keep < batch.size()) {
        ++mstats.batch_shrinks;
        mstats.tasks_displaced += static_cast<offset_t>(batch.size() - keep);
        if (obs_on) {
          obs::Recorder::global().instant(
              obs::Domain::kSim, best_rank, "batch shrunk", "mem", t0,
              "kept", static_cast<std::int64_t>(keep), "displaced",
              static_cast<std::int64_t>(batch.size() - keep));
        }
        // Displaced members go back to the pools they came from and ride a
        // later batch.
        for (std::size_t i = keep; i < batch.size(); ++i) {
          const index_t id = batch[i];
          const Task& t = graph.task(id);
          if (track_pending) in_queue[id] = 1;
          if (opt.policy == Policy::kTrojanHorse) {
            if (prioritizer.is_urgent(t)) {
              st.urgent.push({th_key(t), id});
            } else {
              st.container.push(th_key(t), id);
            }
          } else {
            st.pool.push({order_key(opt.policy, graph, t), id});
          }
        }
        batch.resize(keep);
        atomic.resize(keep);
        // Conflicts may have left with the tail; recompute atomic flags.
        std::fill(atomic.begin(), atomic.end(), 0);
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> tgt;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Task& t = graph.task(batch[i]);
          if (t.type != TaskType::kSsssm) continue;
          auto& v = tgt[(static_cast<std::uint64_t>(t.row) << 32) |
                        static_cast<std::uint32_t>(t.col)];
          v.push_back(i);
          if (v.size() > 1) {
            for (std::size_t s : v) atomic[s] = 1;
          }
        }
      }
      // Any input whose authoritative payload sits in the tile store gets
      // its exact bytes restored before a member reads it — including
      // producer blocks owned by other ranks (host storage is shared).
      if (spill_io) {
        std::vector<index_t> preds;
        for (index_t id : batch) {
          auto [pb, pe] = graph.predecessors(id);
          for (const index_t* pp = pb; pp != pe; ++pp) {
            if (payload_out[*pp] != 0) preds.push_back(*pp);
          }
        }
        std::sort(preds.begin(), preds.end());
        preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
        for (index_t id : preds) {
          backend->restore_block(graph.task(id), store.reload(id));
          payload_out[id] = 0;
        }
      }
      led.budget().charge(mem_demand);  // released after pricing
      for (index_t id : all_inputs) led.unpin(id);
      for (index_t id : inputs) {
        led.touch(id, t0);  // LRU freshness: these inputs were just read
      }
    }
    bool any_conflict = false;
    for (char a : atomic) {
      result.atomic_tasks += (a != 0);
      any_conflict |= (a != 0);
    }

    if (obs_on && opt.policy == Policy::kTrojanHorse && !opt.cpu_mode) {
      auto& rec = obs::Recorder::global();
      auto& reg = obs::Registry::global();
      rec.instant(obs::Domain::kSim, best_rank, "batch formed", "aggregate",
                  t0, "urgent", agg_urgent, "topup", agg_topup);
      rec.instant(obs::Domain::kSim, best_rank, "container depth",
                  "aggregate", t0, "depth",
                  static_cast<std::int64_t>(st.container.size()), "deferred",
                  agg_deferred);
      switch (agg_close) {
        case Collector::RejectReason::kBlocks:
          rec.instant(obs::Domain::kSim, best_rank,
                      "collector full: blocks", "aggregate", t0);
          reg.counter("th.agg.close_blocks").add(1);
          break;
        case Collector::RejectReason::kShmem:
          rec.instant(obs::Domain::kSim, best_rank, "collector full: shmem",
                      "aggregate", t0);
          reg.counter("th.agg.close_shmem").add(1);
          break;
        case Collector::RejectReason::kCount:
          rec.instant(obs::Domain::kSim, best_rank, "collector full: count",
                      "aggregate", t0);
          reg.counter("th.agg.close_count").add(1);
          break;
        case Collector::RejectReason::kNone:
          reg.counter("th.agg.close_drained").add(1);
          break;
      }
      reg.counter("th.agg.topup_tasks").add(agg_topup);
      reg.counter("th.agg.deferred_conflicts").add(agg_deferred);
      reg.histogram("th.agg.container_depth")
          .record(static_cast<double>(st.container.size()));
      reg.histogram("th.sched.batch_size")
          .record(static_cast<double>(batch.size()));
    }

    // Decide transient kernel faults for this attempt *before* numerics
    // run: faulted members are priced (the kernel ran and its results were
    // discarded) but their numeric bodies are deferred to the retry, so
    // every task's numerics still execute exactly once, in dependency
    // order.
    std::vector<char> failed;
    bool any_failed = false;
    if (fault_mode && plan.has_transient()) {
      failed.assign(batch.size(), 0);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Task& t = graph.task(batch[i]);
        if (transient_fault_fires(plan, batch[i], attempts[batch[i]],
                                  t.type)) {
          failed[i] = 1;
          any_failed = true;
          ++freport.transient_faults;
          if (obs_on) {
            obs::Recorder::global().instant(
                obs::Domain::kSim, best_rank, "transient fault", "recovery",
                t0, "task", batch[i]);
          }
        }
      }
    }
    if (collect) {
      BatchLog::Batch& blog = rstats.batches.batches.emplace_back();
      blog.members = batch;
      blog.had_conflict = any_conflict;
      // Per-member outcome: transient faults are known now; lost-to-restart
      // (status 2) is flipped retroactively when a restart discards work.
      if (failed.empty()) {
        blog.status.assign(batch.size(), 0);
      } else {
        blog.status.assign(failed.begin(), failed.end());
      }
    }

    // Plant pending numeric corruptions: guard-visible kinds go into the
    // target before it runs; silent (ABFT) kinds are deferred to the
    // runtime, which plants them after the kernels wrote their output but
    // before checksum verification. A corruption on a crashing attempt
    // stays pending — the retry would wipe it anyway.
    exec::BatchVerify bv;
    bv.abft = abft_mode;
    bv.rel_tol = opt.abft.rel_tol;
    bool use_bv = abft_mode;
    if (fault_mode && backend != nullptr && !plan.numeric_faults.empty()) {
      for (std::size_t f = 0; f < plan.numeric_faults.size(); ++f) {
        if (!numeric_pending[f]) continue;
        const NumericFault& nf = plan.numeric_faults[f];
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i] != nf.task_id) continue;
          if (any_failed && failed[i]) break;  // keep pending for the retry
          if (silent_fault_kind(nf.kind)) {
            bv.sabotage.emplace_back(i, nf.kind);
            use_bv = true;
          } else if (backend->inject_fault(graph.task(batch[i]), nf.kind)) {
            ++freport.numeric_faults_injected;
          }
          numeric_pending[f] = 0;
          break;
        }
      }
    }

    // Execute numerics (host) and price the launch (model).
    ExecuteOptions eo;
    if (any_failed) eo.skip_numeric = &failed;
    std::vector<char> skip_rerun;  // restart re-executions: time, no numerics
    if (!numerics_ran.empty()) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!numerics_ran[batch[i]]) continue;
        if (skip_rerun.empty()) {
          skip_rerun = any_failed ? failed
                                  : std::vector<char>(batch.size(), 0);
        }
        skip_rerun[i] = 1;
      }
      if (!skip_rerun.empty()) eo.skip_numeric = &skip_rerun;
    }
    eo.run_guards = fault_mode && plan.numeric_guards && backend != nullptr;
    eo.guard = plan.guard;
    if (use_bv && backend != nullptr) eo.verify = &bv;
    const BatchResult br = executor.execute(graph, batch, atomic, eo);

    // ---- ABFT outcome processing (detect -> retry -> escalate) ----------
    std::vector<char> corrupt_retry;  // members rolled back & re-queued
    if (eo.verify != nullptr) {
      freport.numeric_faults_injected += bv.sabotaged;
      rstats.abft.silent_injected += bv.sabotaged;
      rstats.abft.tasks_verified += bv.verified;
      rstats.abft.capture_s += bv.capture_s;
      rstats.abft.verify_s += bv.verify_s;
      // Silent corruption planted without the checksum layer armed is, by
      // construction, never caught — record it as fatal so the fault
      // balance (injected == handled + fatal) still closes.
      if (!abft_mode) freport.fatal_faults += bv.sabotaged;
    }
    if (abft_mode && !bv.outcome.empty()) {
      // Group corrupt members by target tile: SSSSM members sharing a
      // corrupt target share one verdict and one rollback, and they must
      // all re-run (a re-run member's update would otherwise be lost for
      // the others).
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!bv.outcome[i]) continue;
        const Task& t = graph.task(batch[i]);
        const std::uint64_t tk =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.row))
             << 32) |
            static_cast<std::uint32_t>(t.col);
        groups[tk].push_back(i);
      }
      for (auto& [tk, members] : groups) {
        (void)tk;
        bool any_within = false;
        for (const std::size_t i : members) {
          const int att = ++abft_attempts[batch[i]];
          if (att <= abft_budget) any_within = true;
        }
        rstats.abft.corrupt_detected +=
            static_cast<offset_t>(members.size());
        if (any_within) {
          if (corrupt_retry.empty()) corrupt_retry.assign(batch.size(), 0);
          backend->abft_rollback(graph.task(batch[members.front()]));
          for (const std::size_t i : members) {
            corrupt_retry[i] = 1;
            ++rstats.abft.retries;
            ++freport.abft_corrected;
          }
          if (obs_on) {
            obs::Recorder::global().instant(
                obs::Domain::kSim, best_rank, "abft rollback", "recovery", t0,
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
                obs::Domain::kSim, best_rank, "abft budget exhausted",
                "recovery", t0, "members",
                static_cast<std::int64_t>(members.size()));
          }
        }
      }
      if (collect && !corrupt_retry.empty()) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (corrupt_retry[i]) rstats.batches.back().status[i] = 3;
        }
      }
    }
    if (abft_mode) backend->abft_reset();

    if (!numerics_ran.empty()) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (any_failed && failed[i]) continue;
        if (!corrupt_retry.empty() && corrupt_retry[i]) continue;
        numerics_ran[batch[i]] = 1;
      }
    }
    if (br.guards.fired()) {
      freport.guards.merge(br.guards);
      freport.escalate_refinement = true;
    }

    // Spill/reload transfers stall the launch; with no budget the stall is
    // identically zero and t_launch == t0 (bit-identical off switch).
    const real_t t_launch = mem_mode ? t0 + mem_stall_s : t0;
    real_t start = t_launch, end = t_launch;
    real_t host_share = br.host_s;
    const bool cpu_price =
        opt.cpu_mode ||
        (fault_mode && rank_cpu[static_cast<std::size_t>(best_rank)]);
    if (cpu_price) {
      std::vector<TaskCost> costs;
      costs.reserve(batch.size());
      for (index_t id : batch) costs.push_back(graph.task(id).cost);
      const real_t dur = cpu_batch_seconds(opt.cpu, costs);
      end = start + dur;
      host_share = 0;  // CPU model folds dispatch into the step itself
      st.rank_free = end;
      if (!opt.cpu_mode) {
        // Degraded-mode execution: the rank's GPU is dead but the node
        // keeps computing on its host CPU.
        freport.cpu_fallback_tasks += static_cast<offset_t>(batch.size());
      }
    } else if (opt.policy == Policy::kMultiStream) {
      // Host serialises launches; kernels overlap across streams.
      const real_t launch_s = opt.cluster.gpu.launch_latency_us * 1e-6;
      const real_t host_done = t_launch + launch_s;
      auto it = std::min_element(st.stream_free.begin(),
                                 st.stream_free.end());
      start = std::max(host_done, *it);
      end = start + std::max<real_t>(br.seconds - launch_s, 0);
      host_share = std::max<real_t>(br.host_s - launch_s, 0);
      *it = end;
      st.rank_free = host_done;  // host is free to launch the next kernel
    } else {
      end = start + br.seconds;
      st.rank_free = end;
    }

    result.trace.record({best_rank, start, end, host_share, br.flops,
                         static_cast<int>(batch.size())});
    auto& rs = rstats.ranks[static_cast<std::size_t>(best_rank)];
    ++rs.kernels;
    rs.busy_s += end - start;
    rs.flops += br.flops;
    if (mem_mode && mem_demand > 0) {
      // The launch's transient demand drains; the members' factor blocks
      // are registered permanently at completion below.
      ledgers[static_cast<std::size_t>(best_rank)].budget().release(
          mem_demand);
    }

    // Completion: wake successors; faulted members instead schedule their
    // retry with exponential backoff priced into the timeline.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const index_t id = batch[i];
      if (any_failed && failed[i]) {
        const int att = ++attempts[id];
        TH_CHECK_MSG(
            att <= plan.max_retries,
            "task " << id << " ("
                    << task_type_name(graph.task(id).type)
                    << ") exhausted its retry budget of " << plan.max_retries
                    << " after " << att << " transient faults");
        const real_t backoff = plan.backoff_s(att);
        ++freport.retries;
        freport.backoff_delay_s += backoff;
        enqueue_ready(id, end + backoff);
        continue;
      }
      if (!corrupt_retry.empty() && corrupt_retry[i]) {
        // Corrupt output (ABFT): the target was rolled back; re-run the
        // task after the same exponential backoff a transient fault pays.
        const real_t backoff = plan.backoff_s(abft_attempts[id]);
        freport.backoff_delay_s += backoff;
        enqueue_ready(id, end + backoff);
        continue;
      }
      finish_time[id] = end;
      task_done[id] = 1;
      ++completed;
      if (mem_mode &&
          !(fault_mode && rank_cpu[static_cast<std::size_t>(best_rank)])) {
        // The completed task's factor block becomes permanently resident
        // on its rank (SSSSM updates an already-counted block in place).
        const offset_t fb = mem::factor_bytes(graph.task(id));
        if (fb > 0) {
          mem::RankLedger& led = ledgers[static_cast<std::size_t>(best_rank)];
          if (!led.tracked(id)) {
            while (!led.budget().fits(fb)) {
              if (mopt.policy == mem::MemPolicy::kSpill &&
                  spill_coldest(best_rank) > 0) {
                continue;
              }
              throw mem::OomError(best_rank, fb, led.budget().capacity(),
                                  led.budget().used(),
                                  "registering a completed factor block");
            }
          }
          led.add_block(id, fb, end);
        }
      }
      if (!done_app.empty()) {
        done_app[id] = {static_cast<index_t>(rstats.batches.size() - 1),
                        static_cast<index_t>(i)};
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (any_failed && failed[i]) continue;
      if (!corrupt_retry.empty() && corrupt_retry[i]) continue;
      const index_t id = batch[i];
      auto [sb, se] = graph.successors(id);
      for (const index_t* sp = sb; sp != se; ++sp) {
        const index_t c = *sp;
        // A restarted producer re-completes; consumers that finished
        // before the failure already got its data the first time around.
        if (restart_mode && task_done[c]) continue;
        if (--deps_left[c] > 0) continue;
        // All producers done: arrival = max(finish + comm).
        real_t ready = 0;
        auto [pb, pe] = graph.predecessors(c);
        for (const index_t* pp = pb; pp != pe; ++pp) {
          const Task& pt = graph.task(*pp);
          real_t f = finish_time[*pp];
          TH_ASSERT(f < kNever);
          const int src = eff_owner[*pp];
          const int dst = eff_owner[c];
          if (src != dst) {
            f += comm_s(src, dst, pt.out_bytes);
            const std::uint64_t pair_key =
                static_cast<std::uint64_t>(*pp) *
                    static_cast<std::uint64_t>(opt.n_ranks) +
                static_cast<std::uint64_t>(dst);
            if (comm_pairs.insert(pair_key).second) {
              result.comm_bytes += pt.out_bytes;
              ++result.comm_messages;
            }
          }
          ready = std::max(ready, f);
        }
        enqueue_ready(c, ready);
      }
    }
  }

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
    // Mirror the run's authoritative accounting into the metrics registry
    // — snapshots reconcile with this ScheduleResult by construction
    // (DESIGN.md §12 lists the name mapping).
    auto& reg = obs::Registry::global();
    reg.counter("th.sched.kernels").add(result.kernel_count);
    reg.counter("th.sched.tasks").add(n);
    reg.counter("th.sched.atomic_tasks").add(result.atomic_tasks);
    reg.counter("th.sched.deferred_tasks").add(result.deferred_tasks);
    reg.counter("th.sched.comm_bytes").add(result.comm_bytes);
    reg.counter("th.sched.comm_messages").add(result.comm_messages);
    reg.gauge("th.sched.makespan_s").set(result.makespan_s);
    reg.gauge("th.sched.mean_batch_size").set(result.mean_batch_size);
    std::size_t container_peak = 0;
    for (const RankState& st : ranks) {
      container_peak = std::max(container_peak, st.container.peak_size());
    }
    reg.gauge("th.agg.container_peak")
        .set(static_cast<double>(container_peak));
    for (const RankStats& rsr : rstats.ranks) {
      reg.histogram("th.rank.busy_s").record(rsr.busy_s);
      reg.histogram("th.rank.kernels")
          .record(static_cast<double>(rsr.kernels));
    }
    rstats.faults.publish_metrics();
    rstats.abft.publish_metrics();
    rstats.exec.publish_metrics();
    rstats.mem.publish_metrics();
    if (mem_mode) {
      for (const mem::RankLedger& led : ledgers) {
        reg.histogram("th.mem.rank_high_water_bytes")
            .record(static_cast<double>(led.budget().high_water()));
      }
    }
  }

  if (opt.validate_schedule) check_schedule(graph, opt, result);
  return result;
}

}  // namespace th
