// Run-local state of one simulate() call, and the units that drive it.
//
// simulate() (core/scheduler.cpp) builds a SimState, seeds it (or restores
// a resume snapshot), then runs the event loop: next_event() applies every
// due checkpoint and rank failure and picks the rank able to launch
// earliest; that rank's batch then passes through the per-launch units in
// a fixed order — form_batch, reserve_memory, record_aggregate,
// decide_transients, plant_corruptions, execute, settle_abft, log_batch,
// price, complete, wake_successors. DESIGN.md "simulate() anatomy" has
// the walk-through. Internal to src/core: no public header includes this.
#pragma once

#include <algorithm>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "mem/tile_store.hpp"
#include "obs/obs.hpp"

namespace th::detail {

inline constexpr real_t kNever = 1e300;

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
  real_t rank_free = 0;             // device (or host, for multi-stream) time
  std::vector<real_t> stream_free;  // kMultiStream lanes
};

// One formed batch plus its aggregate-stage anatomy (TH policy only): how
// many members came straight from the urgent heap vs. topped up from the
// Container, how many conflicts were deferred, and which capacity bound
// closed the batch. The anatomy feeds the obs aggregate events.
struct FormedBatch {
  std::vector<index_t> ids;
  std::vector<char> atomic;  // per member: write-conflicting SSSSM
  int urgent = 0;
  int topup = 0;
  int deferred = 0;
  Collector::RejectReason close = Collector::RejectReason::kNone;
};

// One launch as it moves through the per-launch units.
struct Launch {
  int rank = -1;
  real_t t0 = 0;  // launch decision instant
  RankState* st = nullptr;
  FormedBatch batch;
  real_t mem_stall_s = 0;  // spill/reload transfers stalling the launch
  offset_t mem_demand = 0;  // transient bytes charged until pricing
  // Per-member outcome as the BatchLog records it: 0 completed, 1 transient
  // fault, 3 corrupt output rolled back by ABFT (1 and 3 re-run later).
  std::vector<char> status{};
  bool any_failed = false;  // some member took a transient fault
  exec::BatchVerify bv{};  // ABFT exchange with the executor
  real_t end = 0;  // priced batch completion

  // The executor verifies checksums or plants silent corruption this launch.
  bool verified() const { return bv.abft || !bv.sabotage.empty(); }

  // Start the next launch in place: every field back to its default, but
  // the per-member vectors keep their capacity, so a run reuses one set of
  // buffers across all its batches.
  void begin(int r, real_t t, RankState* s) {
    Launch next{.rank = r, .t0 = t, .st = s, .batch = {}};
    next.batch.ids.swap(batch.ids);
    next.batch.atomic.swap(batch.atomic);
    next.status.swap(status);
    next.batch.ids.clear();
    next.batch.atomic.clear();
    next.status.clear();
    *this = std::move(next);
  }
};

// Batch boundary: no batch in flight, executor lanes parked behind their
// barrier, ledgers quiescent — the one point a cooperative cancellation may
// unwind from (support/cancel.hpp). `completed` tasks are done at t0.
// Shared by the event loop and replay().
void check_cancel(const CancelToken* cancel, real_t t0, index_t completed,
                  bool obs_on);

// Mirror a finished run's accounting into the metrics registry: th.sched.*
// except the per-batch batch_size histogram, th.rank.*, the fault, ABFT
// and memory reports, and th.exec.* when the run executed numerics.
void publish_result_metrics(const ScheduleResult& r, index_t n_tasks,
                            bool numeric);

struct SimState {
  SimState(const TaskGraph& graph, const ScheduleOptions& opt,
           NumericBackend* backend);

  // ---- Seeding, and checkpoint capture / resume restore --------------------
  void seed();
  CheckpointState capture(real_t t_c) const;
  void restore(const CheckpointState& snap);

  // ---- Event selection: checkpoint -> failure -> launch --------------------
  std::pair<int, real_t> next_event();
  void poll_cancel(real_t t0);
  void take_checkpoint(real_t t_c);
  void process_failure(const RankFailure& f);
  void restart_rank(const RankFailure& f);
  void migrate_rank(const RankFailure& f);

  // ---- Queues and readiness ------------------------------------------------
  // Queue a now-ready task on its (effective) owner's arrivals.
  void enqueue_ready(index_t id, real_t when) {
    if (track_pending) {
      arrival_time[id] = when;
      in_queue[id] = 1;
    }
    ranks[static_cast<std::size_t>(eff_owner[id])].arrivals.push({when, id});
  }
  // A restart reopens dependencies of already-queued tasks; their stale
  // queue entries are dropped unseen the moment they are popped.
  bool entry_stale(index_t id) {
    if (!restart_mode || stale_entries[id] == 0) return false;
    --stale_entries[id];
    return true;
  }
  void route(RankState& st, index_t id);
  void drain_arrivals(RankState& st, real_t t);
  real_t next_launch_time(int r) const;
  void recount_deps();
  real_t ready_time(index_t id, real_t floor, bool account);
  // Communication pricing with the fault model's per-node-pair bandwidth
  // derate applied (1.0 on healthy links).
  real_t comm_s(int src, int dst, offset_t bytes) const {
    const real_t derate =
        fault_mode ? plan.link_bw_factor(opt.cluster.node_of(src),
                                         opt.cluster.node_of(dst))
                   : 1.0;
    return opt.cluster.comm_seconds(src, dst, bytes, derate);
  }

  // ---- Batch formation -----------------------------------------------------
  void form_batch(RankState& st, FormedBatch& b);
  void aggregate(RankState& st, FormedBatch& b);
  void conflict_flags(const std::vector<index_t>& ids,
                      std::vector<char>& atomic);
  std::uint64_t th_key(const Task& t) const {
    return cp_key.empty() ? prioritizer.key(t) : cp_key[t.id];
  }

  // ---- Memory ladder -------------------------------------------------------
  void apply_pressure(real_t t);
  offset_t spill_coldest(int rank, real_t* stall = nullptr);
  void make_room(int rank, offset_t bytes, const char* what,
                 real_t* stall = nullptr);
  void reserve_memory(Launch& l);
  // A rank whose GPU died under kCpuFallback: priced on the CPU model and
  // outside the device-memory ledger.
  bool on_cpu_fallback(int rank) const {
    return fault_mode && rank_cpu[static_cast<std::size_t>(rank)];
  }

  // ---- Per-launch units, in loop order -------------------------------------
  void record_aggregate(const Launch& l) const;
  void decide_transients(Launch& l);
  void plant_corruptions(Launch& l);
  BatchResult execute(Launch& l);
  void settle_abft(Launch& l);
  void log_batch(const Launch& l);
  void price(Launch& l, const BatchResult& br);
  void complete(const Launch& l);
  void wake_successors(const Launch& l);

  // ---- Finalize: derived totals, spill round-trip, metrics ------------------
  ScheduleResult finish();

  // ---- Configuration -------------------------------------------------------
  const TaskGraph& graph;
  const ScheduleOptions& opt;
  NumericBackend* const backend;
  const index_t n = graph.size();
  const std::size_t n_ranks = static_cast<std::size_t>(opt.n_ranks);
  const Prioritizer prioritizer{opt.prioritizer};
  Executor executor{KernelCostModel(opt.cluster.gpu), backend, opt.exec};
  // One observability gate per run: with the switch off every
  // instrumentation site folds to a dead branch and the simulated output is
  // bit-identical to an uninstrumented build.
  const bool obs_on = obs::enabled();

  // ---- Schedule progress ---------------------------------------------------
  std::vector<RankState> ranks = std::vector<RankState>(n_ranks);
  std::vector<index_t> deps_left = std::vector<index_t>(n, 0);
  std::vector<real_t> finish_time = std::vector<real_t>(n, kNever);
  std::vector<char> task_done = std::vector<char>(n, 0);
  index_t completed = 0;
  // HEFT-style critical-path keys (empty unless that metric is selected).
  std::vector<std::uint64_t> cp_key;
  ScheduleResult result;
  ScheduleStats& rstats = result.stats();
  std::unordered_set<std::uint64_t> comm_pairs;  // (producer, dest rank)
  // Batch-formation scratch, reused so forming a batch stays off the
  // allocator: the TH aggregate stage's Collector and the (target,
  // member) pairs conflict_flags() sorts.
  Collector collector{opt.cluster.gpu, opt.collector};
  std::vector<std::pair<std::uint64_t, std::size_t>> by_target;

  // ---- Fault model ---------------------------------------------------------
  const FaultPlan& plan = opt.faults;
  const bool fault_mode = !plan.empty();
  FaultReport& freport = rstats.faults;
  // Effective owner of each task; rank-death migration rewrites entries
  // (fault-free runs never touch it, so routing is byte-identical).
  std::vector<int> eff_owner = std::vector<int>(n);
  // Failed execution attempts per task (plans with transient faults).
  std::vector<int> attempts =
      std::vector<int>(fault_mode && plan.has_transient() ? n : 0);
  std::vector<char> rank_dead = std::vector<char>(n_ranks, 0);
  std::vector<char> rank_cpu = std::vector<char>(n_ranks, 0);
  std::vector<RankFailure> failures = plan.rank_failures;  // sorted in ctor
  std::size_t next_failure = 0;
  // One-shot consumption markers for planted numeric corruptions.
  std::vector<char> numeric_pending =
      std::vector<char>(plan.numeric_faults.size(), 1);

  // ---- ABFT (src/abft) -----------------------------------------------------
  // Checksum protection only makes sense when numerics actually execute;
  // on timing-only replays the option is inert.
  const bool abft_mode = opt.abft.enabled && backend != nullptr;
  const int abft_budget =
      opt.abft.max_retries >= 0 ? opt.abft.max_retries : plan.max_retries;
  // Corrupt re-runs per task.
  std::vector<int> abft_attempts = std::vector<int>(abft_mode ? n : 0);

  // ---- Memory model (src/mem, DESIGN.md §13) -------------------------------
  // With no budget every memory site is a dead branch and the run takes
  // the exact unaccounted path. CPU-mode runs have no device memory.
  const mem::MemOptions& mopt = opt.mem;
  const bool mem_mode = mopt.enabled() && !opt.cpu_mode;
  mem::MemStats& mstats = rstats.mem;
  std::vector<mem::RankLedger> ledgers = std::vector<mem::RankLedger>(
      mem_mode ? n_ranks : 0, mem::RankLedger(mopt.budget_bytes));
  // Payload spilling needs somewhere to write and a backend to extract
  // from; otherwise evictions are priced in the model only.
  const bool spill_io =
      mem_mode && !mopt.spill_dir.empty() && backend != nullptr;
  mem::TileStore store;
  // Per task: the block's authoritative payload sits on disk.
  std::vector<char> payload_out = std::vector<char>(spill_io ? n : 0);
  std::vector<MemPressure> pressures;  // sorted like rank failures
  std::size_t next_pressure = 0;
  // Per-rank batch-allocation counters (injected allocation failures).
  std::vector<offset_t> alloc_seq = std::vector<offset_t>(ledgers.size());

  // ---- Checkpoint/restart (src/resilience) ---------------------------------
  const CheckpointPolicy& ckpt = opt.checkpoint;
  const real_t ckpt_interval = ckpt.effective_interval_s(plan);
  const bool ckpt_mode = ckpt.enabled() && ckpt_interval > 0;
  const bool restart_mode =
      opt.resume.has_value() ||
      std::any_of(failures.begin(), failures.end(), [](const RankFailure& f) {
        return f.recovery == RankRecovery::kRestartFromCheckpoint;
      });
  // Pending-arrival bookkeeping, maintained only when a checkpoint could be
  // captured or a restart could invalidate queue entries — the fault-free
  // path stays byte-identical to a build without it.
  const bool track_pending = ckpt_mode || restart_mode;
  const index_t n_tracked = track_pending ? n : 0;
  std::vector<real_t> arrival_time = std::vector<real_t>(n_tracked);
  std::vector<char> in_queue = std::vector<char>(n_tracked);
  // Invalidated entries still queued, per task.
  std::vector<index_t> stale_entries = std::vector<index_t>(n_tracked);
  CheckpointState last_ckpt;  // empty until the first capture / resume
  real_t next_ckpt_t = ckpt_mode ? ckpt_interval : kNever;

  const bool collect = opt.collect_batches || opt.validate_schedule;
  // Where a clean run records its plan: the cancel polls and, in
  // log_batch next to the BatchLog, the members. Null unless asked for.
  SchedulePlan* sched_plan = nullptr;
  // Where each completed task's surviving trace appearance lives — the
  // retroactive lost-to-restart status flip targets it. (batch, member)
  std::vector<std::pair<index_t, index_t>> done_app =
      std::vector<std::pair<index_t, index_t>>(collect && restart_mode ? n : 0,
                                               {index_t{-1}, index_t{-1}});
  // Host memory is the durable store behind the simulated checkpoints: a
  // restarted rank re-executes lost tasks in the *timeline*, but their
  // numeric effects already landed (the checkpointed numeric frontier), so
  // re-running them through the backend would double-apply updates.
  std::vector<char> numerics_ran =
      std::vector<char>(restart_mode && backend != nullptr ? n : 0);
};

}  // namespace th::detail
