// Checkpoint/restart + schedule-validator tests (src/resilience):
// Young/Daly interval math, on-disk round-trips with version-mismatch
// rejection, deterministic same-timestamp fault ordering, restart-from-
// checkpoint recovery (including its makespan advantage over migration on
// long factorisations), bit-identical resume, and the validator's ability
// to reject tampered timelines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/testing.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/validate.hpp"
#include "sim/cluster.hpp"
#include "support/binio.hpp"
#include "support/error.hpp"

namespace th {
namespace {

Task make_task(TaskType type, index_t k, index_t row, index_t col,
               offset_t flops = 50000, index_t blocks = 8) {
  Task t;
  t.type = type;
  t.k = k;
  t.row = row;
  t.col = col;
  t.cost.flops = flops;
  t.cost.bytes = flops;
  t.cost.cuda_blocks = blocks;
  t.cost.shmem_per_block = 256;
  t.out_bytes = 4096;
  t.atomic_ok = type == TaskType::kSsssm;
  return t;
}

// A right-looking factorisation skeleton: `panels` elimination steps, each
// a GETRF fanning out to `width` solves feeding `width` Schur updates that
// gate the next panel. Long critical path with per-level parallelism —
// the shape where losing work (or a rank) actually costs makespan.
TaskGraph panel_chain(int panels, int width, int ranks,
                      offset_t flops_scale = 1) {
  TaskGraph g;
  std::vector<index_t> gate;
  for (int p = 0; p < panels; ++p) {
    const index_t f = g.add_task(
        make_task(TaskType::kGetrf, p, p, p, 20000 * flops_scale, 16));
    for (const index_t u : gate) g.add_dependency(u, f);
    gate.clear();
    for (int i = 0; i < width; ++i) {
      const index_t s =
          g.add_task(make_task(TaskType::kTstrf, p, p + i + 1, p,
                               40000 * flops_scale, 32));
      g.add_dependency(f, s);
      const index_t u =
          g.add_task(make_task(TaskType::kSsssm, p, p + i + 1, p + i + 1,
                               60000 * flops_scale, 32));
      g.add_dependency(s, u);
      gate.push_back(u);
    }
  }
  for (index_t i = 0; i < g.size(); ++i) {
    Task& t = g.mutable_task(i);
    t.owner_rank = static_cast<int>((t.row + t.col) % ranks);
  }
  g.finalize();
  return g;
}

ScheduleOptions cluster_options(int ranks,
                                Policy p = Policy::kTrojanHorse) {
  ScheduleOptions o;
  o.policy = p;
  o.n_ranks = ranks;
  o.cluster = cluster_h100();
  o.validate_schedule = true;
  return o;
}

void expect_identical(const ScheduleResult& a, const ScheduleResult& b) {
  ASSERT_EQ(a.trace.records().size(), b.trace.records().size());
  for (std::size_t i = 0; i < a.trace.records().size(); ++i) {
    const auto& ra = a.trace.records()[i];
    const auto& rb = b.trace.records()[i];
    EXPECT_EQ(ra.rank, rb.rank);
    EXPECT_EQ(ra.start_s, rb.start_s);  // bit-identical, not just close
    EXPECT_EQ(ra.end_s, rb.end_s);
    EXPECT_EQ(ra.tasks, rb.tasks);
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
}

// ---- Young/Daly -----------------------------------------------------------

TEST(YoungDaly, IntervalMath) {
  EXPECT_DOUBLE_EQ(young_daly_interval(0.5, 100.0),
                   std::sqrt(2.0 * 0.5 * 100.0));
  EXPECT_EQ(young_daly_interval(0, 100.0), 0);
  EXPECT_EQ(young_daly_interval(0.5, 0), 0);
}

TEST(YoungDaly, AutoModeDerivesIntervalFromPlanMtbf) {
  FaultPlan plan;
  plan.rank_failures.push_back({0, 2.0, RankRecovery::kCpuFallback});
  plan.rank_failures.push_back({1, 4.0, RankRecovery::kCpuFallback});
  // MTBF estimate = latest failure / count = 4.0 / 2 = 2.0.
  EXPECT_DOUBLE_EQ(plan.estimated_mtbf_s(), 2.0);

  CheckpointPolicy auto_ckpt;
  auto_ckpt.mode = CheckpointPolicy::Mode::kAuto;
  auto_ckpt.write_cost_s = 1e-3;
  EXPECT_DOUBLE_EQ(auto_ckpt.effective_interval_s(plan),
                   young_daly_interval(1e-3, 2.0));

  auto_ckpt.mtbf_hint_s = 8.0;  // hint overrides the plan estimate
  EXPECT_DOUBLE_EQ(auto_ckpt.effective_interval_s(plan),
                   young_daly_interval(1e-3, 8.0));

  // No failures planned -> MTBF 0 -> auto checkpointing stays off.
  auto_ckpt.mtbf_hint_s = 0;
  EXPECT_EQ(auto_ckpt.effective_interval_s(FaultPlan{}), 0);
}

TEST(CheckpointPolicy, ValidateRejectsGarbage) {
  CheckpointPolicy p;
  p.mode = CheckpointPolicy::Mode::kInterval;
  p.interval_s = -1;
  EXPECT_THROW(p.validate(), Error);
  p.interval_s = 1;
  p.write_cost_s = -1;
  EXPECT_THROW(p.validate(), Error);
}

// ---- On-disk round-trips --------------------------------------------------

CheckpointState sample_state() {
  CheckpointState s;
  s.time_s = 0.125;
  s.n_tasks = 4;
  s.n_ranks = 2;
  s.n_streams = 1;
  s.done = {1, 1, 0, 0};
  s.finish_time = {0.01, 0.02, 1e300, 1e300};
  s.attempts = {0, 2, 0, 0};
  s.owner = {0, 1, 0, 1};
  s.pending.push_back({2, 0.03});
  s.rank_free = {0.125, 0.124};
  s.stream_free = {0.125, 0.124};
  s.rank_dead = {0, 0};
  s.rank_cpu = {0, 1};
  s.failures_applied = 1;
  s.report.ranks_failed = 1;
  s.report.cpu_fallback_tasks = 3;
  s.report.checkpoints_taken = 2;
  s.report.checkpoint_write_s = 2e-4;
  return s;
}

TEST(CheckpointIO, RoundTrip) {
  const CheckpointState s = sample_state();
  std::stringstream ss;
  save_checkpoint(ss, s);
  const CheckpointState r = load_checkpoint(ss);
  EXPECT_EQ(r.time_s, s.time_s);
  EXPECT_EQ(r.n_tasks, s.n_tasks);
  EXPECT_EQ(r.n_ranks, s.n_ranks);
  EXPECT_EQ(r.n_streams, s.n_streams);
  EXPECT_EQ(r.done, s.done);
  EXPECT_EQ(r.finish_time, s.finish_time);
  EXPECT_EQ(r.attempts, s.attempts);
  EXPECT_EQ(r.owner, s.owner);
  ASSERT_EQ(r.pending.size(), s.pending.size());
  EXPECT_EQ(r.pending[0].id, s.pending[0].id);
  EXPECT_EQ(r.pending[0].arrival_s, s.pending[0].arrival_s);
  EXPECT_EQ(r.rank_free, s.rank_free);
  EXPECT_EQ(r.stream_free, s.stream_free);
  EXPECT_EQ(r.rank_dead, s.rank_dead);
  EXPECT_EQ(r.rank_cpu, s.rank_cpu);
  EXPECT_EQ(r.failures_applied, s.failures_applied);
  EXPECT_EQ(r.report.ranks_failed, s.report.ranks_failed);
  EXPECT_EQ(r.report.cpu_fallback_tasks, s.report.cpu_fallback_tasks);
  EXPECT_EQ(r.report.checkpoints_taken, s.report.checkpoints_taken);
  EXPECT_EQ(r.report.checkpoint_write_s, s.report.checkpoint_write_s);
}

TEST(CheckpointIO, RejectsBadMagicAndVersion) {
  std::stringstream ss;
  save_checkpoint(ss, sample_state());
  std::string bytes = ss.str();

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x40;  // corrupt the magic
  std::stringstream in1(bad_magic);
  EXPECT_THROW(load_checkpoint(in1), Error);

  std::string bad_version = bytes;
  bad_version[4] ^= 0x7f;  // bump the version field past what we read
  std::stringstream in2(bad_version);
  EXPECT_THROW(load_checkpoint(in2), Error);

  std::stringstream in3(bytes.substr(0, bytes.size() / 2));  // truncated
  EXPECT_THROW(load_checkpoint(in3), Error);
}

TEST(CheckpointIO, SavedBytesIgnoreStructPadding) {
  // Pending is {int32 id, double arrival}: each entry carries padding.
  // Two buffers holding the same logical entries over different stale
  // bytes must save to byte-identical files.
  static_assert(sizeof(CheckpointState::Pending) >
                sizeof(index_t) + sizeof(real_t));
  const auto save_over = [](unsigned char stale) {
    CheckpointState s = sample_state();
    const std::vector<CheckpointState::Pending> want = {{2, 0.03},
                                                        {3, 0.04}};
    std::vector<CheckpointState::Pending> buf(want.size());
    std::memset(static_cast<void*>(buf.data()), stale,
                buf.size() * sizeof(CheckpointState::Pending));
    for (std::size_t i = 0; i < want.size(); ++i) {
      buf[i].id = want[i].id;
      buf[i].arrival_s = want[i].arrival_s;
    }
    s.pending = std::move(buf);
    std::stringstream ss;
    save_checkpoint(ss, s);
    return ss.str();
  };
  const std::string a = save_over(0x00);
  EXPECT_EQ(a, save_over(0xa5));

  // The previous format (version 2, raw structs) fails with the typed
  // error rather than being misread.
  std::string v2 = a;
  v2[4] = 2;
  std::stringstream in(v2);
  EXPECT_THROW(load_checkpoint(in), bin::IoError);
}

TEST(FaultReportIO, RoundTripEmptyPartialFatal) {
  FaultReport empty;
  FaultReport partial;
  partial.transient_faults = 5;
  partial.retries = 5;
  partial.backoff_delay_s = 1e-3;
  partial.ranks_failed = 1;
  partial.tasks_migrated = 7;
  partial.checkpoints_taken = 3;
  partial.ranks_restarted = 1;
  partial.tasks_restarted = 4;
  partial.restore_s = 5e-4;
  FaultReport fatal = partial;
  fatal.fatal_faults = 2;
  fatal.escalate_refinement = true;
  fatal.guards.nonfinite_scrubbed = 9;
  fatal.guards.tasks_fired = 2;

  for (const FaultReport& r : {empty, partial, fatal}) {
    std::stringstream ss;
    save_fault_report(ss, r);
    const FaultReport b = load_fault_report(ss);
    EXPECT_EQ(b.transient_faults, r.transient_faults);
    EXPECT_EQ(b.retries, r.retries);
    EXPECT_EQ(b.backoff_delay_s, r.backoff_delay_s);
    EXPECT_EQ(b.ranks_failed, r.ranks_failed);
    EXPECT_EQ(b.tasks_migrated, r.tasks_migrated);
    EXPECT_EQ(b.checkpoints_taken, r.checkpoints_taken);
    EXPECT_EQ(b.ranks_restarted, r.ranks_restarted);
    EXPECT_EQ(b.tasks_restarted, r.tasks_restarted);
    EXPECT_EQ(b.restore_s, r.restore_s);
    EXPECT_EQ(b.fatal_faults, r.fatal_faults);
    EXPECT_EQ(b.escalate_refinement, r.escalate_refinement);
    EXPECT_EQ(b.guards.nonfinite_scrubbed, r.guards.nonfinite_scrubbed);
    EXPECT_EQ(b.guards.tasks_fired, r.guards.tasks_fired);
    EXPECT_EQ(b.fully_accounted(), r.fully_accounted());
  }
}

TEST(FaultReportIO, RejectsVersionMismatch) {
  std::stringstream ss;
  save_fault_report(ss, FaultReport{});
  std::string bytes = ss.str();
  bytes[4] ^= 0x7f;
  std::stringstream in(bytes);
  EXPECT_THROW(load_fault_report(in), Error);
}

// ---- Same-timestamp fault ordering ---------------------------------------

TEST(FaultOrder, SameTimestampAppliesInRankOrderNotListOrder) {
  const TaskGraph g = panel_chain(8, 8, 4);
  ScheduleOptions a = cluster_options(4);
  const real_t m = simulate(g, cluster_options(4), nullptr).makespan_s;
  const real_t t = m * 0.4;

  a.faults.rank_failures.push_back({2, t, RankRecovery::kMigrate});
  a.faults.rank_failures.push_back({0, t, RankRecovery::kCpuFallback});

  ScheduleOptions b = cluster_options(4);
  b.faults.rank_failures.push_back({0, t, RankRecovery::kCpuFallback});
  b.faults.rank_failures.push_back({2, t, RankRecovery::kMigrate});

  expect_identical(simulate(g, a, nullptr), simulate(g, b, nullptr));
}

// ---- Checkpoint capture & restart recovery --------------------------------

TEST(Checkpoint, DisabledPolicyLeavesScheduleUntouched) {
  const TaskGraph g = panel_chain(10, 8, 4);
  const ScheduleResult base = simulate(g, cluster_options(4), nullptr);

  // A cadence beyond the makespan: pending-state tracking runs, but no
  // checkpoint ever fires — the timeline must stay bit-identical.
  ScheduleOptions tracked = cluster_options(4);
  tracked.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  tracked.checkpoint.interval_s = base.makespan_s * 10;
  tracked.checkpoint.write_cost_s = base.makespan_s * 0.01;
  const ScheduleResult r = simulate(g, tracked, nullptr);
  expect_identical(base, r);
  EXPECT_EQ(r.stats().faults.checkpoints_taken, 0);
  EXPECT_TRUE(r.stats().checkpoint.empty());
}

TEST(Checkpoint, WritePausesArePricedAndAccounted) {
  const TaskGraph g = panel_chain(10, 8, 4);
  const ScheduleResult base = simulate(g, cluster_options(4), nullptr);

  ScheduleOptions o = cluster_options(4);
  o.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  o.checkpoint.interval_s = base.makespan_s / 5;
  o.checkpoint.write_cost_s = base.makespan_s / 100;
  const ScheduleResult r = simulate(g, o, nullptr);
  EXPECT_GE(r.stats().faults.checkpoints_taken, 4);
  EXPECT_GT(r.stats().faults.checkpoint_write_s, 0);
  EXPECT_GT(r.makespan_s, base.makespan_s);  // writes cost simulated time
  EXPECT_FALSE(r.stats().checkpoint.empty());
  EXPECT_EQ(r.stats().checkpoint.n_tasks, g.size());
}

TEST(Restart, RecoversAndReexecutesLostWork) {
  const TaskGraph g = panel_chain(12, 8, 4);
  const real_t m = simulate(g, cluster_options(4), nullptr).makespan_s;

  ScheduleOptions o = cluster_options(4);
  o.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  // Interval m/3 with the failure at 0.55m: the last checkpoint lands at
  // m/3, so ~0.22m of rank 1's completions are lost and re-executed. (A
  // failure aligned exactly on a checkpoint instant loses nothing — the
  // capture fires first on ties.)
  o.checkpoint.interval_s = m / 3;
  o.checkpoint.write_cost_s = m / 200;
  o.checkpoint.restore_cost_s = m / 50;
  o.faults.rank_failures.push_back(
      {1, m * 0.55, RankRecovery::kRestartFromCheckpoint});
  const ScheduleResult r = simulate(g, o, nullptr);  // validator runs
  EXPECT_EQ(r.stats().faults.ranks_restarted, 1);
  EXPECT_GT(r.stats().faults.tasks_restarted, 0);
  EXPECT_GT(r.stats().faults.restore_s, 0);
  EXPECT_TRUE(r.stats().faults.fully_accounted());
  EXPECT_GT(r.makespan_s, m);
}

TEST(Restart, WithoutAnyCheckpointRollsBackToStart) {
  const TaskGraph g = panel_chain(6, 6, 2);
  const real_t m = simulate(g, cluster_options(2), nullptr).makespan_s;

  ScheduleOptions o = cluster_options(2);  // checkpointing off
  o.faults.rank_failures.push_back(
      {0, m * 0.6, RankRecovery::kRestartFromCheckpoint});
  const ScheduleResult r = simulate(g, o, nullptr);
  EXPECT_EQ(r.stats().faults.ranks_restarted, 1);
  // Everything rank 0 had completed by 0.6*m is lost and re-executed.
  EXPECT_GT(r.stats().faults.tasks_restarted, 0);
  EXPECT_TRUE(r.stats().faults.fully_accounted());
}

TEST(Restart, BeatsMigrationOnLongFactorisations) {
  // The ISSUE acceptance scenario: on a long run, restarting a dead rank
  // from a recent checkpoint (cluster keeps its width, loses <= one
  // interval of work on one rank) must beat permanently migrating the
  // rank's work onto the survivors.
  const TaskGraph g = panel_chain(40, 16, 4, /*flops_scale=*/64);
  const real_t m = simulate(g, cluster_options(4), nullptr).makespan_s;

  ScheduleOptions mig = cluster_options(4);
  mig.faults.rank_failures.push_back({1, m * 0.3, RankRecovery::kMigrate});
  const real_t migrate_makespan = simulate(g, mig, nullptr).makespan_s;

  ScheduleOptions res = cluster_options(4);
  res.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  res.checkpoint.interval_s = m / 10;
  res.checkpoint.write_cost_s = m / 500;
  res.checkpoint.restore_cost_s = m / 100;
  res.faults.rank_failures.push_back(
      {1, m * 0.3, RankRecovery::kRestartFromCheckpoint});
  const real_t restart_makespan = simulate(g, res, nullptr).makespan_s;

  EXPECT_LT(restart_makespan, migrate_makespan);
}

// ---- Bit-identical resume -------------------------------------------------

TEST(Resume, ReplaysTheRemainingScheduleBitIdentically) {
  const TaskGraph g = panel_chain(12, 8, 4);
  ScheduleOptions o = cluster_options(4);
  const real_t m = simulate(g, o, nullptr).makespan_s;
  o.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  o.checkpoint.interval_s = m / 4;
  o.checkpoint.write_cost_s = m / 100;
  const ScheduleResult full = simulate(g, o, nullptr);
  const CheckpointState& snap = full.stats().checkpoint;
  ASSERT_FALSE(snap.empty());

  // Round-trip the snapshot through the on-disk format first: the resumed
  // run must not depend on in-memory state the format fails to carry.
  std::stringstream ss;
  save_checkpoint(ss, snap);
  const CheckpointState loaded = load_checkpoint(ss);

  ScheduleOptions ro = cluster_options(4);
  ro.checkpoint = o.checkpoint;
  ro.resume = loaded;
  const ScheduleResult tail = simulate(g, ro, nullptr);

  // The full trace splits at the snapshot instant: every launch before it
  // is already in the checkpoint, every launch after it must replay
  // bit-identically in the resumed run.
  std::size_t split = 0;
  while (split < full.trace.records().size() &&
         full.trace.records()[split].start_s < snap.time_s) {
    ++split;
  }
  ASSERT_GT(full.trace.records().size(), split) << "snapshot after last launch";
  ASSERT_EQ(tail.trace.records().size(),
            full.trace.records().size() - split);
  for (std::size_t i = 0; i < tail.trace.records().size(); ++i) {
    const auto& rf = full.trace.records()[split + i];
    const auto& rt = tail.trace.records()[i];
    EXPECT_EQ(rf.rank, rt.rank);
    EXPECT_EQ(rf.start_s, rt.start_s);  // bit-identical
    EXPECT_EQ(rf.end_s, rt.end_s);
    EXPECT_EQ(rf.tasks, rt.tasks);
  }
  EXPECT_EQ(tail.makespan_s, full.makespan_s);
  // Counters continue from the snapshot, so the final reports agree.
  EXPECT_EQ(tail.stats().faults.checkpoints_taken,
            full.stats().faults.checkpoints_taken);
}

TEST(Resume, RejectsMismatchedShapes) {
  const TaskGraph g = panel_chain(6, 6, 2);
  ScheduleOptions o = cluster_options(2);
  o.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
  const real_t m = simulate(g, cluster_options(2), nullptr).makespan_s;
  o.checkpoint.interval_s = m / 4;
  o.checkpoint.write_cost_s = m / 100;
  const CheckpointState snap = simulate(g, o, nullptr).stats().checkpoint;
  ASSERT_FALSE(snap.empty());

  ScheduleOptions wrong = cluster_options(4);  // rank count differs
  wrong.resume = snap;
  EXPECT_THROW(simulate(g, wrong, nullptr), Error);

  const TaskGraph other = panel_chain(4, 4, 2);  // task count differs
  ScheduleOptions ro = cluster_options(2);
  ro.resume = snap;
  EXPECT_THROW(simulate(other, ro, nullptr), Error);
}

// ---- Validator ------------------------------------------------------------

TEST(Validator, PassesEveryPolicyUnderFaults) {
  const TaskGraph g = panel_chain(10, 8, 4);
  for (Policy p : {Policy::kLevelPerTask, Policy::kPriorityPerTask,
                   Policy::kMultiStream, Policy::kDmdas,
                   Policy::kTrojanHorse}) {
    ScheduleOptions o = cluster_options(4, p);
    const real_t m = simulate(g, o, nullptr).makespan_s;
    o.faults.rank_failures.push_back({3, m * 0.3, RankRecovery::kMigrate});
    o.faults.rank_failures.push_back(
        {0, m * 0.5, RankRecovery::kCpuFallback});
    o.faults.set_transient_all(2e-3);
    const ScheduleResult r = simulate(g, o, nullptr);  // validate = true
    const ValidationReport rep = validate_schedule(g, o, r);
    EXPECT_TRUE(rep.ok()) << policy_name(p) << ": " << rep.summary();
    EXPECT_GT(rep.checked_edges, 0);
  }
}

TEST(Validator, FlagsTamperedTimelines) {
  const TaskGraph g = panel_chain(8, 8, 4);
  ScheduleOptions o = cluster_options(4);
  o.validate_schedule = false;
  o.collect_batches = true;
  ScheduleResult r = simulate(g, o, nullptr);
  ASSERT_TRUE(validate_schedule(g, o, r).ok());

  // A launch pulled earlier than its predecessors' data can arrive.
  ScheduleResult early = r;
  auto& recs = obs::testing::mutable_records(early.trace);
  ASSERT_GT(recs.size(), 4u);
  recs[recs.size() / 2].start_s = 0;
  recs[recs.size() / 2].end_s = 1e-9;
  EXPECT_FALSE(validate_schedule(g, o, early).ok());

  // A cooked fault report (claims a retry that never happened).
  ScheduleResult cooked = r;
  cooked.stats().faults.transient_faults = 1;
  cooked.stats().faults.retries = 1;
  EXPECT_FALSE(validate_schedule(g, o, cooked).ok());

  // A dropped execution (task never completes).
  ScheduleResult dropped = r;
  dropped.stats().batches.back().status.back() = 1;  // faulted, no retry
  EXPECT_FALSE(validate_schedule(g, o, dropped).ok());
}

}  // namespace
}  // namespace th
