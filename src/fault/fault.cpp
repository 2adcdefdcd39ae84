#include "fault/fault.hpp"

#include "obs/metrics.hpp"

namespace th {

const char* numeric_fault_name(NumericFaultKind k) {
  switch (k) {
    case NumericFaultKind::kNaN:
      return "nan";
    case NumericFaultKind::kInf:
      return "inf";
    case NumericFaultKind::kTinyPivot:
      return "tiny-pivot";
    case NumericFaultKind::kBitFlip:
      return "bitflip";
    case NumericFaultKind::kScaledEntry:
      return "scale";
    case NumericFaultKind::kSilentNaN:
      return "snan";
  }
  return "?";
}

const char* rank_recovery_name(RankRecovery r) {
  switch (r) {
    case RankRecovery::kMigrate:
      return "migrate";
    case RankRecovery::kCpuFallback:
      return "cpu-fallback";
    case RankRecovery::kRestartFromCheckpoint:
      return "restart";
  }
  return "?";
}

real_t FaultPlan::estimated_mtbf_s() const {
  if (rank_failures.empty()) return 0;
  real_t latest = 0;
  for (const RankFailure& f : rank_failures) {
    if (f.time_s > latest) latest = f.time_s;
  }
  return latest / static_cast<real_t>(rank_failures.size());
}

real_t FaultPlan::link_bw_factor(int node_a, int node_b) const {
  real_t factor = 1.0;
  for (const LinkDegrade& d : link_degrades) {
    const bool hit = (d.node_a == node_a && d.node_b == node_b) ||
                     (d.node_a == node_b && d.node_b == node_a);
    // Multiple degrades on one pair compound (two flaky hops).
    if (hit) factor *= d.bw_factor;
  }
  return factor;
}

real_t FaultPlan::backoff_s(int attempt) const {
  TH_ASSERT(attempt >= 1);
  real_t delay = backoff_base_s;
  for (int i = 1; i < attempt; ++i) delay *= backoff_multiplier;
  return delay;
}

void FaultPlan::validate(int n_ranks) const {
  for (real_t p : transient_prob) {
    TH_CHECK_MSG(p >= 0 && p <= 1,
                 "transient fault probability " << p << " outside [0, 1]");
  }
  for (const RankFailure& f : rank_failures) {
    TH_CHECK_MSG(f.rank >= 0 && f.rank < n_ranks,
                 "rank failure targets rank " << f.rank << " but only "
                                              << n_ranks << " ranks exist");
    TH_CHECK_MSG(f.time_s >= 0, "rank failure time must be >= 0");
  }
  // Only kMigrate removes a rank for good; restarted / CPU-degraded ranks
  // keep computing, so they don't count toward "no survivor" exhaustion.
  int migrating = 0;
  for (const RankFailure& f : rank_failures) {
    if (f.recovery == RankRecovery::kMigrate) ++migrating;
  }
  TH_CHECK_MSG(migrating < n_ranks,
               "fault plan kills all " << n_ranks
                                       << " ranks with no survivor to "
                                          "migrate to");
  for (const LinkDegrade& d : link_degrades) {
    TH_CHECK_MSG(d.node_a >= 0 && d.node_b >= 0,
                 "link degrade node indices must be >= 0");
    TH_CHECK_MSG(d.bw_factor >= 1.0,
                 "link degrade factor " << d.bw_factor
                                        << " must be >= 1 (it divides "
                                           "bandwidth)");
  }
  for (const NumericFault& f : numeric_faults) {
    TH_CHECK_MSG(f.task_id >= 0,
                 "numeric fault needs a non-negative task id");
  }
  for (const MemPressure& m : mem_pressure) {
    TH_CHECK_MSG(m.rank >= -1 && m.rank < n_ranks,
                 "mem pressure targets rank " << m.rank << " but only "
                                              << n_ranks << " ranks exist");
    TH_CHECK_MSG(m.time_s >= 0, "mem pressure time must be >= 0");
    TH_CHECK_MSG(m.capacity_factor > 0 && m.capacity_factor <= 1.0,
                 "mem pressure capacity factor "
                     << m.capacity_factor << " outside (0, 1]");
  }
  TH_CHECK_MSG(mem_alloc_fail_prob >= 0 && mem_alloc_fail_prob <= 1,
               "mem alloc failure probability " << mem_alloc_fail_prob
                                                << " outside [0, 1]");
  for (const DurabilityCrash& c : crashes) {
    TH_CHECK_MSG(valid_crash_event(c.event),
                 "unknown crash event '"
                     << c.event << "' (want open|commit|retire|append)");
    TH_CHECK_MSG(c.after >= 1,
                 "crash count must be >= 1, got " << c.after);
  }
  TH_CHECK_MSG(max_retries >= 0, "max_retries must be >= 0");
  TH_CHECK_MSG(backoff_base_s >= 0, "backoff_base_s must be >= 0");
  TH_CHECK_MSG(backoff_multiplier >= 1.0, "backoff_multiplier must be >= 1");
  TH_CHECK_MSG(guard.tiny_pivot_rel > 0, "tiny_pivot_rel must be positive");
}

namespace {

// SplitMix64 finaliser: a high-quality 64 -> 64 bit mix.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool transient_fault_fires(const FaultPlan& plan, index_t task_id,
                           int attempt, TaskType type) {
  const real_t p = plan.transient_p(type);
  if (p <= 0) return false;
  if (p >= 1) return true;
  std::uint64_t h = mix64(plan.seed);
  h = mix64(h ^ static_cast<std::uint64_t>(task_id));
  h = mix64(h ^ (static_cast<std::uint64_t>(attempt) << 32));
  const real_t u = static_cast<real_t>(h >> 11) * 0x1.0p-53;
  return u < p;
}

bool mem_alloc_fails(const FaultPlan& plan, int rank, offset_t alloc_seq) {
  const real_t p = plan.mem_alloc_fail_prob;
  if (p <= 0) return false;
  if (p >= 1) return true;
  std::uint64_t h = mix64(plan.seed ^ 0x6d656d616c6c6fULL);  // "memallo"
  h = mix64(h ^ static_cast<std::uint64_t>(rank));
  h = mix64(h ^ (static_cast<std::uint64_t>(alloc_seq) << 16));
  const real_t u = static_cast<real_t>(h >> 11) * 0x1.0p-53;
  return u < p;
}

void FaultReport::publish_metrics() const {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("th.fault.transient").add(transient_faults);
  reg.counter("th.fault.retries").add(retries);
  reg.gauge("th.fault.backoff_s").add(backoff_delay_s);
  reg.counter("th.fault.ranks_failed").add(ranks_failed);
  reg.counter("th.fault.tasks_migrated").add(tasks_migrated);
  reg.counter("th.fault.cpu_fallback_tasks").add(cpu_fallback_tasks);
  reg.counter("th.fault.numeric_injected").add(numeric_faults_injected);
  reg.counter("th.fault.guard_scrubs").add(guards.nonfinite_scrubbed);
  reg.counter("th.fault.guard_pivots").add(guards.pivots_perturbed);
  reg.counter("th.fault.guard_tasks").add(guards.tasks_fired);
  reg.counter("th.fault.abft_corrected").add(abft_corrected);
  reg.counter("th.fault.fatal").add(fatal_faults);
  reg.counter("th.ckpt.taken").add(checkpoints_taken);
  reg.gauge("th.ckpt.write_s").add(checkpoint_write_s);
  reg.gauge("th.ckpt.restore_s").add(restore_s);
  reg.counter("th.ckpt.ranks_restarted").add(ranks_restarted);
  reg.counter("th.ckpt.tasks_restarted").add(tasks_restarted);
}

int remap_owner(index_t row, index_t col, const std::vector<int>& survivors) {
  TH_CHECK_MSG(!survivors.empty(), "no surviving ranks to migrate to");
  const int n = static_cast<int>(survivors.size());
  // Most-square grid factorisation, as make_process_grid() in
  // solvers/block_cyclic.hpp (duplicated here to keep th_fault below
  // th_solvers in the layering).
  int pr = 1;
  for (int d = 1; d * d <= n; ++d) {
    if (n % d == 0) pr = d;
  }
  const int pc = n / pr;
  const int slot =
      static_cast<int>(row % pr) * pc + static_cast<int>(col % pc);
  return survivors[static_cast<std::size_t>(slot)];
}

}  // namespace th
