#include "core/scheduler.hpp"

#include "core/sim_state.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
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

bool replay_eligible(const ScheduleOptions& opt) {
  return opt.faults.empty() && !opt.abft.enabled && !opt.mem.enabled() &&
         !opt.checkpoint.enabled() && !opt.resume.has_value() &&
         !opt.validate_schedule && !opt.collect_batches;
}

ScheduleResult simulate(const TaskGraph& graph, const ScheduleOptions& opt,
                        NumericBackend* backend, SchedulePlan* plan) {
  TH_CHECK_MSG(graph.finalized(), "simulate() requires a finalized graph");
  opt.validate();
  detail::SimState s(graph, opt, backend);
  if (plan != nullptr) {
    *plan = SchedulePlan{};
    plan->replayable = replay_eligible(opt);
    if (plan->replayable) s.sched_plan = plan;
  }
  if (opt.resume.has_value()) {
    s.restore(*opt.resume);
  } else {
    s.seed();
  }

  // The event loop: one launch per iteration, its batch carried through
  // the units in a fixed order (DESIGN.md "simulate() anatomy"). One Launch
  // is reused, so its per-member vectors are allocated once per run.
  detail::Launch l;
  while (s.completed < s.n) {
    const auto [rank, t0] = s.next_event();
    s.poll_cancel(t0);
    if (s.mem_mode) s.apply_pressure(t0);
    detail::RankState& st = s.ranks[static_cast<std::size_t>(rank)];
    s.drain_arrivals(st, t0);
    l.begin(rank, t0, &st);
    s.form_batch(st, l.batch);
    if (l.batch.ids.empty()) continue;  // only stale entries were pending
    s.reserve_memory(l);
    s.record_aggregate(l);
    s.decide_transients(l);
    s.plant_corruptions(l);
    const BatchResult br = s.execute(l);
    s.settle_abft(l);
    s.log_batch(l);
    s.price(l, br);
    s.complete(l);
    s.wake_successors(l);
  }

  ScheduleResult result = s.finish();
  if (opt.validate_schedule) check_schedule(graph, opt, result);
  if (plan != nullptr) {
    if (plan->replayable) {
      plan->batch_ptr.push_back(static_cast<index_t>(plan->ids.size()));
    }
    plan->result = result;
    plan->result.stats().exec = exec::ExecStats{};
  }
  return result;
}

ScheduleResult replay(const TaskGraph& graph, const SchedulePlan& plan,
                      const ScheduleOptions& opt, NumericBackend* backend) {
  if (!plan.replayable || !replay_eligible(opt)) {
    return simulate(graph, opt, backend);
  }
  TH_CHECK_MSG(graph.finalized(), "replay() requires a finalized graph");
  opt.validate();
  TH_CHECK_MSG(static_cast<index_t>(plan.ids.size()) == graph.size() &&
                   plan.result.stats().ranks.size() ==
                       static_cast<std::size_t>(opt.n_ranks),
               "schedule plan (" << plan.ids.size() << " tasks, "
                                 << plan.result.stats().ranks.size()
                                 << " ranks) does not match this run ("
                                 << graph.size() << " tasks, " << opt.n_ranks
                                 << " ranks)");
  const bool obs_on = obs::enabled();
  // A live run records a batch's size where the aggregate stage formed it.
  const bool batch_sizes = obs_on && opt.policy == Policy::kTrojanHorse &&
                           !opt.cpu_mode;
  Executor executor(KernelCostModel(opt.cluster.gpu), backend, opt.exec);
  for (std::size_t i = 0; i < plan.polls.size(); ++i) {
    const index_t* first = plan.ids.data() + plan.batch_ptr[i];
    const index_t* last = plan.ids.data() + plan.batch_ptr[i + 1];
    detail::check_cancel(opt.cancel, plan.polls[i], plan.batch_ptr[i],
                         obs_on);
    if (first == last) continue;
    if (backend != nullptr) executor.run(graph, first, last);
    if (batch_sizes) {
      obs::Registry::global()
          .histogram("th.sched.batch_size")
          .record(static_cast<double>(last - first));
    }
  }
  ScheduleResult result = plan.result;
  result.stats().exec = executor.exec_stats();
  if (obs_on) {
    detail::publish_result_metrics(result, graph.size(), backend != nullptr);
  }
  return result;
}

}  // namespace th
