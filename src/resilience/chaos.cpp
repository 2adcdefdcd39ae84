#include "resilience/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "resilience/chaos_rng.hpp"
#include "support/error.hpp"
#include "support/spec.hpp"

namespace th {

using chaos_rng::below;
using chaos_rng::mix64;
using chaos_rng::unit;

namespace {

enum class Outcome { kValidated, kAborted, kFailed };

// Aborts the scheduler raises by design when a plan overwhelms the
// recovery machinery; everything else a scenario throws is a finding.
bool is_legitimate_abort(const std::string& what) {
  return what.find("exhausted its retry budget") != std::string::npos ||
         what.find("every rank has failed") != std::string::npos ||
         what.find("exceeds the memory budget") != std::string::npos;
}

Outcome run_scenario(const TaskGraph& graph, ScheduleOptions so,
                     const FaultPlan& plan, const CheckpointPolicy& ckpt,
                     std::string* what) {
  so.faults = plan;
  so.checkpoint = ckpt;
  so.validate_schedule = true;
  try {
    simulate(graph, so, nullptr);
    return Outcome::kValidated;
  } catch (const Error& e) {
    if (is_legitimate_abort(e.what())) return Outcome::kAborted;
    if (what != nullptr) *what = e.what();
    return Outcome::kFailed;
  } catch (const std::exception& e) {
    if (what != nullptr) *what = e.what();
    return Outcome::kFailed;
  }
}

CheckpointPolicy scenario_checkpoint(std::uint64_t& s, real_t horizon_s) {
  CheckpointPolicy ck;
  switch (below(s, 4)) {
    case 0:
    case 1:
      break;  // half the scenarios run without checkpointing
    case 2:
      ck.mode = CheckpointPolicy::Mode::kInterval;
      ck.interval_s = horizon_s * (0.05 + 0.35 * unit(s));
      break;
    case 3:
      ck.mode = CheckpointPolicy::Mode::kAuto;
      // A plan-derived MTBF can undercut the write cost and turn the
      // Young/Daly cadence into a checkpoint storm (which the scheduler
      // rejects); pin the hint well above it instead.
      ck.mtbf_hint_s = horizon_s * (0.1 + unit(s));
      break;
  }
  // Keep the write pause strictly below any cadence this scenario can
  // produce — storms are a configuration error, not a chaos finding.
  ck.write_cost_s = horizon_s * 0.002 * (0.5 + unit(s));
  ck.restore_cost_s = horizon_s * 0.01 * (0.5 + unit(s));
  return ck;
}

}  // namespace

FaultPlan shrink_fault_plan(
    FaultPlan plan, const std::function<bool(const FaultPlan&)>& still_fails,
    int budget) {
  auto try_fails = [&](const FaultPlan& p) {
    if (budget-- <= 0) return false;
    return still_fails(p);
  };
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (std::size_t i = 0; i < plan.rank_failures.size(); ++i) {
      FaultPlan c = plan;
      c.rank_failures.erase(c.rank_failures.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < plan.link_degrades.size(); ++i) {
      FaultPlan c = plan;
      c.link_degrades.erase(c.link_degrades.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < plan.numeric_faults.size(); ++i) {
      FaultPlan c = plan;
      c.numeric_faults.erase(c.numeric_faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < plan.mem_pressure.size(); ++i) {
      FaultPlan c = plan;
      c.mem_pressure.erase(c.mem_pressure.begin() +
                           static_cast<std::ptrdiff_t>(i));
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    if (plan.mem_alloc_fail_prob > 0) {
      FaultPlan c = plan;
      c.mem_alloc_fail_prob = 0;
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
      }
    }
    if (changed) continue;
    if (plan.has_transient()) {
      FaultPlan c = plan;
      c.set_transient_all(0);
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
      }
    }
    if (changed) continue;
    if (plan.numeric_guards) {
      FaultPlan c = plan;
      c.numeric_guards = false;
      if (try_fails(c)) {
        plan = std::move(c);
        changed = true;
      }
    }
  }
  return plan;
}

FaultPlan random_fault_plan(std::uint64_t seed, const TaskGraph& graph,
                            int n_ranks, real_t horizon_s) {
  std::uint64_t s = seed ^ 0xc3a5c85c97cb3127ULL;
  FaultPlan plan;
  plan.seed = mix64(s);
  plan.max_retries = 3 + below(s, 4);

  // Transient storms: most scenarios crash some kernels.
  if (unit(s) < 0.6) {
    const real_t p = 5e-4 * std::pow(40.0, unit(s));  // 5e-4 .. 2e-2
    plan.set_transient_all(p);
  }

  // Rank failures. Migrate-deaths stay strictly below n_ranks so the
  // cluster keeps at least one survivor; restarts and CPU fallbacks do
  // not shrink the cluster and are unconstrained. A "fault storm" pins
  // every failure to one timestamp to exercise the deterministic
  // same-time ordering.
  const bool storm = unit(s) < 0.25;
  const real_t storm_t = horizon_s * unit(s);
  const int max_deaths = std::max(0, n_ranks - 1);
  const int deaths = below(s, max_deaths + 1);
  int migrated = 0;
  const int events = deaths + below(s, n_ranks + 1);
  for (int e = 0; e < events; ++e) {
    RankFailure f;
    f.rank = below(s, n_ranks);
    f.time_s = storm ? storm_t : horizon_s * (0.05 + 1.1 * unit(s));
    const double kind = unit(s);
    if (migrated < deaths && kind < 0.4) {
      f.recovery = RankRecovery::kMigrate;
      ++migrated;
    } else if (kind < 0.75) {
      f.recovery = RankRecovery::kRestartFromCheckpoint;
    } else {
      f.recovery = RankRecovery::kCpuFallback;
    }
    plan.rank_failures.push_back(f);
  }

  // Link degrades between a few node pairs.
  const int degrades = below(s, 3);
  for (int d = 0; d < degrades; ++d) {
    LinkDegrade ld;
    ld.node_a = below(s, 4);
    ld.node_b = below(s, 4);
    ld.bw_factor = 1.0 + 7.0 * unit(s);
    plan.link_degrades.push_back(ld);
  }

  // Corruption bursts: a clutch of numeric faults on random tasks. Mixes
  // guard-visible kinds with the silent (ABFT-only) kinds; in timing-only
  // soak both merely exercise the plan bookkeeping.
  if (graph.size() > 0 && unit(s) < 0.3) {
    const int burst = 1 + below(s, 4);
    for (int b = 0; b < burst; ++b) {
      NumericFault nf;
      nf.task_id = below(s, static_cast<int>(graph.size()));
      switch (below(s, 6)) {
        case 0: nf.kind = NumericFaultKind::kNaN; break;
        case 1: nf.kind = NumericFaultKind::kInf; break;
        case 2: nf.kind = NumericFaultKind::kTinyPivot; break;
        case 3: nf.kind = NumericFaultKind::kBitFlip; break;
        case 4: nf.kind = NumericFaultKind::kScaledEntry; break;
        default: nf.kind = NumericFaultKind::kSilentNaN; break;
      }
      plan.numeric_faults.push_back(nf);
    }
  }

  // Memory-pressure ramps (the mem_pressure fault kind, src/mem): a
  // quarter of the scenarios shrink one rank's — or every rank's —
  // modelled capacity mid-run, some with transient allocation failures on
  // top. Inert unless the scenario also arms a memory budget (run_chaos
  // does whenever the plan carries pressure).
  if (unit(s) < 0.25) {
    const int ramps = 1 + below(s, 3);
    for (int m = 0; m < ramps; ++m) {
      MemPressure mp;
      mp.rank = unit(s) < 0.3 ? -1 : below(s, n_ranks);
      mp.time_s = horizon_s * (0.05 + 1.1 * unit(s));
      mp.capacity_factor = 0.5 + 0.45 * unit(s);
      plan.mem_pressure.push_back(mp);
    }
    if (unit(s) < 0.3) plan.mem_alloc_fail_prob = 0.001 + 0.02 * unit(s);
  }
  return plan;
}

FaultPlan random_corruption_plan(std::uint64_t seed, const TaskGraph& graph,
                                 int max_faults) {
  TH_CHECK_MSG(graph.size() > 0 && max_faults >= 1,
               "corruption plan needs a non-empty graph and max_faults >= 1");
  std::uint64_t s = seed ^ 0x2545f4914f6cdd1dULL;
  FaultPlan plan;
  plan.seed = mix64(s);
  const int n = 1 + below(s, max_faults);
  for (int b = 0; b < n; ++b) {
    NumericFault nf;
    // Spread faults across the graph (and thus across all four kernel
    // types — early ids are factor-panel heavy, late ids update-heavy).
    nf.task_id = below(s, static_cast<int>(graph.size()));
    switch (below(s, 3)) {
      case 0: nf.kind = NumericFaultKind::kBitFlip; break;
      case 1: nf.kind = NumericFaultKind::kScaledEntry; break;
      default: nf.kind = NumericFaultKind::kSilentNaN; break;
    }
    // One fault per task. The scheduler would cope with a second one (it
    // plants at most one corruption per task per attempt and keeps the
    // rest for the retry); the dedupe stays so fixed soak seeds keep
    // drawing the plans they always drew.
    bool dup = false;
    for (const NumericFault& prev : plan.numeric_faults) {
      if (prev.task_id == nf.task_id) dup = true;
    }
    if (!dup) plan.numeric_faults.push_back(nf);
  }
  return plan;
}

std::string fault_plan_spec(const FaultPlan& plan) {
  // The spec vocabulary (and its round-trip with the CLI's --faults parser)
  // lives in support/spec.hpp so the CLI, the chaos repro lines and the
  // serve replay mode cannot drift apart.
  return spec::render_fault_spec(plan);
}

std::string ChaosReport::summary() const {
  std::ostringstream os;
  os << scenarios_run << " scenario(s): " << validated << " validated, "
     << aborted << " aborted legitimately, " << failures.size()
     << " failed";
  for (const ChaosFailure& f : failures) {
    os << "\n  graph " << f.graph_index << " / " << policy_name(f.policy)
       << " / seed " << f.scenario_seed
       << (f.checkpointing ? " (checkpointing)" : "");
    if (f.mem_budget_bytes > 0) {
      os << " (mem budget " << f.mem_budget_bytes << " B)";
    }
    os << ": " << f.what << "\n    repro: --faults " << f.repro;
  }
  return os.str();
}

ChaosReport run_chaos(const std::vector<const TaskGraph*>& graphs,
                      const ChaosOptions& opt) {
  TH_CHECK_MSG(opt.scenarios >= 1 && opt.n_ranks >= 1,
               "chaos soak needs scenarios >= 1 and n_ranks >= 1");
  static const Policy kAll[] = {Policy::kLevelPerTask,
                                Policy::kPriorityPerTask,
                                Policy::kMultiStream, Policy::kDmdas,
                                Policy::kTrojanHorse};
  const std::vector<Policy> policies =
      opt.policies.empty() ? std::vector<Policy>(std::begin(kAll),
                                                 std::end(kAll))
                           : opt.policies;

  ChaosReport report;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    TH_CHECK_MSG(graphs[gi] != nullptr && graphs[gi]->finalized(),
                 "chaos graph " << gi << " is null or not finalized");
    const TaskGraph& graph = *graphs[gi];
    for (const Policy policy : policies) {
      ScheduleOptions base;
      base.policy = policy;
      base.n_ranks = opt.n_ranks;
      base.cluster = opt.cluster;
      base.validate_schedule = true;
      // Fault-free baseline: validates the clean schedule and sets the
      // horizon that failure times scale against.
      base.faults = FaultPlan{};
      const real_t horizon =
          std::max<real_t>(simulate(graph, base, nullptr).makespan_s, 1e-9);

      for (int sc = 0; sc < opt.scenarios; ++sc) {
        std::uint64_t h = opt.seed;
        mix64(h);
        h ^= 0x100000001b3ULL * (gi + 1);
        mix64(h);
        h ^= static_cast<std::uint64_t>(policy) * 0x9e3779b9ULL + sc;
        const std::uint64_t scenario_seed = mix64(h);

        std::uint64_t s = scenario_seed;
        FaultPlan plan =
            random_fault_plan(mix64(s), graph, opt.n_ranks, horizon);
        CheckpointPolicy ckpt;
        if (opt.exercise_checkpointing) {
          ckpt = scenario_checkpoint(s, horizon);
        }
        // A plan carrying memory pressure needs a budget to press against:
        // size it off the byte-accurate footprint projection, scaled so
        // some scenarios ride comfortably and others are forced through
        // the whole shrink -> spill -> OomError ladder (an OomError is a
        // legitimate abort, like an exhausted retry budget).
        ScheduleOptions so = base;
        if (plan.has_mem_pressure()) {
          const mem::FootprintProjection fp =
              mem::project_footprint(graph, opt.n_ranks);
          const offset_t peak = std::max<offset_t>(fp.peak_rank_bytes, 1);
          so.mem.budget_bytes = std::max<offset_t>(
              1024, static_cast<offset_t>(
                        (0.7 + 0.8 * unit(s)) * mem::kWorkspaceFactor *
                        static_cast<real_t>(peak)));
        }

        ++report.scenarios_run;
        std::string what;
        const Outcome o = run_scenario(graph, so, plan, ckpt, &what);
        if (o == Outcome::kValidated) {
          ++report.validated;
          continue;
        }
        if (o == Outcome::kAborted) {
          ++report.aborted;
          continue;
        }
        ChaosFailure fail;
        fail.graph_index = gi;
        fail.policy = policy;
        fail.scenario_seed = scenario_seed;
        fail.checkpointing = ckpt.enabled();
        fail.mem_budget_bytes = so.mem.budget_bytes;
        fail.what = what;
        if (opt.shrink) {
          // The budget stays fixed while the plan shrinks, so each
          // candidate replays under the scenario's exact memory regime.
          fail.plan = shrink_fault_plan(
              std::move(plan), [&](const FaultPlan& p) {
                return run_scenario(graph, so, p, ckpt, nullptr) ==
                       Outcome::kFailed;
              });
        } else {
          fail.plan = std::move(plan);
        }
        fail.repro = fault_plan_spec(fail.plan);
        report.failures.push_back(std::move(fail));
      }
    }
  }
  return report;
}

}  // namespace th
