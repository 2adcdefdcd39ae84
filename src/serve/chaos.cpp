#include "serve/chaos.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "resilience/chaos_rng.hpp"

namespace th::serve {

using chaos_rng::below;
using chaos_rng::mix64;
using chaos_rng::unit;

const char* misbehavior_kind_name(MisbehaviorKind k) {
  switch (k) {
    case MisbehaviorKind::kFlood:
      return "flood";
    case MisbehaviorKind::kAbandon:
      return "abandon";
    case MisbehaviorKind::kPoison:
      return "poison";
    case MisbehaviorKind::kMemRamp:
      return "memramp";
    case MisbehaviorKind::kSolveFlood:
      return "solveflood";
    case MisbehaviorKind::kMidBatchCancel:
      return "midcancel";
  }
  return "?";
}

std::vector<Misbehavior> random_misbehaviors(std::uint64_t seed,
                                             const TraceOptions& topt,
                                             real_t horizon_s) {
  std::uint64_t s = seed ^ 0x94d049bb133111ebULL;
  std::vector<Misbehavior> out;
  const int n = 1 + below(s, 5);
  for (int i = 0; i < n; ++i) {
    Misbehavior m;
    switch (below(s, 6)) {
      case 0:
        m.kind = MisbehaviorKind::kFlood;
        m.tenant = below(s, topt.n_tenants);
        m.count = 4 + below(s, 40);
        break;
      case 1:
        m.kind = MisbehaviorKind::kAbandon;
        break;
      case 2:
        m.kind = MisbehaviorKind::kPoison;
        m.tenant = below(s, topt.n_tenants);
        break;
      case 3:
        m.kind = MisbehaviorKind::kSolveFlood;
        m.tenant = below(s, topt.n_tenants);
        m.count = 4 + below(s, 24);
        break;
      case 4:
        m.kind = MisbehaviorKind::kMidBatchCancel;
        break;
      default:
        m.kind = MisbehaviorKind::kMemRamp;
        m.factor = 0.2 + 0.7 * unit(s);
        break;
    }
    m.at_s = horizon_s * unit(s);
    out.push_back(m);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Misbehavior& a, const Misbehavior& b) {
                     return a.at_s < b.at_s;
                   });
  return out;
}

std::string misbehavior_spec(std::uint64_t scenario_seed,
                             const std::vector<Misbehavior>& m) {
  std::ostringstream os;
  os << "seed=" << scenario_seed;
  for (const Misbehavior& x : m) {
    os << "," << misbehavior_kind_name(x.kind) << "=";
    switch (x.kind) {
      case MisbehaviorKind::kFlood:
        os << x.tenant << "@" << x.at_s << "@" << x.count;
        break;
      case MisbehaviorKind::kAbandon:
        os << x.at_s;
        break;
      case MisbehaviorKind::kPoison:
        os << x.tenant << "@" << x.at_s;
        break;
      case MisbehaviorKind::kMemRamp:
        os << x.at_s << "@" << x.factor;
        break;
      case MisbehaviorKind::kSolveFlood:
        os << x.tenant << "@" << x.at_s << "@" << x.count;
        break;
      case MisbehaviorKind::kMidBatchCancel:
        os << x.at_s;
        break;
    }
  }
  return os.str();
}

std::vector<Misbehavior> shrink_misbehaviors(
    std::vector<Misbehavior> m,
    const std::function<bool(const std::vector<Misbehavior>&)>& still_fails,
    int budget) {
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (std::size_t i = 0; i < m.size(); ++i) {
      std::vector<Misbehavior> c = m;
      c.erase(c.begin() + static_cast<std::ptrdiff_t>(i));
      if (budget-- <= 0) break;
      if (still_fails(c)) {
        m = std::move(c);
        changed = true;
        break;
      }
    }
  }
  return m;
}

namespace {

/// A structurally broken matrix (rectangular): SolverInstance must refuse
/// it with a typed Error, leaving the service untouched.
Csr poison_matrix() {
  Csr a;
  a.n_rows = 4;
  a.n_cols = 3;
  a.row_ptr = {0, 1, 2, 3, 4};
  a.col_idx = {0, 1, 2, 0};
  a.values = {1, 1, 1, 1};
  return a;
}

}  // namespace

std::string run_serve_scenario(const ServeOptions& sopt,
                               const ServeTrace& trace,
                               const std::vector<Misbehavior>& misbehaviors) {
  try {
    SolverService svc(sopt);
    std::map<std::pair<int, int>, SessionId> sessions;
    std::vector<RequestId> ids;  // every admitted id, abandon's pick pool
    std::vector<RequestId> solve_ids;  // admitted solves, midcancel's pool
    std::map<RequestId, real_t> solve_deadlines;  // admitted, with one
    std::map<RequestId, std::uint64_t> refactor_seeds;  // admitted refactors
    offset_t mem_budget = sopt.mem_budget_bytes;
    std::uint64_t s = trace.opt.seed ^ 0xa0761d6478bd642fULL;

    auto open_or_find = [&](int tenant, int pattern) -> SessionId {
      const auto key = std::make_pair(tenant, pattern);
      auto it = sessions.find(key);
      if (it == sessions.end()) {
        const SessionId sid = svc.open_session(
            trace_tenant_name(tenant),
            trace_pattern_matrix(trace.opt, pattern));
        it = sessions.emplace(key, sid).first;
      }
      return it->second;
    };

    auto apply = [&](const Misbehavior& m) {
      switch (m.kind) {
        case MisbehaviorKind::kFlood: {
          // A burst far past the tenant bound: every overflow submission
          // must come back as a typed RejectedError, never anything else.
          for (int i = 0; i < m.count; ++i) {
            try {
              const SessionId sid = open_or_find(m.tenant, 0);
              Request r;
              r.kind = RequestKind::kSolve;
              r.priority = Priority::kBatch;
              r.value_seed = mix64(s);
              const RequestId id = svc.submit(sid, r);
              ids.push_back(id);
              solve_ids.push_back(id);
            } catch (const RejectedError&) {
              // expected under flood
            }
          }
          break;
        }
        case MisbehaviorKind::kSolveFlood: {
          // A factor followed by a solve burst against one session: the
          // batching engine must coalesce whatever is admitted into block
          // solves with every member accounted for (invariants 1-2) and
          // every completed member numerically correct (invariant 4).
          try {
            const SessionId sid = open_or_find(m.tenant, 0);
            Request f;
            f.kind = RequestKind::kFactor;
            f.priority = Priority::kNormal;
            f.value_seed = mix64(s);
            ids.push_back(svc.submit(sid, f));
            for (int i = 0; i < m.count; ++i) {
              Request r;
              r.kind = RequestKind::kSolve;
              r.priority = Priority::kNormal;
              r.value_seed = mix64(s);
              const RequestId id = svc.submit(sid, r);
              ids.push_back(id);
              solve_ids.push_back(id);
            }
          } catch (const RejectedError&) {
            // expected once the queues fill
          }
          break;
        }
        case MisbehaviorKind::kMidBatchCancel: {
          if (!solve_ids.empty()) {
            // Cancel a queued solve handle: the rhs engine must shed the
            // member at the batch boundary (cancel() ignores finished ids).
            svc.cancel(solve_ids[static_cast<std::size_t>(mix64(s)) %
                                 solve_ids.size()]);
          }
          break;
        }
        case MisbehaviorKind::kAbandon: {
          if (!ids.empty()) {
            // cancel() is idempotent and ignores finished ids, so any
            // deterministic pick is safe.
            svc.cancel(ids[static_cast<std::size_t>(mix64(s)) % ids.size()]);
          }
          break;
        }
        case MisbehaviorKind::kPoison: {
          bool threw = false;
          try {
            svc.open_session(trace_tenant_name(m.tenant), poison_matrix());
          } catch (const Error&) {
            threw = true;  // expected: typed refusal
          }
          if (!threw) return false;
          break;
        }
        case MisbehaviorKind::kMemRamp: {
          mem_budget = std::max<offset_t>(
              1, static_cast<offset_t>(static_cast<double>(mem_budget) *
                                       m.factor));
          svc.set_mem_budget(mem_budget);
          break;
        }
      }
      return true;
    };

    // Merge-walk trace events and misbehaviors by virtual time.
    std::size_t ei = 0, mi = 0;
    while (ei < trace.events.size() || mi < misbehaviors.size()) {
      const bool take_event =
          mi >= misbehaviors.size() ||
          (ei < trace.events.size() &&
           trace.events[ei].arrival_s <= misbehaviors[mi].at_s);
      if (take_event) {
        const TraceEvent& e = trace.events[ei++];
        svc.advance(std::max(e.arrival_s, svc.now_s()));
        try {
          const SessionId sid = open_or_find(e.tenant, e.pattern);
          Request r;
          r.kind = e.kind;
          r.priority = e.priority;
          r.deadline_s = e.deadline_s;
          r.abandon_at_s = e.abandon_at_s;
          r.value_seed = e.value_seed;
          const RequestId id = svc.submit(sid, r);
          ids.push_back(id);
          if (e.kind == RequestKind::kSolve) {
            solve_ids.push_back(id);
            if (e.deadline_s < CancelToken::kNoDeadline) {
              solve_deadlines.emplace(id, e.deadline_s);
            }
          }
          if (e.kind == RequestKind::kRefactor) {
            refactor_seeds.emplace(id, e.value_seed);
          }
        } catch (const RejectedError&) {
          // typed admission refusal: always legitimate
        }
      } else {
        const Misbehavior& m = misbehaviors[mi++];
        svc.advance(std::max(m.at_s, svc.now_s()));
        if (!apply(m)) {
          return "poison pattern was accepted instead of rejected";
        }
      }
    }

    const std::vector<Completion> done = svc.drain();
    const ServeStats& st = svc.stats();

    // Invariant 1: every admitted request has exactly one completion.
    if (done.size() != ids.size()) {
      std::ostringstream os;
      os << "admitted " << ids.size() << " request(s) but got "
         << done.size() << " completion(s)";
      return os.str();
    }
    // Invariant 2: the status counters partition the admissions.
    const offset_t accounted = st.completed + st.shed + st.cancelled +
                               st.deadline_misses + st.failed;
    if (st.submitted != static_cast<offset_t>(ids.size()) ||
        accounted != st.submitted ||
        st.failed_no_factors + st.failed_error != st.failed) {
      std::ostringstream os;
      os << "accounting leak: submitted=" << st.submitted << " accounted="
         << accounted << " admitted=" << ids.size() << " failed="
         << st.failed << " (" << st.failed_no_factors << " no-factors + "
         << st.failed_error << " error)";
      return os.str();
    }
    // Invariant 3: the queues actually drained.
    if (svc.queue_depth() != 0) {
      return "drain() left the queue non-empty";
    }
    // Invariant 4: no silent wrong answers — every completed solve solved.
    for (const Completion& c : done) {
      if (c.ok() && c.kind == RequestKind::kSolve && c.residual > 1e-8) {
        std::ostringstream os;
        os << "completed solve " << c.id << " has residual " << c.residual;
        return os.str();
      }
    }
    // Invariant 5: per-session causality. A completed solve ran against
    // the factors of the latest completed factor/refactor of its session
    // submitted before it: that write finished before the solve started
    // and the solve carries its value seed, and no completed write
    // submitted after the solve started before the solve finished. A solve
    // that failed for missing factors still ran after that write. A
    // refactor factored its own request's values.
    std::map<RequestId, const Completion*> by_id;  // ascending = submission
    for (const Completion& c : done) {
      if (c.ok() || (c.kind == RequestKind::kSolve &&
                     c.status == Completion::Status::kFailed)) {
        by_id.emplace(c.id, &c);
      }
    }
    auto is_write = [](const Completion* c) {
      return c->kind != RequestKind::kSolve;
    };
    std::map<SessionId, const Completion*> last_write;
    for (const auto& [id, c] : by_id) {
      if (c->kind == RequestKind::kRefactor &&
          c->value_seed != refactor_seeds.at(id)) {
        std::ostringstream os;
        os << "refactor " << id << " factored values of seed "
           << c->value_seed << ", not its own " << refactor_seeds.at(id);
        return os.str();
      }
      if (is_write(c)) {
        last_write[c->session] = c;
        continue;
      }
      std::ostringstream os;
      os.precision(12);
      os << completion_status_name(c->status) << " solve " << id
         << " of session " << c->session << " ";
      const auto w = last_write.find(c->session);
      if (!c->ok()) {
        if (w == last_write.end() || w->second->finish_s <= c->start_s) {
          continue;  // legitimately without factors
        }
        os << "failed at " << c->start_s << " before its session's write "
           << w->second->id << " finished at " << w->second->finish_s;
        return os.str();
      }
      if (w == last_write.end()) {
        os << "had no completed factorization submitted before it";
        return os.str();
      }
      if (w->second->finish_s > c->start_s ||
          w->second->value_seed != c->value_seed) {
        os << "started at " << c->start_s << " against factors of seed "
           << c->value_seed << ", but its session's latest write before it ("
           << w->second->id << ") finished at " << w->second->finish_s
           << " with seed " << w->second->value_seed;
        return os.str();
      }
      for (auto y = by_id.upper_bound(id); y != by_id.end(); ++y) {
        const Completion* later = y->second;
        if (later->session == c->session && is_write(later) &&
            later->start_s < c->finish_s) {
          os << "finished at " << c->finish_s << ", after younger write "
             << later->id << " of its session started at "
             << later->start_s;
          return os.str();
        }
      }
    }
    // Invariant 6: no completed solve finishes after its deadline: the
    // dispatcher coalesces only as wide as every member's deadline allows.
    // Factors are out: the scheduler cancels them at batch boundaries, so
    // one may overrun its deadline by a batch.
    for (const Completion& c : done) {
      const auto d = solve_deadlines.find(c.id);
      if (c.ok() && d != solve_deadlines.end() && c.finish_s > d->second) {
        std::ostringstream os;
        os.precision(12);
        os << "completed solve " << c.id << " finished at " << c.finish_s
           << ", after its deadline " << d->second;
        return os.str();
      }
    }
    return "";
  } catch (const std::exception& e) {
    return std::string("escaped exception: ") + e.what();
  }
}

std::string ServeChaosReport::summary() const {
  std::ostringstream os;
  os << scenarios_run << " scenario(s): " << passed << " passed, "
     << failures.size() << " failed";
  for (const ServeChaosFailure& f : failures) {
    os << "\n  seed " << f.scenario_seed << ": " << f.what
       << "\n    repro: " << f.repro;
  }
  return os.str();
}

ServeChaosReport run_serve_chaos(const ServeChaosOptions& opt) {
  TH_CHECK_MSG(opt.scenarios >= 1, "serve chaos needs scenarios >= 1");
  opt.serve.validate();

  // Replay at the trace's load against the capacity the service delivers,
  // so queues build, solves coalesce and deadlines bind; an uncalibrated
  // trace spaces requests a virtual second apart and never loads it.
  TraceOptions base = opt.trace;
  if (base.mean_service_s <= 0) {
    base.mean_service_s = estimate_mean_service_s(opt.serve, base);
  }
  ServeChaosReport report;
  for (int sc = 0; sc < opt.scenarios; ++sc) {
    std::uint64_t h = opt.seed ^ (0x9e3779b97f4a7c15ULL *
                                  static_cast<std::uint64_t>(sc + 1));
    const std::uint64_t scenario_seed = mix64(h);

    TraceOptions topt = base;
    topt.seed = scenario_seed;
    // Misbehaving-tenant soak leans on abandonment and deadlines too.
    if (topt.p_abandon <= 0) topt.p_abandon = 0.1;
    if (topt.p_deadline <= 0) topt.p_deadline = 0.3;
    const ServeTrace trace = synth_trace(topt);
    const real_t horizon =
        trace.events.empty() ? 1.0 : trace.events.back().arrival_s;

    std::uint64_t ms = scenario_seed;
    std::vector<Misbehavior> mis =
        random_misbehaviors(mix64(ms), topt, horizon);

    ++report.scenarios_run;
    const std::string what = run_serve_scenario(opt.serve, trace, mis);
    if (what.empty()) {
      ++report.passed;
      continue;
    }
    ServeChaosFailure fail;
    fail.scenario_seed = scenario_seed;
    fail.what = what;
    if (opt.shrink) {
      fail.misbehaviors = shrink_misbehaviors(
          std::move(mis), [&](const std::vector<Misbehavior>& c) {
            return !run_serve_scenario(opt.serve, trace, c).empty();
          });
    } else {
      fail.misbehaviors = std::move(mis);
    }
    fail.repro = misbehavior_spec(scenario_seed, fail.misbehaviors);
    report.failures.push_back(std::move(fail));
  }
  return report;
}

}  // namespace th::serve
