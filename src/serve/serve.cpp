#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <csignal>
#include <unistd.h>
#endif

#include "gen/generators.hpp"
#include "mem/tile_store.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "order/perm.hpp"
#include "solvers/block_cyclic.hpp"
#include "sparse/ops.hpp"
#include "support/binio.hpp"
#include "support/rng.hpp"

namespace th::serve {

namespace {

InstanceOptions instance_options(const ScheduleOptions& sched) {
  InstanceOptions io;
  io.core = SolverCore::kPlu;  // the donor (symbolic-reuse) path is PLU-only
  io.grid = make_process_grid(sched.n_ranks);
  return io;
}

// The layout a session's committed tiles belong to: its permutation and
// tile size. A build with another ordering lays the same pattern out
// differently, and its tiles must not be adopted.
mem::TileLayout factor_layout(const SolverInstance& inst) {
  const Permutation& p = inst.permutation();
  mem::TileLayout layout;
  layout.perm_crc = bin::crc32c(p.data(), p.size() * sizeof(index_t));
  layout.block = inst.plu_factorization()->tiles().tile_size();
  return layout;
}

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      return "normal";
    case Priority::kInteractive:
      return "interactive";
  }
  return "?";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kDeadlineInfeasible:
      return "deadline-infeasible";
    case RejectReason::kMemInfeasible:
      return "mem-infeasible";
  }
  return "?";
}

const char* request_kind_name(RequestKind k) {
  switch (k) {
    case RequestKind::kFactor:
      return "factor";
    case RequestKind::kRefactor:
      return "refactor";
    case RequestKind::kSolve:
      return "solve";
  }
  return "?";
}

const char* completion_status_name(Completion::Status s) {
  switch (s) {
    case Completion::Status::kDone:
      return "done";
    case Completion::Status::kShed:
      return "shed";
    case Completion::Status::kCancelled:
      return "cancelled";
    case Completion::Status::kDeadlineMiss:
      return "deadline-miss";
    case Completion::Status::kFailed:
      return "failed";
  }
  return "?";
}

void ServeOptions::validate() const {
  sched.validate();
  TH_CHECK_MSG(exec_workers >= 1,
               "serve needs exec_workers >= 1, got " << exec_workers);
  TH_CHECK_MSG(max_queued_global >= 1 && max_queued_per_tenant >= 1,
               "serve queue bounds must be >= 1, got global "
                   << max_queued_global << " / tenant "
                   << max_queued_per_tenant);
  TH_CHECK_MSG(mem_budget_bytes >= 0,
               "serve mem budget must be >= 0, got " << mem_budget_bytes);
  TH_CHECK_MSG(degrade_queue_fraction > 0 && degrade_queue_fraction <= 1.0,
               "degrade_queue_fraction must be in (0, 1], got "
                   << degrade_queue_fraction);
  TH_CHECK_MSG(sched.cancel == nullptr,
               "ServeOptions::sched must not carry a cancel token — the "
               "service arms its own per-request tokens");
  rhs.validate();
  durable.validate();
}

void ServeStats::publish_metrics() const {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("th.serve.sessions").add(sessions_opened);
  reg.counter("th.serve.cache.hits").add(cache_hits);
  reg.counter("th.serve.cache.misses").add(cache_misses);
  reg.counter("th.serve.submitted").add(submitted);
  reg.counter("th.serve.completed").add(completed);
  reg.counter("th.serve.shed").add(shed);
  reg.counter("th.serve.cancelled").add(cancelled);
  reg.counter("th.serve.deadline_misses").add(deadline_misses);
  reg.counter("th.serve.failed").add(failed);
  reg.counter("th.serve.failed.no_factors").add(failed_no_factors);
  reg.counter("th.serve.failed.error").add(failed_error);
  reg.counter("th.serve.rejected.queue_full").add(rejected_queue_full);
  reg.counter("th.serve.rejected.deadline").add(rejected_deadline);
  reg.counter("th.serve.rejected.mem").add(rejected_mem);
  reg.counter("th.serve.factors").add(factors);
  reg.counter("th.serve.refactors").add(refactors);
  reg.counter("th.serve.solves").add(solves);
  reg.counter("th.serve.degraded_runs").add(degraded_runs);
  reg.gauge("th.serve.queue.depth").set(static_cast<double>(queue_depth));
  reg.gauge("th.serve.queue.high_water")
      .set(static_cast<double>(queue_high_water));
  reg.gauge("th.serve.cache.hit_rate").set(cache_hit_rate());
  reg.gauge("th.serve.busy_s").set(busy_s);
}

std::uint64_t pattern_hash(const Csr& a) {
  // FNV-1a over the structure arrays; values are deliberately excluded.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(a.n_rows));
  for (const offset_t p : a.row_ptr) mix(static_cast<std::uint64_t>(p));
  for (const index_t c : a.col_idx) mix(static_cast<std::uint64_t>(c));
  return h;
}

SolverService::SolverService(const ServeOptions& opt)
    : opt_(opt), pool_(opt.exec_workers) {
  opt_.validate();
  if (opt_.durable.enabled()) {
    journal_ = std::make_unique<SessionJournal>(opt_.durable.journal_dir,
                                                opt_.durable.fsync);
    if (opt_.durable.recover) recover();
  }
}

SolverService::~SolverService() = default;

void SolverService::obtain_instance(const Csr& a, SessionId sid,
                                    Session& s) {
  const auto hit = cache_.find(s.pattern_hash);
  if (hit != cache_.end()) {
    // Cache hit: donor construction copies the cached ordering and shares
    // its tile pattern and task DAG — no reordering, no symbolic analysis.
    // The donor ctor verifies the structure byte-for-byte, so a hash
    // collision throws th::Error here instead of corrupting numerics.
    s.inst = std::make_shared<SolverInstance>(
        a, instance_options(opt_.sched), *hit->second.donor);
    s.est_factor_s = hit->second.est_factor_s;
    s.prices = hit->second.prices;
    ++stats_.cache_hits;
    if (obs::enabled()) {
      obs::Recorder::global().instant(
          obs::Domain::kHost, obs::kServiceTrack, "serve cache hit", "serve",
          now_s_, "session", sid);
    }
    return;
  }
  // Cache miss: the full control-plane pipeline (ordering + symbolic),
  // wrapped in a host-clock span. The acceptance check for symbolic
  // reuse greps the trace for this exact span name: it must appear once
  // per miss and never on a hit.
  const bool obs_on = obs::enabled();
  const real_t h0 = obs_on ? obs::Recorder::global().host_now() : 0;
  s.inst = std::make_shared<SolverInstance>(a, instance_options(opt_.sched));
  if (obs_on) {
    obs::Recorder::global().span(obs::Domain::kHost, -1, "serve symbolic",
                                 "serve", h0,
                                 obs::Recorder::global().host_now(),
                                 "session", sid);
  }
  ++stats_.cache_misses;
  // First-contact service-time estimate: one timing-only replay. Its
  // makespan feeds deadline-feasibility admission for every later
  // session on this pattern (structure determines timing, so the
  // estimate transfers exactly).
  {
    const obs::ScopedDisable no_obs;  // pricing detail, not a run
    s.est_factor_s = s.inst->run_timing(opt_.sched).makespan_s;
  }
  // Solve prices replay the solve DAGs with a null backend — the exact
  // model block solves are charged under, so admission and execution
  // charge the same clock. Each width is priced on first use.
  s.prices = std::make_shared<rhs::SolvePrices>(
      s.inst->plu_factorization()->shared_pattern(), opt_.sched,
      make_process_grid(opt_.sched.n_ranks));
  cache_.emplace(s.pattern_hash,
                 CacheEntry{s.inst, s.est_factor_s, s.prices});
}

SessionId SolverService::open_session(const std::string& tenant,
                                      const Csr& a) {
  TH_CHECK_MSG(!tenant.empty(), "serve tenant name must be non-empty");
  const std::uint64_t hash = pattern_hash(a);

  // Recovery claim: a tenant re-opening a pattern it held before a crash
  // gets its rehydrated session back — same id, committed factors and
  // idempotency keys intact — so client replay is transparent.
  for (auto& [sid, sess] : sessions_) {
    if (sess.recovered_unclaimed && sess.tenant == tenant &&
        sess.pattern_hash == hash) {
      sess.recovered_unclaimed = false;
      if (obs::enabled()) {
        obs::Recorder::global().instant(
            obs::Domain::kHost, obs::kServiceTrack, "serve session claim",
            "serve", now_s_, "session", sid);
      }
      return sid;
    }
  }

  Session s;
  s.tenant = tenant;
  s.a0 = a;
  s.pattern_hash = hash;
  obtain_instance(a, next_session_, s);
  s.projection =
      mem::project_footprint(s.inst->graph(), opt_.sched.n_ranks);

  if (!s.projection.fits(opt_.mem_budget_bytes)) {
    ++stats_.rejected_mem;
    std::ostringstream os;
    os << "pattern needs " << s.projection.peak_rank_with_workspace()
       << " B/rank (with workspace), budget is " << opt_.mem_budget_bytes
       << " B";
    throw RejectedError(RejectReason::kMemInfeasible, os.str());
  }

  const SessionId sid = next_session_++;
  ++stats_.sessions_opened;
  journal_open(sid, sessions_.emplace(sid, std::move(s)).first->second);
  return sid;
}

real_t SolverService::backlog_estimate_s(SessionId sid, RequestKind kind) {
  // Each session's solves between its writes form one run, which dispatch
  // coalesces into blocks of at most max_width; a run prices as those
  // blocks at their widths' block-solve makespans, a write at its factor
  // estimate.
  const index_t cap = opt_.rhs.max_width;
  std::map<SessionId, index_t> run;  // each session's open run of solves
  real_t sum = 0;
  const auto close_run = [&](SessionId id) {
    const index_t width = std::exchange(run[id], 0);
    if (width == 0) return;
    const Session& s = sessions_.at(id);
    sum += static_cast<real_t>(width / cap) * solve_estimate_s(s, cap);
    if (width % cap != 0) sum += solve_estimate_s(s, width % cap);
  };
  const auto add = [&](SessionId id, RequestKind k) {
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    if (k == RequestKind::kSolve) {
      ++run[id];
    } else {
      close_run(id);
      sum += it->second.est_factor_s;
    }
  };
  for (const auto& [id, p] : pending_) add(p.session, p.req.kind);
  add(sid, kind);
  for (const auto& open : run) close_run(open.first);
  return sum;
}

RequestId SolverService::submit(SessionId sid, const Request& req) {
  const auto sit = sessions_.find(sid);
  TH_CHECK_MSG(sit != sessions_.end(), "serve submit on unknown session "
                                           << sid);
  Session& s = sit->second;

  // Idempotent-replay dedup: a factor/refactor whose key this session
  // already *committed* completes immediately as kDone — the work and its
  // artifacts survived the crash, so redoing it would double-spend. Runs
  // before admission: a duplicate costs nothing, so it must never be
  // rejected for queue pressure the original already paid for. The
  // `factored` guard is the recompute degradation: when recovery
  // quarantined the committed artifacts, the key stays known but the
  // session holds no factors, so the replayed request must run again.
  if (journal_ != nullptr && req.idem_key != 0 &&
      req.kind != RequestKind::kSolve && s.factored &&
      s.committed_idem.count(req.idem_key) != 0) {
    ++durable_stats_.idem_duplicates;
    const RequestId id = next_request_++;
    Pending p;
    p.id = id;
    p.session = sid;
    p.req = req;
    p.arrival_s = now_s_;
    p.token = std::make_unique<CancelToken>();
    ++stats_.submitted;
    finish(std::move(p), Completion::Status::kDone, now_s_, now_s_, -1,
           "deduplicated by idempotency key (already committed)");
    return id;
  }

  // Admission rung 0 — memory: a factorization that cannot fit the
  // *current* budget (chaos may have ramped it down mid-session) is
  // refused before it can OOM mid-run.
  if (req.kind != RequestKind::kSolve &&
      !s.projection.fits(opt_.mem_budget_bytes)) {
    ++stats_.rejected_mem;
    if (obs::enabled()) {
      obs::Recorder::global().instant(obs::Domain::kHost, obs::kServiceTrack,
                                      "serve reject mem", "serve", now_s_,
                                      "session", sid);
    }
    std::ostringstream os;
    os << "pattern needs " << s.projection.peak_rank_with_workspace()
       << " B/rank, budget is " << opt_.mem_budget_bytes << " B";
    throw RejectedError(RejectReason::kMemInfeasible, os.str());
  }

  // Admission rung 1 — the tenant's own bound; a flooding tenant hits
  // this before it can touch the global queue.
  int tenant_queued = 0;
  for (const auto& [id, p] : pending_) {
    if (sessions_.at(p.session).tenant == s.tenant) ++tenant_queued;
  }
  if (tenant_queued >= opt_.max_queued_per_tenant) {
    ++stats_.rejected_queue_full;
    if (obs::enabled()) {
      obs::Recorder::global().instant(obs::Domain::kHost, obs::kServiceTrack,
                                      "serve reject queue-full", "serve",
                                      now_s_, "session", sid);
    }
    std::ostringstream os;
    os << "tenant '" << s.tenant << "' already has " << tenant_queued
       << " queued (bound " << opt_.max_queued_per_tenant << ")";
    throw RejectedError(RejectReason::kQueueFull, os.str());
  }

  // Admission rung 2 — the global bound, with priority shedding: a full
  // queue sheds its lowest-priority entry for strictly higher-priority
  // work; equal-or-lower priority is rejected outright.
  if (queue_depth() >= opt_.max_queued_global) {
    RequestId victim = -1;
    Priority victim_prio = Priority::kInteractive;
    if (opt_.shed_on_full) {
      for (const auto& [id, p] : pending_) {
        if (p.req.priority >= req.priority) continue;
        // Lowest priority first; ties shed the youngest (highest id) so
        // the oldest admitted work keeps its place.
        if (victim < 0 || p.req.priority < victim_prio ||
            (p.req.priority == victim_prio && id > victim)) {
          victim = id;
          victim_prio = p.req.priority;
        }
      }
    }
    if (victim < 0) {
      ++stats_.rejected_queue_full;
      if (obs::enabled()) {
        obs::Recorder::global().instant(obs::Domain::kHost,
                                        obs::kServiceTrack,
                                        "serve reject queue-full", "serve",
                                        now_s_, "session", sid);
      }
      std::ostringstream os;
      os << "global queue full (" << queue_depth() << "/"
         << opt_.max_queued_global << "), no lower-priority work to shed";
      throw RejectedError(RejectReason::kQueueFull, os.str());
    }
    auto vit = pending_.find(victim);
    Pending v = std::move(vit->second);
    pending_.erase(vit);
    unqueue(v.session, victim);
    std::ostringstream os;
    os << "displaced by " << priority_name(req.priority) << " "
       << request_kind_name(req.kind) << " from tenant '" << s.tenant << "'";
    finish(std::move(v), Completion::Status::kShed, now_s_, now_s_, -1,
           os.str());
  }

  // Admission rung 3 — deadline feasibility against the backlog estimate.
  if (req.deadline_s < CancelToken::kNoDeadline) {
    const real_t eta = now_s_ + backlog_estimate_s(sid, req.kind);
    if (eta > req.deadline_s) {
      ++stats_.rejected_deadline;
      if (obs::enabled()) {
        obs::Recorder::global().instant(obs::Domain::kHost,
                                        obs::kServiceTrack,
                                        "serve reject deadline", "serve",
                                        now_s_, "session", sid);
      }
      std::ostringstream os;
      os << "estimated completion t=" << eta << " s is past the deadline t="
         << req.deadline_s << " s";
      throw RejectedError(RejectReason::kDeadlineInfeasible, os.str());
    }
  }

  const RequestId id = next_request_++;
  Pending p;
  p.id = id;
  p.session = sid;
  p.req = req;
  p.arrival_s = now_s_;
  p.token = std::make_unique<CancelToken>();
  pending_.emplace(id, std::move(p));
  tenant_queues_[s.tenant].push_back(id);
  ++stats_.submitted;
  stats_.queue_depth = static_cast<offset_t>(pending_.size());
  stats_.queue_high_water =
      std::max(stats_.queue_high_water, stats_.queue_depth);
  return id;
}

void SolverService::cancel(RequestId id) {
  const auto it = pending_.find(id);
  if (it != pending_.end()) it->second.token->cancel();
}

void SolverService::set_mem_budget(offset_t bytes) {
  TH_CHECK_MSG(bytes >= 0, "serve mem budget must be >= 0, got " << bytes);
  opt_.mem_budget_bytes = bytes;
}

RequestId SolverService::pick_from_tenant(const std::string& tenant) const {
  const auto qit = tenant_queues_.find(tenant);
  if (qit == tenant_queues_.end()) return -1;
  RequestId best = -1;
  const Pending* best_p = nullptr;
  // Per-session causality: the queue is in admission order, so a write
  // (factor/refactor) is eligible only as its session's oldest pending
  // request, and a solve only while no older write of its session waits.
  struct Seen {
    bool any = false;
    bool write = false;
  };
  std::map<SessionId, Seen> seen;
  for (const RequestId id : qit->second) {
    const auto pit = pending_.find(id);
    if (pit == pending_.end()) continue;  // stale (shed/cancelled earlier)
    const Pending& p = pit->second;
    Seen& ss = seen[p.session];
    const bool write = p.req.kind != RequestKind::kSolve;
    const bool eligible = write ? !ss.any : !ss.write;
    ss.any = true;
    ss.write = ss.write || write;
    if (!eligible) continue;
    if (best_p == nullptr || p.req.priority > best_p->req.priority ||
        (p.req.priority == best_p->req.priority &&
         (p.req.deadline_s < best_p->req.deadline_s ||
          (p.req.deadline_s == best_p->req.deadline_s && id < best)))) {
      best = id;
      best_p = &p;
    }
  }
  return best;
}

RequestId SolverService::pick_next() {
  if (pending_.empty()) return -1;
  // Round-robin over tenant names: start strictly after the cursor, wrap
  // once. std::map iteration keeps the order deterministic.
  auto start = tenant_queues_.upper_bound(rr_cursor_);
  for (std::size_t step = 0; step <= tenant_queues_.size(); ++step) {
    if (start == tenant_queues_.end()) start = tenant_queues_.begin();
    if (start == tenant_queues_.end()) break;  // no tenants at all
    const RequestId id = pick_from_tenant(start->first);
    if (id >= 0) {
      rr_cursor_ = start->first;
      return id;
    }
    ++start;
  }
  return -1;
}

void SolverService::finish(Pending p, Completion::Status status,
                           real_t start_s, real_t finish_s, real_t residual,
                           std::string detail) {
  Completion c;
  c.id = p.id;
  c.session = p.session;
  c.tenant = sessions_.at(p.session).tenant;
  c.kind = p.req.kind;
  c.priority = p.req.priority;
  c.status = status;
  c.arrival_s = p.arrival_s;
  c.start_s = start_s;
  c.finish_s = finish_s;
  c.residual = residual;
  c.detail = std::move(detail);
  if (status == Completion::Status::kDone) {
    c.value_seed = sessions_.at(p.session).current_seed;
  }
  switch (status) {
    case Completion::Status::kDone:
      ++stats_.completed;
      break;
    case Completion::Status::kShed:
      ++stats_.shed;
      break;
    case Completion::Status::kCancelled:
      ++stats_.cancelled;
      break;
    case Completion::Status::kDeadlineMiss:
      ++stats_.deadline_misses;
      break;
    case Completion::Status::kFailed:
      ++stats_.failed;
      break;
  }
  stats_.queue_depth = static_cast<offset_t>(pending_.size());
  if (obs::enabled() && status == Completion::Status::kShed) {
    obs::Recorder::global().instant(obs::Domain::kHost, obs::kServiceTrack,
                                    "serve shed", "serve", finish_s,
                                    "request", c.id);
  }
  completions_.push_back(std::move(c));
}

void SolverService::run_factor(Session& s, Pending& p, real_t start_s) {
  // The degradation ladder's second rung: past the configured queue depth
  // every factorization runs under the tightest feasible budget, so the
  // scheduler's shrink/spill ladder narrows batches (trading makespan for
  // footprint) while the service is saturated.
  const double depth = static_cast<double>(queue_depth());
  const bool degraded =
      depth >= opt_.degrade_queue_fraction *
                   static_cast<double>(opt_.max_queued_global);

  ScheduleOptions so = opt_.sched;
  so.exec.pool = &pool_;
  if (degraded) {
    const offset_t tight = std::max<offset_t>(
        s.projection.peak_rank_with_workspace(), 1);
    so.mem.budget_bytes = opt_.mem_budget_bytes > 0
                              ? std::min(opt_.mem_budget_bytes, tight)
                              : tight;
    so.mem.policy = mem::MemPolicy::kSpill;
    ++stats_.degraded_runs;
  } else if (opt_.mem_budget_bytes > 0) {
    so.mem.budget_bytes = opt_.mem_budget_bytes;
  }

  // Arm the per-request token: deadline and abandon time translate to the
  // run's own clock (each simulate() starts at t=0).
  p.token->reset();
  const real_t rel_deadline = p.req.deadline_s - start_s;
  const real_t rel_abandon = p.req.abandon_at_s - start_s;
  const real_t armed = std::min(rel_deadline, rel_abandon);
  if (armed < CancelToken::kNoDeadline) p.token->set_deadline(armed);
  so.cancel = p.token.get();

  const bool refactor = p.req.kind == RequestKind::kRefactor;
  try {
    if (refactor || s.needs_rebuild || s.inst->numeric_done()) {
      // New values (refactor) or a poisoned instance (a cancelled run left
      // partially-written tiles): rebuild through the donor path — the
      // session's own instance donates its pattern and DAG, so no symbolic
      // work runs.
      Csr a = refactor ? finalize_system(s.a0, p.req.value_seed)
                       : s.inst->matrix();
      s.inst = std::make_shared<SolverInstance>(
          a, instance_options(opt_.sched), *s.inst);
      // The instance holds the refactor's values from here on, even if
      // this run fails and a later factor reuses them.
      if (refactor) s.current_seed = p.req.value_seed;
      // Lend the pattern from the new instance from now on, so the cache
      // does not pin a replaced instance and all its factor tiles.
      if (const auto c = cache_.find(s.pattern_hash); c != cache_.end()) {
        c->second.donor = s.inst;
      }
      s.needs_rebuild = false;
      s.factored = false;
    }
    const ScheduleResult r = s.inst->run_numeric(so);
    const real_t end_s = start_s + r.makespan_s;
    now_s_ = end_s;
    stats_.busy_s += r.makespan_s;
    s.factored = true;
    s.est_factor_s = r.makespan_s;  // refresh the admission estimate
    if (refactor) {
      ++stats_.refactors;
    } else {
      ++stats_.factors;
    }
    // Durable commit: factor tiles + manifest publish first, the journal
    // record last — a record's presence proves its artifacts are complete.
    commit_factor(p.session, s, p.req.idem_key);
    if (obs::enabled()) {
      obs::Recorder::global().span(
          obs::Domain::kHost, obs::kServiceTrack,
          refactor ? "serve refactor" : "serve factor", "serve", start_s,
          end_s, "request", p.id, "session", p.session);
    }
    finish(std::move(p), Completion::Status::kDone, start_s, end_s, -1, "");
  } catch (const CancelledError& e) {
    // The scheduler unwound at a batch boundary: lanes parked, ledgers
    // freed by stack unwinding. The partially-factored instance is
    // poisoned; the next factorization rebuilds it through the donor path.
    const real_t end_s = start_s + e.at_s();
    now_s_ = end_s;
    stats_.busy_s += e.at_s();
    s.needs_rebuild = true;
    s.factored = false;
    const bool abandoned = e.cause() == CancelCause::kExplicit ||
                           rel_abandon <= rel_deadline;
    finish(std::move(p),
           abandoned ? Completion::Status::kCancelled
                     : Completion::Status::kDeadlineMiss,
           start_s, end_s, -1, e.what());
  } catch (const CrashError&) {
    // Injected process death (in-process soak mode): propagate to the
    // harness untouched — a crash is never reported as a request failure.
    throw;
  } catch (const Error& e) {
    // OomError (the mem ladder ran dry) or another typed scheduler abort:
    // the request fails loudly; the session rebuilds before its next
    // factorization. No virtual time is charged — the model has no
    // abort-time estimate, and charging zero keeps the clock deterministic.
    s.needs_rebuild = true;
    s.factored = false;
    ++stats_.failed_error;
    finish(std::move(p), Completion::Status::kFailed, start_s, start_s, -1,
           e.what());
  }
}

real_t SolverService::solve_estimate_s(const Session& s, index_t width) const {
  return s.prices->price(width, opt_.rhs.schedule).makespan_s();
}

rhs::RhsStats SolverService::rhs_stats() const {
  rhs::RhsStats out = rhs_stats_;
  // Sessions on one pattern share its price table: count each table once.
  out.dag_builds = 0;
  out.dag_reuses = 0;
  for (const auto& [hash, c] : cache_) {
    out.dag_builds += c.prices->builds();
    out.dag_reuses += c.prices->reuses();
  }
  return out;
}

void SolverService::run_solve_batch(Session& s, std::vector<Pending> batch,
                                    real_t start_s) {
  if (!s.factored) {
    for (Pending& p : batch) {
      ++stats_.failed_no_factors;
      finish(std::move(p), Completion::Status::kFailed, start_s, start_s, -1,
             "session has no valid factors (factor/refactor did not "
             "complete)");
    }
    return;
  }

  // Triage at the block boundary, before any numerics run: abandoned
  // handles are cancelled, and solves that cannot finish in time are shed
  // instead of burning the server on results the tenants will discard.
  const real_t est = solve_estimate_s(s, 1);
  std::vector<Pending> live;
  live.reserve(batch.size());
  bool any_deadline = false;
  for (Pending& p : batch) {
    if (p.token->cancel_requested() || p.req.abandon_at_s <= start_s) {
      finish(std::move(p), Completion::Status::kCancelled, start_s, start_s,
             -1, "handle abandoned at the batch boundary");
    } else if (start_s + est > p.req.deadline_s) {
      finish(std::move(p), Completion::Status::kDeadlineMiss, start_s,
             start_s, -1, "solve cannot finish before its deadline");
    } else {
      any_deadline =
          any_deadline || p.req.deadline_s < CancelToken::kNoDeadline;
      live.push_back(std::move(p));
    }
  }
  // A member is served only if the block finishes by its deadline: price
  // the block at its live width (the makespan the solve charges, bit for
  // bit) and shed the members it would finish late, until the width
  // settles. Coalescing checked only the width it formed, and prices need
  // not be monotone in width. Blocks without deadlines skip the pricing.
  std::size_t priced = 0;
  while (any_deadline && !live.empty() && live.size() != priced) {
    priced = live.size();
    const real_t block_finish_s =
        start_s + solve_estimate_s(s, static_cast<index_t>(priced));
    std::vector<Pending> kept;
    kept.reserve(priced);
    for (Pending& p : live) {
      if (p.req.deadline_s >= block_finish_s) {
        kept.push_back(std::move(p));
      } else {
        finish(std::move(p), Completion::Status::kDeadlineMiss, start_s,
               start_s, -1, "solve cannot finish before its block does");
      }
    }
    live = std::move(kept);
  }
  if (live.empty()) return;

  // Real numerics: each survivor synthesizes its right-hand side from the
  // request's seed into one n x width block (permuted ordering: we
  // factored P A P^T), and the block runs as one solve priced from the
  // pattern's table. Each member's scaled residual is checked on the
  // unpermuted system, so correctness survived both the overload machinery
  // and the batching.
  const Csr& a = s.inst->matrix();
  const std::vector<index_t>& perm = s.inst->permutation();
  const std::size_t n = static_cast<std::size_t>(a.n_rows);
  const index_t width = static_cast<index_t>(live.size());
  std::vector<std::vector<real_t>> raw_b;
  raw_b.reserve(live.size());
  std::vector<real_t> x(n * live.size());
  for (std::size_t j = 0; j < live.size(); ++j) {
    Rng rng(live[j].req.value_seed);
    std::vector<real_t> x_true(n);
    for (real_t& v : x_true) v = rng.uniform(-1.0, 1.0);
    raw_b.push_back(spmv(a, x_true));
    const std::vector<real_t> pb = apply_permutation(raw_b.back(), perm);
    std::copy(pb.begin(), pb.end(), x.begin() + j * n);
  }
  rhs::BlockSolver solver(*s.inst->plu_factorization(), s.prices);
  const rhs::BlockSolveResult& r =
      solver.solve(x.data(), width, opt_.rhs.schedule);
  const real_t finish_s = start_s + r.makespan_s();
  rhs_stats_.add_block(width, r);
  if (obs::enabled()) {
    obs::Recorder::global().span(
        obs::Domain::kHost, obs::kRhsTrack, "rhs block solve", "rhs", start_s,
        finish_s, "width", width, "kernels",
        static_cast<std::int64_t>(r.kernel_count()));
  }

  for (std::size_t j = 0; j < live.size(); ++j) {
    Pending& p = live[j];
    const std::vector<real_t> xj = apply_inverse_permutation(
        std::vector<real_t>(x.begin() + j * n, x.begin() + (j + 1) * n),
        perm);
    const real_t residual = scaled_residual(a, xj, raw_b[j]);
    ++stats_.solves;
    if (obs::enabled()) {
      obs::Recorder::global().span(obs::Domain::kHost, obs::kServiceTrack,
                                   "serve solve", "serve", start_s, finish_s,
                                   "request", p.id, "session", p.session);
    }
    finish(std::move(p), Completion::Status::kDone, start_s, finish_s,
           residual, "");
  }
  now_s_ = std::max(now_s_, finish_s);
  stats_.busy_s += finish_s - start_s;  // one block, however many members
}

void SolverService::unqueue(SessionId sid, RequestId id) {
  const auto sit = sessions_.find(sid);
  if (sit == sessions_.end()) return;
  const auto qit = tenant_queues_.find(sit->second.tenant);
  if (qit == tenant_queues_.end()) return;
  auto& q = qit->second;
  q.erase(std::remove(q.begin(), q.end(), id), q.end());
}

void SolverService::dispatch_one() {
  const RequestId id = pick_next();
  if (id < 0) return;
  auto it = pending_.find(id);
  Pending p = std::move(it->second);
  pending_.erase(it);
  unqueue(p.session, id);
  stats_.queue_depth = static_cast<offset_t>(pending_.size());

  const real_t start_s = now_s_;
  Session& s = sessions_.at(p.session);

  if (p.req.kind == RequestKind::kSolve) {
    // One round-robin turn is one block solve, and this is the only place
    // solve blocks form: coalesce the session's queued kSolves (ascending
    // request id) up to the width cap into one dispatch, whether or not
    // other tenants wait. pick_next rotates tenants per turn, so a tenant
    // behind a flood waits at most one block of <= max_width right-hand
    // sides per other tenant. Per-member cancellation/deadline triage
    // happens at the batch boundary inside run_solve_batch.
    //
    // Deadline-aware coalescing: the block widens only while its priced
    // finish at the new width meets every member's deadline, so a member
    // that fits alone is served, never shed for the company it keeps. A
    // member that cannot finish even alone is shed anyway and bounds
    // nothing; blocks without deadlines skip the pricing.
    const real_t alone_s = start_s + solve_estimate_s(s, 1);
    const auto bound_s = [&](const Pending& m) {
      return alone_s <= m.req.deadline_s
                 ? m.req.deadline_s
                 : CancelToken::kNoDeadline;
    };
    real_t deadline_s = bound_s(p);
    std::vector<Pending> batch;
    batch.push_back(std::move(p));
    while (static_cast<index_t>(batch.size()) < opt_.rhs.max_width) {
      // Stop at the session's next write: later solves must see its
      // factors, not the current ones.
      auto eit = pending_.end();
      for (auto q = pending_.begin(); q != pending_.end(); ++q) {
        if (q->second.session != batch.front().session) continue;
        if (q->second.req.kind == RequestKind::kSolve) eit = q;
        break;
      }
      if (eit == pending_.end()) break;
      const real_t d = std::min(deadline_s, bound_s(eit->second));
      if (d < CancelToken::kNoDeadline &&
          start_s + solve_estimate_s(
                        s, static_cast<index_t>(batch.size()) + 1) > d) {
        break;
      }
      deadline_s = d;
      Pending e = std::move(eit->second);
      pending_.erase(eit);
      unqueue(e.session, e.id);
      batch.push_back(std::move(e));
    }
    stats_.queue_depth = static_cast<offset_t>(pending_.size());
    run_solve_batch(s, std::move(batch), start_s);
    return;
  }

  if (p.token->cancel_requested() || p.req.abandon_at_s <= start_s) {
    // Abandoned in the queue: the lane and ledger bytes it would have
    // taken are never claimed — freeing is trivially deterministic.
    finish(std::move(p), Completion::Status::kCancelled, start_s, start_s,
           -1, "handle abandoned before dispatch");
    return;
  }
  if (p.req.deadline_s <= start_s) {
    finish(std::move(p), Completion::Status::kDeadlineMiss, start_s, start_s,
           -1, "deadline expired while queued");
    return;
  }

  run_factor(s, p, start_s);
}

void SolverService::advance(real_t until_s) {
  TH_CHECK_MSG(until_s >= now_s_, "serve clock cannot run backwards: now="
                                      << now_s_ << ", until=" << until_s);
  while (!pending_.empty() && now_s_ < until_s) dispatch_one();
  if (pending_.empty() && now_s_ < until_s) now_s_ = until_s;
}

std::vector<Completion> SolverService::drain() {
  while (!pending_.empty()) dispatch_one();
  return take_completions();
}

std::vector<Completion> SolverService::take_completions() {
  std::vector<Completion> out;
  out.swap(completions_);
  return out;
}

const SolverInstance* SolverService::session_instance(SessionId sid) const {
  const auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : it->second.inst.get();
}

// ---- Durability ----------------------------------------------------------

void SolverService::maybe_crash(const char* event) {
  if (journal_ == nullptr) return;
  ++crash_appends_;
  const offset_t n_event = ++crash_counts_[event];
  for (std::size_t k = 0; k < opt_.durable.crashes.size(); ++k) {
    if (crash_fired_.count(k) != 0) continue;
    const DurabilityCrash& c = opt_.durable.crashes[k];
    const offset_t n = c.event == "append"
                           ? crash_appends_
                           : (c.event == event ? n_event : -1);
    if (n != c.after) continue;
    crash_fired_.insert(k);
    // Leave exactly the residue a real mid-publication death leaves: half
    // a frame under the `.tmp` name. Recovery must ignore it — the gate
    // that a torn write is never observable as a journal record.
    {
      std::ofstream torn(journal_->wal_dir() + "/" +
                             std::to_string(journal_->next_seq()) +
                             ".thwj.tmp",
                         std::ios::binary | std::ios::trunc);
      torn.write("THWJ\x01\x00", 6);
    }
#ifndef _WIN32
    if (opt_.durable.crash_kill) {
      ::kill(::getpid(), SIGKILL);  // process-level soak: die for real
    }
#endif
    // Name the *configured* point, not the concrete event, so the error
    // echoes the fault-spec vocabulary ("append@N" matches any event).
    throw CrashError(c.event, c.after);
  }
}

void SolverService::journal_open(SessionId sid, const Session& s) {
  if (journal_ == nullptr) return;
  // Artifact before record: the pattern file must exist by the time any
  // replay can see the open event.
  if (!journal_->has_pattern(s.pattern_hash)) {
    journal_->save_pattern(s.pattern_hash, s.a0);
    ++durable_stats_.patterns_saved;
  }
  maybe_crash("open");
  JournalRecord rec;
  rec.event = JournalEvent::kOpen;
  rec.session = sid;
  rec.tenant = s.tenant;
  rec.pattern_hash = s.pattern_hash;
  journal_->append(rec);
  ++durable_stats_.journal_appends;
}

void SolverService::commit_factor(SessionId sid, Session& s,
                                  std::uint64_t idem_key) {
  if (journal_ == nullptr) return;
  const std::uint32_t gen = s.generation;
  // Publish every tile's packed panel, then the manifest certifying them,
  // then the journal record — strictly in that order, so the record's
  // presence proves the artifact set is complete and an orphaned artifact
  // from a crash mid-commit is ignorable garbage.
  TH_CHECK_MSG(s.inst->numeric_done(),
               "factor commit before the numeric phase ran");
  mem::TileStore store(journal_->factor_dir(sid, gen), opt_.durable.fsync);
  const TileMatrix& tiles = s.inst->plu_factorization()->tiles();
  const index_t nt = tiles.nt();
  tiles.for_each([&](index_t i, index_t j, const Tile& t) {
    store.spill(i * nt + j,
                std::vector<real_t>(t.data(), t.data() + t.panel_size()));
  });
  store.write_manifest(factor_layout(*s.inst));
  maybe_crash("commit");
  JournalRecord rec;
  rec.event = JournalEvent::kCommit;
  rec.session = sid;
  rec.pattern_hash = s.pattern_hash;
  rec.generation = gen;
  rec.value_seed = s.current_seed;
  rec.idem_key = idem_key;
  journal_->append(rec);
  ++durable_stats_.journal_appends;
  ++durable_stats_.commits;
  ++s.generation;
  if (idem_key != 0) s.committed_idem.insert(idem_key);
}

bool SolverService::retire_session(SessionId sid) {
  const auto sit = sessions_.find(sid);
  if (sit == sessions_.end()) return false;  // idempotent: replay is a no-op
  Session& s = sit->second;
  // Resolve queued work first: it completes as kCancelled and never
  // dispatches, so no commit can be journaled after the retirement record
  // — the WAL-ordering contract for retire-vs-commit interleavings.
  std::vector<RequestId> queued;
  for (const auto& [id, p] : pending_) {
    if (p.session == sid) queued.push_back(id);
  }
  for (const RequestId id : queued) {
    const auto it = pending_.find(id);
    Pending p = std::move(it->second);
    pending_.erase(it);
    unqueue(sid, id);
    finish(std::move(p), Completion::Status::kCancelled, now_s_, now_s_, -1,
           "session retired");
  }
  if (journal_ != nullptr) {
    maybe_crash("retire");
    JournalRecord rec;
    rec.event = JournalEvent::kRetire;
    rec.session = sid;
    rec.pattern_hash = s.pattern_hash;
    journal_->append(rec);
    ++durable_stats_.journal_appends;
    ++durable_stats_.retires;
  }
  if (obs::enabled()) {
    obs::Recorder::global().instant(obs::Domain::kHost, obs::kServiceTrack,
                                    "serve session retire", "serve", now_s_,
                                    "session", sid);
  }
  sessions_.erase(sit);
  return true;
}

std::vector<SessionId> SolverService::recovered_sessions() const {
  std::vector<SessionId> out;
  for (const auto& [sid, s] : sessions_) {
    if (s.recovered_unclaimed) out.push_back(sid);
  }
  return out;
}

bool SolverService::rehydrate_factors(SessionId sid, Session& s,
                                      std::uint32_t gen) {
  const std::string dir = journal_->factor_dir(sid, gen);
  mem::TileManifest manifest;
  try {
    manifest = mem::TileStore::load_manifest_file(dir + "/manifest.thtm");
  } catch (const bin::IoError&) {
    // Bit rot in the manifest: quarantine it; the whole generation is
    // untrusted and the factorization recomputes.
    journal_->quarantine(dir + "/manifest.thtm");
    ++durable_stats_.quarantined;
    return false;
  } catch (const Error&) {
    return false;  // manifest missing (artifact dir lost wholesale)
  }
  if (manifest.layout != factor_layout(*s.inst)) {
    return false;  // laid out under another ordering or tile size: recompute
  }
  const std::vector<mem::TileManifestEntry>& entries = manifest.entries;

  TileMatrix& tiles = s.inst->plu_factorization()->tiles();
  const index_t nt = tiles.nt();
  if (static_cast<offset_t>(entries.size()) != tiles.size()) {
    return false;  // manifest disagrees with the pattern: recompute
  }

  // Each present tile must be named exactly once: with the count equal, a
  // repeated entry would leave another tile holding unfactored values.
  std::vector<char> seen(static_cast<std::size_t>(tiles.size()), 0);
  mem::TileStore store(dir, /*durable=*/false);
  for (const mem::TileManifestEntry& e : entries) {
    if (e.tile_id < 0 || e.tile_id >= static_cast<index_t>(nt) * nt) {
      return false;
    }
    const index_t i = e.tile_id / nt;
    const index_t j = e.tile_id % nt;
    const offset_t slot = tiles.slot(i, j);
    if (slot < 0 || seen[static_cast<std::size_t>(slot)]++ != 0) {
      return false;  // absent from the pattern, or named twice
    }
    Tile* t = tiles.tile(i, j);
    if (e.payload_len != static_cast<std::uint64_t>(t->panel_size())) {
      return false;
    }
    std::vector<real_t> payload;
    try {
      payload = store.reload(e.tile_id);  // frame CRC checked here
    } catch (const bin::IoError&) {
      journal_->quarantine(store.path_of(e.tile_id));
      ++durable_stats_.quarantined;
      return false;
    } catch (const Error&) {
      return false;  // tile file missing
    }
    // Manifest cross-check: catches a valid-but-wrong tile file swapped in
    // (the frame CRC alone cannot see substitution).
    if (payload.size() != e.payload_len ||
        bin::crc32c(payload.data(), payload.size() * sizeof(real_t)) !=
            e.payload_crc) {
      journal_->quarantine(store.path_of(e.tile_id));
      ++durable_stats_.quarantined;
      return false;
    }
    t->adopt_panel(std::move(payload));
    ++durable_stats_.tiles_rehydrated;
  }
  s.inst->restore_numeric_done();
  return true;
}

void SolverService::recover() {
  const auto wall0 = std::chrono::steady_clock::now();
  const bool obs_on = obs::enabled();
  const real_t h0 = obs_on ? obs::Recorder::global().host_now() : 0;

  SessionJournal::Replay rep = journal_->replay();
  durable_stats_.records_replayed +=
      static_cast<offset_t>(rep.records.size());
  durable_stats_.quarantined += static_cast<offset_t>(rep.quarantined.size());

  // Fold the WAL into per-session end state (records are seq-ordered).
  struct Folded {
    std::string tenant;
    std::uint64_t pattern_hash = 0;
    bool retired = false;
    bool has_commit = false;
    std::uint32_t last_gen = 0;
    std::uint64_t last_seed = 0;
    std::vector<std::uint64_t> idem;
  };
  std::map<SessionId, Folded> folded;
  for (const JournalRecord& r : rep.records) {
    Folded& f = folded[r.session];
    switch (r.event) {
      case JournalEvent::kOpen:
        f.tenant = r.tenant;
        f.pattern_hash = r.pattern_hash;
        break;
      case JournalEvent::kCommit:
        f.has_commit = true;
        f.last_gen = r.generation;
        f.last_seed = r.value_seed;
        if (r.idem_key != 0) f.idem.push_back(r.idem_key);
        break;
      case JournalEvent::kRetire:
        f.retired = true;
        break;
    }
    next_session_ = std::max(next_session_, r.session + 1);
  }

  // Rehydrate live sessions. Patterns are loaded once each (and symbolic
  // analysis runs once per pattern, through the ordinary serving cache).
  std::map<std::uint64_t, Csr> patterns;
  std::set<std::uint64_t> bad_patterns;
  for (auto& [sid, f] : folded) {
    if (f.retired || f.tenant.empty()) continue;
    if (bad_patterns.count(f.pattern_hash) != 0) {
      ++durable_stats_.recompute_fallbacks;
      continue;
    }
    auto pit = patterns.find(f.pattern_hash);
    if (pit == patterns.end()) {
      try {
        pit = patterns.emplace(f.pattern_hash,
                               journal_->load_pattern(f.pattern_hash))
                  .first;
      } catch (const bin::IoError&) {
        // Corrupt pattern artifact: quarantine it and degrade loudly — no
        // matrix means no rehydration; the tenant re-opens from scratch.
        journal_->quarantine(journal_->pattern_path(f.pattern_hash));
        ++durable_stats_.quarantined;
        bad_patterns.insert(f.pattern_hash);
        ++durable_stats_.recompute_fallbacks;
        continue;
      } catch (const Error&) {
        bad_patterns.insert(f.pattern_hash);  // artifact missing
        ++durable_stats_.recompute_fallbacks;
        continue;
      }
    }

    Session s;
    s.tenant = f.tenant;
    s.a0 = pit->second;
    s.pattern_hash = f.pattern_hash;
    s.generation = f.has_commit ? f.last_gen + 1 : 0;
    s.current_seed = f.last_seed;
    s.committed_idem.insert(f.idem.begin(), f.idem.end());
    s.recovered_unclaimed = true;
    // The committed values: the original a0 for generation 0, the last
    // journaled refactor seed otherwise — so the rebuilt system is the
    // exact one whose factors were committed.
    const Csr values = f.last_seed == 0
                           ? s.a0
                           : finalize_system(s.a0, f.last_seed);
    obtain_instance(values, sid, s);
    s.projection =
        mem::project_footprint(s.inst->graph(), opt_.sched.n_ranks);
    if (f.has_commit) {
      if (rehydrate_factors(sid, s, f.last_gen)) {
        s.factored = true;
        ++durable_stats_.factors_rehydrated;
      } else {
        // Corrupt/incomplete artifacts: never load them — recompute. The
        // instance may hold partially-adopted tiles, so the next
        // factorization rebuilds through the donor path.
        s.needs_rebuild = true;
        ++durable_stats_.recompute_fallbacks;
      }
    }
    ++durable_stats_.sessions_recovered;
    sessions_.emplace(sid, std::move(s));
  }

  durable_stats_.recovery_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (obs_on) {
    obs::Recorder::global().span(
        obs::Domain::kHost, obs::kServiceTrack, "recovery", "serve", h0,
        obs::Recorder::global().host_now(), "sessions",
        static_cast<std::int64_t>(durable_stats_.sessions_recovered),
        "replayed",
        static_cast<std::int64_t>(durable_stats_.records_replayed));
  }
}

}  // namespace th::serve
