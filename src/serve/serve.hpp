// Overload-robust multi-tenant solver serving (`th::serve`).
//
// Production sparse-direct deployments are factor-once/solve-many services:
// many tenants stream right-hand sides and refactorization requests against
// a registry of long-lived matrix patterns, and the expensive part of a
// request is decided by whether its pattern's symbolic analysis can be
// reused. This module wraps the repository's solver stack in exactly that
// shape, with overload robustness as a first-class contract rather than an
// afterthought:
//
//   * SolverService  — the session registry. Tenants open a session per
//     matrix (submit pattern -> handle), then stream solve/refactor
//     requests against it. A symbolic-analysis cache keyed by the sparsity
//     pattern's hash makes a session open on a known pattern skip
//     reordering and symbolic analysis entirely (SolverInstance's
//     donor constructor).
//   * Admission control — bounded per-tenant and global queues reject work
//     at submit time with a typed RejectedError (kQueueFull), deadlines
//     that cannot be met given the queued backlog are refused up front
//     (kDeadlineInfeasible), and sessions whose projected footprint
//     (mem::project_footprint) cannot fit the configured budget are
//     refused before any work is queued (kMemInfeasible).
//   * Deadlines & cancellation — each request may carry an absolute
//     virtual-time deadline; dispatched factorizations run with a
//     CancelToken armed so the scheduler unwinds at the first batch
//     boundary past the deadline (ScheduleOptions::cancel), freeing lanes
//     and ledger bytes deterministically. Abandoned handles (explicit
//     cancel() or a trace's abandon time) shed queued work without
//     running it.
//   * Graceful degradation — when the global queue saturates, the service
//     sheds the lowest-priority queued request to admit higher-priority
//     work (Completion::Status::kShed, never silently), and past a
//     configurable depth it dispatches factorizations under a tightened
//     memory budget so the scheduler's shrink/spill ladder narrows
//     batches instead of letting the backlog grow unbounded.
//   * Fair-share dispatch — queued tenants are served round-robin (one
//     pick per tenant per pass, highest priority first within a tenant)
//     over ONE shared exec::WorkerPool, so a flooding tenant cannot
//     starve the others of lanes.
//   * Batched solves — the dispatcher is the one place solve blocks are
//     formed: a round-robin turn coalesces the picked session's queued
//     kSolve requests (up to the next write, at most rhs.max_width) into
//     one block. The dispatcher is also the one place a block is
//     triaged — cancellation, abandonment and deadlines are honoured at
//     the block boundary — and an rhs::BlockSolver (src/rhs) prices the
//     survivors from the pattern's table and runs real SpTRSV numerics in
//     order on the dispatching thread.
//
// The service clock is *virtual*: it advances by the simulated makespans
// of the dispatched runs (plus a deterministic solve-cost model), never by
// host wall time, so every latency, shed decision and deadline miss is
// bit-reproducible from the submission sequence alone. Host work (symbolic
// analysis, numeric kernels) still executes for real — correctness is
// checked on real factors.
//
// Saturation is observable: ServeStats mirrors every counter into the obs
// registry as th.serve.* (publish_metrics), and the event recorder gets a
// "service" track with per-request spans plus a "serve symbolic" span
// emitted ONLY on cache misses — a cache hit is verifiable by the span's
// absence. DESIGN.md §14 documents the contract.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "exec/worker_pool.hpp"
#include "rhs/solve_dag.hpp"
#include "serve/journal.hpp"
#include "solvers/driver.hpp"
#include "support/cancel.hpp"

namespace th::serve {

/// Request priority; higher values displace lower ones when the global
/// queue is full (the first rung of the degradation ladder).
enum class Priority : char { kBatch = 0, kNormal = 1, kInteractive = 2 };

const char* priority_name(Priority p);

/// Why admission control refused a submission.
enum class RejectReason : char {
  kQueueFull,           // tenant or global queue bound reached
  kDeadlineInfeasible,  // backlog estimate already exceeds the deadline
  kMemInfeasible,       // projected footprint cannot fit the budget
};

const char* reject_reason_name(RejectReason r);

/// Typed early rejection: thrown by open_session()/submit() when admission
/// control refuses work. Carries the machine-readable reason so callers
/// (benches, the chaos harness, tenants implementing backoff) never parse
/// the message.
class RejectedError : public Error {
 public:
  RejectedError(RejectReason reason, const std::string& detail)
      : Error(std::string("request rejected (") + reject_reason_name(reason) +
              "): " + detail),
        reason_(reason) {}

  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

using SessionId = int;
using RequestId = std::int64_t;

enum class RequestKind : char {
  kFactor,    // numeric factorization of the session's current values
  kRefactor,  // new values, same pattern: donor rebuild + factorization
  kSolve,     // triangular solve for one right-hand side
};

const char* request_kind_name(RequestKind k);

/// One submission against an open session.
struct Request {
  RequestKind kind = RequestKind::kSolve;
  Priority priority = Priority::kNormal;
  /// Absolute virtual-time deadline; CancelToken::kNoDeadline = none.
  /// Factorizations past their deadline are cancelled at the first batch
  /// boundary beyond it; solves that cannot finish in time are not run.
  real_t deadline_s = CancelToken::kNoDeadline;
  /// Virtual time at which the tenant abandons the handle (replay/chaos
  /// traces); kNoDeadline = never. A request whose abandon time precedes
  /// its dispatch is shed from the queue without running.
  real_t abandon_at_s = CancelToken::kNoDeadline;
  /// kRefactor: seed for the session's new values; kSolve: seed for the
  /// synthetic solution the right-hand side is built from.
  std::uint64_t value_seed = 1;
  /// Client idempotency key for factor/refactor requests; 0 = none. With
  /// the journal enabled, a key this session already *committed* completes
  /// immediately as kDone instead of redoing the work — the dedup that
  /// makes replaying requests after a crash/restart safe.
  std::uint64_t idem_key = 0;
};

/// Terminal record of one admitted request. Every admitted request gets
/// exactly one Completion with a typed status — shed and abandoned work is
/// reported, never dropped silently.
struct Completion {
  enum class Status : char {
    kDone,          // ran to completion (solves carry their residual)
    kShed,          // displaced from the queue by the degradation ladder
    kCancelled,     // abandoned handle (explicit cancel / abandon time)
    kDeadlineMiss,  // deadline fired (queued too long or mid-run)
    kFailed,        // ran and failed (e.g. OomError); detail has the error
  };

  RequestId id = -1;
  SessionId session = -1;
  std::string tenant;
  RequestKind kind = RequestKind::kSolve;
  Priority priority = Priority::kNormal;
  Status status = Status::kDone;
  real_t arrival_s = 0;  // virtual submit time
  real_t start_s = 0;    // virtual dispatch time (= arrival for shed work)
  real_t finish_s = 0;   // virtual completion time
  /// Scaled residual of a completed solve; -1 otherwise.
  real_t residual = -1;
  /// Value seed of the factorization behind a kDone request: the values a
  /// factor/refactor factored, or those of the factors a solve ran
  /// against (0 = the session's original values). 0 when not kDone.
  std::uint64_t value_seed = 0;
  /// Human-readable context (shedding culprit, cancellation cause, error).
  std::string detail;

  real_t latency_s() const { return finish_s - arrival_s; }
  bool ok() const { return status == Status::kDone; }
};

const char* completion_status_name(Completion::Status s);

/// Service configuration. `sched` is the template every dispatched
/// factorization runs under (policy, ranks, cluster model); the service
/// overrides only its `cancel` token, its shared worker pool, and — on the
/// degradation ladder's second rung — its memory budget.
struct ServeOptions {
  ScheduleOptions sched;
  /// Width of the single WorkerPool shared by every session's
  /// factorizations.
  int exec_workers = 2;
  /// Global queue bound; submissions beyond it are shed-or-rejected.
  int max_queued_global = 32;
  /// Per-tenant queue bound; a flooding tenant hits this first.
  int max_queued_per_tenant = 8;
  /// Per-rank device-memory budget for admission (mem::project_footprint)
  /// and for dispatched runs; 0 disables both.
  offset_t mem_budget_bytes = 0;
  /// Queue-depth fraction of max_queued_global at which dispatched
  /// factorizations run under a tightened budget (batch-shrink rung).
  double degrade_queue_fraction = 0.75;
  /// Allow a full global queue to shed its lowest-priority entry for a
  /// strictly higher-priority submission (off = plain rejection).
  bool shed_on_full = true;
  /// Batched multi-RHS solve configuration: the dispatcher coalesces a
  /// session's queued kSolve requests into blocks of at most max_width,
  /// each run as one rhs::BlockSolver solve on the session's
  /// factorization under `schedule`.
  rhs::RhsOptions rhs;
  /// Durability: write-ahead session journal, CRC-protected artifacts and
  /// crash/restart recovery (serve/journal.hpp). Off unless a journal
  /// directory is configured; the serve fast path is untouched then.
  DurableOptions durable;

  /// Throws th::Error on nonsensical configurations.
  void validate() const;
};

/// Service accounting; mirrors into the obs registry as th.serve.* via
/// publish_metrics() so registry snapshots reconcile with this struct by
/// construction. submitted counts *admitted* requests only — rejected ones
/// threw RejectedError and never entered a queue; every admitted request
/// ends in exactly one of completed/shed/cancelled/deadline_misses/failed,
/// and failed splits by reason into failed_no_factors + failed_error.
struct ServeStats {
  offset_t sessions_opened = 0;
  offset_t cache_hits = 0;    // session opens that reused cached symbolics
  offset_t cache_misses = 0;  // session opens that ran the symbolic phase
  offset_t submitted = 0;
  offset_t completed = 0;  // Status::kDone
  offset_t shed = 0;
  offset_t cancelled = 0;
  offset_t deadline_misses = 0;
  offset_t failed = 0;
  offset_t failed_no_factors = 0;  // solves on a session without valid factors
  offset_t failed_error = 0;       // typed aborts (e.g. OomError)
  offset_t rejected_queue_full = 0;
  offset_t rejected_deadline = 0;
  offset_t rejected_mem = 0;
  offset_t factors = 0;    // completed factorizations (initial)
  offset_t refactors = 0;  // completed refactorizations
  offset_t solves = 0;     // completed solves
  offset_t degraded_runs = 0;  // dispatches under a tightened budget
  offset_t queue_depth = 0;    // current depth (kept live by the service)
  offset_t queue_high_water = 0;
  real_t busy_s = 0;  // virtual seconds spent serving

  double cache_hit_rate() const {
    const offset_t n = cache_hits + cache_misses;
    return n > 0 ? static_cast<double>(cache_hits) / static_cast<double>(n)
                 : 0.0;
  }

  /// Mirror these counters into the obs metrics registry under th.serve.*.
  void publish_metrics() const;
};

/// The session registry and request queue. Single-threaded by design: the
/// serving loop (submit/advance/drain) must run on one thread, which makes
/// every overload decision deterministic and bit-reproducible from the
/// submission sequence. CancelToken writes are atomic, so cancel() on a
/// *queued* request may race the loop only if the caller synchronises —
/// in-process tenants normally cancel via Request::abandon_at_s instead.
class SolverService {
 public:
  explicit SolverService(const ServeOptions& opt);
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Current virtual service time (seconds).
  real_t now_s() const { return now_s_; }

  /// Register a tenant's matrix and run (or reuse) its symbolic analysis.
  /// Throws RejectedError{kMemInfeasible} when the pattern's projected
  /// footprint cannot fit the budget. Synchronous and off the virtual
  /// clock: symbolic analysis is control-plane work. After a recovery, a
  /// tenant re-opening a pattern it held before the crash *claims* its
  /// rehydrated session back (same id, committed factors and idempotency
  /// keys intact) instead of opening a fresh one.
  SessionId open_session(const std::string& tenant, const Csr& a);

  /// Retire a session: its queued work completes as kCancelled (it never
  /// dispatches, so no commit can be journaled after the retirement
  /// record), the retirement is journaled strictly after the session's
  /// last commit, and the registry entry is dropped. Returns false for
  /// unknown ids — idempotent, so replaying a retirement is a no-op.
  bool retire_session(SessionId sid);

  /// Enqueue a request; admission control may throw RejectedError. The
  /// request's arrival time is the current virtual clock.
  RequestId submit(SessionId sid, const Request& req);

  /// Abandon a queued request (sticky, idempotent; unknown ids are
  /// ignored). The request completes as Status::kCancelled at dispatch.
  void cancel(RequestId id);

  /// Runtime budget override — the chaos harness's mem-ramp hook; affects
  /// subsequent admissions and dispatches.
  void set_mem_budget(offset_t bytes);

  /// Dispatch queued requests until the virtual clock reaches `until_s` or
  /// the queues drain (each dispatched request runs to completion, so the
  /// clock may overshoot; the next arrival simply queues behind it).
  void advance(real_t until_s);

  /// Run the queues dry and return every completion not yet taken.
  std::vector<Completion> drain();

  /// Completions accumulated since the last take (dispatch order).
  std::vector<Completion> take_completions();

  int queue_depth() const { return static_cast<int>(pending_.size()); }
  const ServeStats& stats() const { return stats_; }
  /// Durability accounting (journal appends, commits, recovery results);
  /// all zeros while the journal is disabled.
  const DurableStats& durable_stats() const { return durable_stats_; }
  /// The journal, or null while durability is off (benches inspect the
  /// directory layout through it).
  const SessionJournal* journal() const { return journal_.get(); }
  /// Sessions rehydrated by recovery that no tenant has claimed yet.
  std::vector<SessionId> recovered_sessions() const;
  /// Aggregated accounting of every executed block solve (th.rhs.* when
  /// published); dag_builds/dag_reuses sum the per-pattern price tables.
  rhs::RhsStats rhs_stats() const;
  std::size_t cache_size() const { return cache_.size(); }

  /// The session's current solver instance (null for unknown ids) — lets
  /// benches compare served factors bitwise against standalone runs.
  const SolverInstance* session_instance(SessionId sid) const;

  /// The one worker pool every dispatched factorization executes on.
  exec::WorkerPool& pool() { return pool_; }

 private:
  struct Session {
    std::string tenant;
    Csr a0;  // original matrix (pattern + values; refactors reseed values)
    std::shared_ptr<SolverInstance> inst;
    std::uint64_t pattern_hash = 0;
    mem::FootprintProjection projection;
    bool factored = false;
    /// A cancelled/failed factorization leaves partially-written tiles;
    /// the next factor/refactor must rebuild the instance (donor path).
    bool needs_rebuild = false;
    real_t est_factor_s = 0;  // timing-sim estimate (admission backlog)
    /// The pattern's solve price table (shared with its cache entry).
    std::shared_ptr<rhs::SolvePrices> prices;
    /// Committed factor generations (the next commit's artifact suffix).
    std::uint32_t generation = 0;
    /// Seed that produced the current values (0 = the original a0 values);
    /// journaled on commit so recovery can rebuild the exact system.
    std::uint64_t current_seed = 0;
    /// Idempotency keys whose factor/refactor already committed.
    std::set<std::uint64_t> committed_idem;
    /// Rehydrated by recovery and awaiting the tenant's re-open claim.
    bool recovered_unclaimed = false;
  };

  struct CacheEntry {
    std::shared_ptr<SolverInstance> donor;
    real_t est_factor_s = 0;
    /// The pattern's solve prices, shared by its sessions.
    std::shared_ptr<rhs::SolvePrices> prices;
  };

  struct Pending {
    RequestId id = -1;
    SessionId session = -1;
    Request req;
    real_t arrival_s = 0;
    std::unique_ptr<CancelToken> token;
  };

  /// Virtual seconds to serve every queued request plus a new `kind` on
  /// session `sid`, pricing each session's solves as dispatch groups them.
  real_t backlog_estimate_s(SessionId sid, RequestKind kind);
  /// Highest priority, then earliest deadline, then FIFO within a tenant,
  /// among the requests that keep per-session causality: no request passes
  /// an older write of its session, and no write passes any older request.
  RequestId pick_from_tenant(const std::string& tenant) const;
  /// Fair-share pick across tenants (round-robin cursor); -1 when idle.
  RequestId pick_next();
  void finish(Pending p, Completion::Status status, real_t start_s,
              real_t finish_s, real_t residual, std::string detail);
  void unqueue(SessionId sid, RequestId id);
  void dispatch_one();
  void run_factor(Session& s, Pending& p, real_t start_s);
  /// Execute the block dispatch_one formed from one session's kSolve
  /// requests (admission order): shed abandoned members, members that
  /// cannot finish alone and members due before the block's priced finish,
  /// then solve the rest as one block with a BlockSolver over the session's
  /// factors and its pattern's price table.
  void run_solve_batch(Session& s, std::vector<Pending> batch,
                       real_t start_s);
  /// Virtual cost of a width-`width` block solve on the session's pattern.
  real_t solve_estimate_s(const Session& s, index_t width) const;
  /// Cache-hit/miss construction of `s.inst` for values `a` on pattern
  /// `s.pattern_hash`, plus its factor estimate and price table; shared by
  /// open_session() and recovery (sid labels the obs events).
  void obtain_instance(const Csr& a, SessionId sid, Session& s);
  /// Journal hooks; all no-ops while the journal is disabled.
  void journal_open(SessionId sid, const Session& s);
  void commit_factor(SessionId sid, Session& s, std::uint64_t idem_key);
  /// Deterministic crash injection: fires right before the N-th journal
  /// append of a configured event (DurableOptions::crashes) — leaves a
  /// torn `*.tmp` record behind, then throws CrashError or SIGKILLs.
  void maybe_crash(const char* event);
  /// Replay the journal and rehydrate sessions + committed factors.
  void recover();
  /// Restore one committed factorization bit-identically from its artifact
  /// dir; false (with quarantine/fallback accounting) on corruption.
  bool rehydrate_factors(SessionId sid, Session& s, std::uint32_t gen);

  ServeOptions opt_;
  exec::WorkerPool pool_;
  real_t now_s_ = 0;
  SessionId next_session_ = 0;
  RequestId next_request_ = 0;
  std::map<SessionId, Session> sessions_;
  std::map<std::uint64_t, CacheEntry> cache_;
  std::map<RequestId, Pending> pending_;
  /// Per-tenant FIFO of pending ids (fair-share unit). Entries are lazily
  /// pruned when their request is no longer pending.
  std::map<std::string, std::deque<RequestId>> tenant_queues_;
  /// Round-robin cursor: the tenant served last (next pass starts after).
  std::string rr_cursor_;
  std::vector<Completion> completions_;
  ServeStats stats_;
  /// Counts of every block solve (rhs_stats() adds the tables' dag
  /// counts).
  rhs::RhsStats rhs_stats_;
  /// Durability state (null/zero while the journal is disabled).
  std::unique_ptr<SessionJournal> journal_;
  DurableStats durable_stats_;
  /// Crash-injection bookkeeping: appends per event, total appends, and
  /// which configured crash points already fired (each fires once).
  std::map<std::string, offset_t> crash_counts_;
  offset_t crash_appends_ = 0;
  std::set<std::size_t> crash_fired_;
};

/// FNV-1a hash of a matrix's sparsity structure (n, row_ptr, col_idx) —
/// the symbolic-cache key. Values do not participate: two matrices with
/// equal hashes share ordering, tile pattern and task DAG (and the donor
/// constructor verifies the structure byte-for-byte, so a collision fails
/// loudly instead of corrupting numerics).
std::uint64_t pattern_hash(const Csr& a);

}  // namespace th::serve
