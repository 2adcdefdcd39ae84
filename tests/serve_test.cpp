// Overload-robust serving layer (src/serve, DESIGN.md §14): cooperative
// cancellation, the symbolic cache's donor path, every typed admission
// rejection, priority shedding, deadline/abandon handling, fair-share
// dispatch, obs reconciliation, replay determinism and the tenant-
// misbehavior chaos harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "kernels/tile.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "serve/chaos.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "solvers/plu.hpp"
#include "support/cancel.hpp"

namespace th {
namespace {

using serve::Completion;
using serve::Priority;
using serve::RejectedError;
using serve::RejectReason;
using serve::Request;
using serve::RequestKind;
using serve::ServeOptions;
using serve::SessionId;
using serve::SolverService;

Csr grid(index_t side, std::uint64_t value_seed) {
  return finalize_system(grid2d_laplacian(side, side), value_seed);
}

ServeOptions small_service() {
  ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  return o;
}

// ---- CancelToken (the scheduler-facing primitive) -------------------------

TEST(CancelToken, DeadlineAndExplicitCancelFireTyped) {
  CancelToken t;
  EXPECT_FALSE(t.has_deadline());
  t.check(1e20);  // no deadline, not cancelled: never throws

  t.set_deadline(2.0);
  EXPECT_TRUE(t.has_deadline());
  t.check(1.99);  // before the deadline
  try {
    t.check(2.0);  // at the deadline (inclusive)
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::kDeadline);
    EXPECT_EQ(e.at_s(), 2.0);
  }

  // Explicit cancel wins over the deadline and is sticky.
  t.cancel();
  try {
    t.check(5.0);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.cause(), CancelCause::kExplicit);
  }

  t.reset();
  EXPECT_FALSE(t.cancel_requested());
  EXPECT_FALSE(t.has_deadline());
  t.check(1e20);
}

// ---- pattern hash ---------------------------------------------------------

TEST(PatternHash, DependsOnStructureNotValues) {
  const Csr a = grid(10, 1);
  const Csr b = grid(10, 999);  // same structure, different values
  const Csr c = grid(11, 1);    // different structure
  EXPECT_EQ(serve::pattern_hash(a), serve::pattern_hash(b));
  EXPECT_NE(serve::pattern_hash(a), serve::pattern_hash(c));
}

// ---- symbolic cache -------------------------------------------------------

TEST(SolverService, SecondOpenOnSamePatternHitsTheCache) {
  SolverService svc(small_service());
  const SessionId s1 = svc.open_session("alice", grid(12, 1));
  EXPECT_EQ(svc.stats().cache_misses, 1);
  EXPECT_EQ(svc.stats().cache_hits, 0);
  EXPECT_EQ(svc.cache_size(), 1u);

  // Same structure, different values: full symbolic reuse.
  const SessionId s2 = svc.open_session("bob", grid(12, 2));
  EXPECT_EQ(svc.stats().cache_misses, 1);
  EXPECT_EQ(svc.stats().cache_hits, 1);
  EXPECT_EQ(svc.cache_size(), 1u);

  // The donor-built instance must be numerically whole: factor both
  // sessions and solve on each.
  for (const SessionId sid : {s1, s2}) {
    Request f;
    f.kind = RequestKind::kFactor;
    svc.submit(sid, f);
    Request sol;
    sol.kind = RequestKind::kSolve;
    sol.value_seed = 77;
    svc.submit(sid, sol);
  }
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 4u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LT(c.residual, 1e-9);
      EXPECT_GE(c.residual, 0);
    }
  }
  // A different pattern misses.
  svc.open_session("carol", grid(13, 1));
  EXPECT_EQ(svc.stats().cache_misses, 2);
  EXPECT_EQ(svc.cache_size(), 2u);
}

TEST(SolverService, DonorBuiltInstanceSharesItsDonorsEnvelopeLists) {
  SolverService svc(small_service());
  const SessionId s1 = svc.open_session("alice", grid(12, 1));
  const SessionId s2 = svc.open_session("bob", grid(12, 2));
  ASSERT_EQ(svc.stats().cache_hits, 1);
  auto shares = [&] {
    const PluFactorization* x = svc.session_instance(s1)->plu_factorization();
    const PluFactorization* y = svc.session_instance(s2)->plu_factorization();
    if (&x->pattern() != &y->pattern()) return false;
    const TileMatrix& tx = x->tiles();
    const TileMatrix& ty = y->tiles();
    for (index_t i = 0; i < tx.nt(); ++i) {
      for (index_t j = 0; j < tx.nt(); ++j) {
        const Tile* a = tx.tile(i, j);
        const Tile* b = ty.tile(i, j);
        if ((a == nullptr) != (b == nullptr)) return false;
        if (a == nullptr) continue;
        // The same list storage, not merely equal lists.
        if (a->row_idx().data() != b->row_idx().data() ||
            a->col_idx().data() != b->col_idx().data() ||
            a->panel_size() != b->panel_size()) {
          return false;
        }
      }
    }
    return true;
  };
  EXPECT_TRUE(shares());
  for (const SessionId sid : {s1, s2}) {
    Request f;
    f.kind = RequestKind::kFactor;
    svc.submit(sid, f);
    Request sol;
    sol.kind = RequestKind::kSolve;
    sol.value_seed = 78;
    svc.submit(sid, sol);
  }
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 4u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LT(c.residual, 1e-9);
      EXPECT_GE(c.residual, 0);
    }
  }
  // Refactors rebuild each instance through the donor path: still shared.
  EXPECT_TRUE(shares());
}

// Solve prices live in the pattern's cache entry, not in a session's
// instance: a refactor (which rebuilds the instance) and a second session
// on the same pattern reuse them and price no width again.
TEST(SolverService, SolvePricesSurviveRefactorsAndSessions) {
  SolverService svc(small_service());
  const SessionId s1 = svc.open_session("alice", grid(12, 1));
  Request f;
  f.kind = RequestKind::kFactor;
  Request sol;
  sol.kind = RequestKind::kSolve;
  sol.value_seed = 5;
  svc.submit(s1, f);
  svc.submit(s1, sol);
  for (const Completion& c : svc.drain()) EXPECT_TRUE(c.ok()) << c.detail;
  const rhs::RhsStats first = svc.rhs_stats();
  ASSERT_EQ(first.solved, 1);
  ASSERT_GT(first.dag_builds, 0);

  Request rf;
  rf.kind = RequestKind::kRefactor;
  rf.value_seed = 6;
  svc.submit(s1, rf);
  svc.submit(s1, sol);
  const SessionId s2 = svc.open_session("bob", grid(12, 2));
  ASSERT_EQ(svc.stats().cache_hits, 1);
  svc.submit(s2, f);
  svc.submit(s2, sol);
  for (const Completion& c : svc.drain()) EXPECT_TRUE(c.ok()) << c.detail;
  const rhs::RhsStats later = svc.rhs_stats();
  EXPECT_EQ(later.solved, 3);
  EXPECT_EQ(later.dag_builds, first.dag_builds);
  EXPECT_GT(later.dag_reuses, first.dag_reuses);
}

TEST(SolverService, CacheStillLendsThePatternAfterItsDonorIsReplaced) {
  // Refactors move the cache's donor to each rebuilt instance, so the
  // replaced ones are freed. Once A retires, B's open must still hit the
  // cache and build a numerically whole instance.
  SolverService svc(small_service());
  const SessionId a = svc.open_session("alice", grid(12, 1));
  EXPECT_EQ(svc.stats().cache_misses, 1);
  Request f;
  f.kind = RequestKind::kFactor;
  svc.submit(a, f);
  for (const std::uint64_t seed : {3u, 4u}) {
    Request r;
    r.kind = RequestKind::kRefactor;
    r.value_seed = seed;
    svc.submit(a, r);
  }
  for (const Completion& c : svc.drain()) EXPECT_TRUE(c.ok()) << c.detail;
  EXPECT_TRUE(svc.retire_session(a));

  const SessionId b = svc.open_session("bob", grid(12, 2));
  EXPECT_EQ(svc.stats().cache_hits, 1);
  EXPECT_EQ(svc.stats().cache_misses, 1);
  EXPECT_EQ(svc.cache_size(), 1u);
  svc.submit(b, f);
  Request sol;
  sol.kind = RequestKind::kSolve;
  sol.value_seed = 77;
  svc.submit(b, sol);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].ok()) << done[0].detail;
  ASSERT_TRUE(done[1].ok()) << done[1].detail;
  EXPECT_LT(done[1].residual, 1e-9);
  EXPECT_GE(done[1].residual, 0);
}

// ---- admission control: all three typed reasons ---------------------------

TEST(SolverService, MemInfeasiblePatternIsRejectedAtOpen) {
  ServeOptions o = small_service();
  o.mem_budget_bytes = 64;  // nothing fits in 64 bytes per rank
  SolverService svc(o);
  try {
    svc.open_session("alice", grid(12, 1));
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kMemInfeasible);
  }
  EXPECT_EQ(svc.stats().rejected_mem, 1);
  EXPECT_EQ(svc.stats().sessions_opened, 0);
  // Raising the budget (the chaos mem-ramp hook, in reverse) admits it.
  svc.set_mem_budget(0);
  EXPECT_GE(svc.open_session("alice", grid(12, 1)), 0);
}

TEST(SolverService, TenantQueueBoundRejectsTyped) {
  ServeOptions o = small_service();
  o.max_queued_per_tenant = 2;
  o.max_queued_global = 32;
  SolverService svc(o);
  const SessionId sid = svc.open_session("alice", grid(12, 1));
  Request f;
  f.kind = RequestKind::kFactor;
  svc.submit(sid, f);
  svc.submit(sid, f);
  try {
    svc.submit(sid, f);
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  EXPECT_EQ(svc.stats().rejected_queue_full, 1);
  // Another tenant still has room (the bound is per-tenant).
  const SessionId other = svc.open_session("bob", grid(12, 2));
  EXPECT_GE(svc.submit(other, f), 0);
}

TEST(SolverService, InfeasibleDeadlineIsRejectedUpFront) {
  SolverService svc(small_service());
  const SessionId sid = svc.open_session("alice", grid(12, 1));
  Request f;
  f.kind = RequestKind::kFactor;
  f.deadline_s = 1e-12;  // the backlog-free estimate already exceeds this
  try {
    svc.submit(sid, f);
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kDeadlineInfeasible);
  }
  EXPECT_EQ(svc.stats().rejected_deadline, 1);
  EXPECT_EQ(svc.stats().submitted, 0);
}

// Admission prices a session's queued solves as the blocks dispatch will
// run them: four deadline-free solves plus an urgent fifth form one width-5
// block. The urgent deadline lies between that block's finish and five
// width-1 solves back to back, so pricing each queued solve alone would
// refuse a request the block serves in time.
TEST(SolverService, QueuedSolvesArePricedAsTheirBlock) {
  const ServeOptions o = small_service();
  SolverService svc(o);
  const SessionId sid = svc.open_session("alice", grid(14, 3));
  Request f;
  f.kind = RequestKind::kFactor;
  svc.submit(sid, f);
  svc.drain();

  rhs::SolvePrices prices(
      svc.session_instance(sid)->plu_factorization()->shared_pattern(),
      o.sched, make_process_grid(o.sched.n_ranks));
  const real_t e1 = prices.price(1, o.rhs.schedule).makespan_s();
  const real_t e5 = prices.price(5, o.rhs.schedule).makespan_s();
  ASSERT_LT(e5, 5 * e1);
  for (int i = 0; i < 4; ++i) {
    Request sol;
    sol.kind = RequestKind::kSolve;
    sol.value_seed = 60 + static_cast<std::uint64_t>(i);
    svc.submit(sid, sol);
  }
  Request urgent;
  urgent.kind = RequestKind::kSolve;
  urgent.deadline_s = svc.now_s() + 0.5 * (e5 + 5 * e1);
  const serve::RequestId id = svc.submit(sid, urgent);  // must not throw
  EXPECT_EQ(svc.stats().rejected_deadline, 0);

  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 5u);
  for (const Completion& c : done) {
    EXPECT_EQ(c.status, Completion::Status::kDone) << c.detail;
    if (c.id == id) {
      EXPECT_LE(c.finish_s, urgent.deadline_s);
    }
  }
}

// ---- degradation ladder rung 1: priority shedding -------------------------

TEST(SolverService, FullGlobalQueueShedsLowestPriorityYoungestFirst) {
  ServeOptions o = small_service();
  o.max_queued_global = 3;
  o.max_queued_per_tenant = 8;
  SolverService svc(o);
  const SessionId sid = svc.open_session("alice", grid(12, 1));

  Request batch;
  batch.kind = RequestKind::kFactor;
  batch.priority = Priority::kBatch;
  const serve::RequestId b0 = svc.submit(sid, batch);
  const serve::RequestId b1 = svc.submit(sid, batch);
  const serve::RequestId b2 = svc.submit(sid, batch);
  EXPECT_EQ(svc.queue_depth(), 3);

  // Higher-priority work displaces the *youngest* lowest-priority entry.
  Request urgent;
  urgent.kind = RequestKind::kFactor;
  urgent.priority = Priority::kInteractive;
  svc.submit(sid, urgent);
  EXPECT_EQ(svc.queue_depth(), 3);
  const std::vector<Completion> shed = svc.take_completions();
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, b2);
  EXPECT_EQ(shed[0].status, Completion::Status::kShed);
  EXPECT_EQ(svc.stats().shed, 1);

  // Equal priority cannot displace anything: typed rejection.
  Request more_urgent = urgent;
  try {
    svc.submit(sid, more_urgent);  // queue: b0, b1 (batch) + interactive
    // b0/b1 are batch, so this *does* shed b1 — submit again until only
    // interactive work remains, then expect the rejection.
    svc.submit(sid, more_urgent);  // sheds b0
    svc.submit(sid, more_urgent);  // all interactive now: must throw
    FAIL() << "expected RejectedError";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  EXPECT_EQ(svc.stats().shed, 3);
  (void)b0;
  (void)b1;

  // Shedding off: a full queue plainly rejects even higher priority.
  ServeOptions strict = o;
  strict.shed_on_full = false;
  SolverService svc2(strict);
  const SessionId sid2 = svc2.open_session("alice", grid(12, 1));
  svc2.submit(sid2, batch);
  svc2.submit(sid2, batch);
  svc2.submit(sid2, batch);
  EXPECT_THROW(svc2.submit(sid2, urgent), RejectedError);
  EXPECT_EQ(svc2.stats().shed, 0);
}

// ---- deadlines, cancellation, abandonment ---------------------------------

TEST(SolverService, QueuedCancelAndAbandonCompleteAsCancelled) {
  SolverService svc(small_service());
  const SessionId sid = svc.open_session("alice", grid(12, 1));

  Request f;
  f.kind = RequestKind::kFactor;
  const serve::RequestId explicit_id = svc.submit(sid, f);
  svc.cancel(explicit_id);  // abandoned while queued
  svc.cancel(explicit_id);  // idempotent
  svc.cancel(999999);       // unknown ids are ignored

  Request abandoned;
  abandoned.kind = RequestKind::kFactor;
  abandoned.abandon_at_s = 0;  // gone before any dispatch
  const serve::RequestId abandon_id = svc.submit(sid, abandoned);

  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  std::map<serve::RequestId, Completion::Status> by_id;
  for (const Completion& c : done) by_id[c.id] = c.status;
  EXPECT_EQ(by_id[explicit_id], Completion::Status::kCancelled);
  EXPECT_EQ(by_id[abandon_id], Completion::Status::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 2);
  // Neither ran: no factors happened, the session is still unfactored.
  EXPECT_EQ(svc.stats().factors, 0);
}

TEST(SolverService, MidRunAbandonCancelsAtBatchBoundaryAndSessionRecovers) {
  SolverService svc(small_service());
  const SessionId sid = svc.open_session("alice", grid(16, 1));

  // Abandon a sliver of virtual time into the run: the scheduler must
  // unwind at the first batch boundary past it.
  Request f;
  f.kind = RequestKind::kFactor;
  f.abandon_at_s = 1e-7;
  svc.submit(sid, f);
  std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, Completion::Status::kCancelled);
  EXPECT_GT(done[0].finish_s, done[0].start_s);  // charged to the boundary
  EXPECT_NE(done[0].detail.find("batch boundary"), std::string::npos);

  // The cancelled run left partial tiles: a solve now must fail loudly...
  Request sol;
  sol.kind = RequestKind::kSolve;
  svc.submit(sid, sol);
  done = svc.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, Completion::Status::kFailed);

  // ...and the next factorization rebuilds through the donor path, after
  // which solves are correct again.
  Request refresh;
  refresh.kind = RequestKind::kFactor;
  svc.submit(sid, refresh);
  Request sol2;
  sol2.kind = RequestKind::kSolve;
  sol2.value_seed = 5;
  svc.submit(sid, sol2);
  done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].ok()) << done[0].detail;
  EXPECT_TRUE(done[1].ok()) << done[1].detail;
  EXPECT_LT(done[1].residual, 1e-9);
}

TEST(SolverService, FailureReasonsAreCountedAndPublished) {
  const obs::Session obs_session(true);
  SolverService svc(small_service());
  const SessionId sid = svc.open_session("alice", grid(12, 1));

  // A solve before any factorization has no factors to solve with.
  Request sol;
  sol.kind = RequestKind::kSolve;
  svc.submit(sid, sol);
  std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, Completion::Status::kFailed);

  // A factorization admitted unbudgeted, then dispatched under a one-byte
  // budget: the memory ladder runs dry and the run aborts with OomError.
  Request f;
  f.kind = RequestKind::kFactor;
  svc.submit(sid, f);
  svc.set_mem_budget(1);
  done = svc.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, Completion::Status::kFailed);

  const serve::ServeStats& st = svc.stats();
  EXPECT_EQ(st.failed, 2);
  EXPECT_EQ(st.failed_no_factors, 1);
  EXPECT_EQ(st.failed_error, 1);
  st.publish_metrics();
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("th.serve.failed").value(), 2);
  EXPECT_EQ(reg.counter("th.serve.failed.no_factors").value(),
            static_cast<std::int64_t>(st.failed_no_factors));
  EXPECT_EQ(reg.counter("th.serve.failed.error").value(),
            static_cast<std::int64_t>(st.failed_error));
}

// ---- fair-share dispatch --------------------------------------------------

// One round-robin turn is one block of at most rhs.max_width solves of one
// session, so a tenant behind a flood waits at most one block per other
// tenant.
TEST(SolverService, RoundRobinKeepsFloodingTenantFromStarvingOthers) {
  ServeOptions o = small_service();
  o.max_queued_per_tenant = 8;
  o.rhs.max_width = 2;
  SolverService svc(o);
  const SessionId alice = svc.open_session("alice", grid(12, 1));
  const SessionId bob = svc.open_session("bob", grid(12, 2));
  Request f;
  f.kind = RequestKind::kFactor;
  svc.submit(alice, f);
  svc.submit(bob, f);
  svc.drain();

  // Alice floods; Bob submits one. Fair share must serve Bob within the
  // first round, after one block of Alice's, not after her whole backlog.
  Request sol;
  sol.kind = RequestKind::kSolve;
  for (int i = 0; i < 5; ++i) svc.submit(alice, sol);
  svc.submit(bob, sol);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 6u);
  std::size_t bob_at = done.size();
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (done[i].tenant == "bob") bob_at = i;
  }
  EXPECT_LE(bob_at, 2u) << "bob was starved until position " << bob_at;
  for (const Completion& c : done) EXPECT_TRUE(c.ok()) << c.detail;
  // Alice's first turn is one block of width 2: 2 + 1 (Bob) + 2 + 1.
  EXPECT_EQ(done[0].tenant, "alice");
  EXPECT_EQ(done[1].tenant, "alice");
  EXPECT_EQ(done[0].start_s, done[1].start_s);
  EXPECT_EQ(done[0].finish_s, done[1].finish_s);
  EXPECT_EQ(svc.rhs_stats().widest_batch, 2);
  EXPECT_EQ(svc.rhs_stats().batches, 4);
}

// ---- per-session causality ------------------------------------------------

TEST(SolverService, RequestsNeverPassAnOlderWriteOfTheirSession) {
  SolverService svc(small_service());
  const SessionId sid = svc.open_session("alice", grid(12, 1));

  // An interactive solve queued behind a normal-priority factor must wait
  // for it instead of failing on a session that has no factors yet.
  Request f;
  f.kind = RequestKind::kFactor;
  const serve::RequestId factor = svc.submit(sid, f);
  Request urgent;
  urgent.kind = RequestKind::kSolve;
  urgent.priority = Priority::kInteractive;
  const serve::RequestId first = svc.submit(sid, urgent);
  // A refactor between two solves: the earlier solve may not coalesce the
  // later one past it, and the later, higher-priority solve may not pass
  // it either.
  Request early;
  early.kind = RequestKind::kSolve;
  early.value_seed = 3;
  const serve::RequestId before = svc.submit(sid, early);
  Request r;
  r.kind = RequestKind::kRefactor;
  r.value_seed = 9;
  const serve::RequestId refactor = svc.submit(sid, r);
  const serve::RequestId after = svc.submit(sid, urgent);

  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 5u);
  std::map<serve::RequestId, Completion> by_id;
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    by_id[c.id] = c;
  }
  EXPECT_GE(by_id[first].start_s, by_id[factor].finish_s);
  EXPECT_GE(by_id[before].start_s, by_id[factor].finish_s);
  EXPECT_LE(by_id[before].finish_s, by_id[refactor].start_s);
  EXPECT_LE(by_id[first].finish_s, by_id[refactor].start_s);
  EXPECT_GE(by_id[after].start_s, by_id[refactor].finish_s);
  EXPECT_EQ(svc.stats().failed, 0);
  // Each completion names the values it ran against.
  EXPECT_EQ(by_id[factor].value_seed, 0u);
  EXPECT_EQ(by_id[first].value_seed, 0u);
  EXPECT_EQ(by_id[before].value_seed, 0u);
  EXPECT_EQ(by_id[refactor].value_seed, 9u);
  EXPECT_EQ(by_id[after].value_seed, 9u);
}

TEST(ServeChaos, CausalityInvariantHoldsOnInterleavedWrites) {
  // The same interleaving as above, as a chaos scenario: invariant 5
  // checks each completed solve against its session's latest write.
  serve::ServeTrace trace;
  trace.opt.n_patterns = 1;
  trace.opt.base_n = 10;
  trace.opt.n_tenants = 1;
  const std::vector<std::pair<RequestKind, Priority>> kinds{
      {RequestKind::kFactor, Priority::kNormal},
      {RequestKind::kSolve, Priority::kInteractive},
      {RequestKind::kSolve, Priority::kNormal},
      {RequestKind::kRefactor, Priority::kNormal},
      {RequestKind::kSolve, Priority::kInteractive},
      {RequestKind::kRefactor, Priority::kBatch},
      {RequestKind::kSolve, Priority::kInteractive}};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    serve::TraceEvent e;
    e.kind = kinds[i].first;
    e.priority = kinds[i].second;
    e.value_seed = 100 + i;
    trace.events.push_back(e);
  }
  EXPECT_EQ(serve::run_serve_scenario(small_service(), trace, {}), "");
}

// ---- stats / obs reconciliation -------------------------------------------

TEST(SolverService, StatsReconcileWithRegistryAndSymbolicSpans) {
  const obs::Session obs_session(true);
  serve::TraceOptions topt;
  topt.seed = 7;
  topt.n_patterns = 3;
  topt.base_n = 10;
  topt.n_tenants = 2;
  topt.n_requests = 30;
  topt.mean_service_s = 1e-4;
  topt.load = 2.0;  // force queueing so shed/reject paths light up
  topt.p_abandon = 0.1;
  topt.p_deadline = 0.2;
  const serve::ServeTrace trace = serve::synth_trace(topt);

  ServeOptions o = small_service();
  o.max_queued_global = 8;
  o.max_queued_per_tenant = 4;
  SolverService svc(o);
  const serve::ReplayReport rep = serve::replay(svc, trace);
  const serve::ServeStats& st = rep.stats;

  // Every admitted request ended in exactly one terminal status.
  EXPECT_EQ(st.submitted, st.completed + st.shed + st.cancelled +
                              st.deadline_misses + st.failed);
  EXPECT_EQ(rep.completions.size(), static_cast<std::size_t>(st.submitted));
  EXPECT_EQ(st.queue_depth, 0);

  st.publish_metrics();
  std::map<std::string, obs::MetricSample> reg;
  for (const obs::MetricSample& m : obs::Registry::global().snapshot()) {
    reg[m.name] = m;
  }
  EXPECT_EQ(reg.at("th.serve.submitted").count,
            static_cast<std::int64_t>(st.submitted));
  EXPECT_EQ(reg.at("th.serve.completed").count,
            static_cast<std::int64_t>(st.completed));
  EXPECT_EQ(reg.at("th.serve.shed").count,
            static_cast<std::int64_t>(st.shed));
  EXPECT_EQ(reg.at("th.serve.cache.hits").count,
            static_cast<std::int64_t>(st.cache_hits));
  EXPECT_EQ(reg.at("th.serve.cache.misses").count,
            static_cast<std::int64_t>(st.cache_misses));
  EXPECT_EQ(reg.at("th.serve.rejected.queue_full").count,
            static_cast<std::int64_t>(st.rejected_queue_full));
  EXPECT_DOUBLE_EQ(reg.at("th.serve.queue.depth").value, 0.0);
  EXPECT_DOUBLE_EQ(reg.at("th.serve.cache.hit_rate").value,
                   st.cache_hit_rate());

  // Cache hits are verifiable by span *absence*: "serve symbolic" appears
  // exactly once per miss, never on a hit.
  std::int64_t symbolic_spans = 0, hit_instants = 0;
  for (const obs::Event& e : obs::Recorder::global().events()) {
    if (std::string(e.name) == "serve symbolic") ++symbolic_spans;
    if (std::string(e.name) == "serve cache hit") ++hit_instants;
  }
  EXPECT_EQ(symbolic_spans, static_cast<std::int64_t>(st.cache_misses));
  EXPECT_EQ(hit_instants, static_cast<std::int64_t>(st.cache_hits));
  EXPECT_GT(st.cache_hits, 0);  // the Zipf trace must actually reuse
}

// ---- determinism ----------------------------------------------------------

TEST(SolverService, ReplayIsBitReproducible) {
  serve::TraceOptions topt;
  topt.seed = 11;
  topt.n_patterns = 3;
  topt.base_n = 10;
  topt.n_tenants = 2;
  topt.n_requests = 25;
  topt.mean_service_s = 1e-4;
  topt.load = 1.5;
  topt.p_abandon = 0.15;
  topt.p_deadline = 0.25;
  const serve::ServeTrace trace = serve::synth_trace(topt);

  auto run = [&] {
    SolverService svc(small_service());
    return serve::replay(svc, trace);
  };
  const serve::ReplayReport a = run();
  const serve::ReplayReport b = run();

  EXPECT_EQ(a.makespan_s, b.makespan_s);  // bitwise, not approximately
  EXPECT_EQ(a.rejected_events, b.rejected_events);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].id, b.completions[i].id);
    EXPECT_EQ(a.completions[i].status, b.completions[i].status);
    EXPECT_EQ(a.completions[i].finish_s, b.completions[i].finish_s);
    EXPECT_EQ(a.completions[i].residual, b.completions[i].residual);
  }
}

// ---- options validation ---------------------------------------------------

TEST(ServeOptions, ValidateRejectsNonsense) {
  ServeOptions o;
  o.validate();  // defaults are sane
  {
    ServeOptions bad = o;
    bad.exec_workers = 0;
    EXPECT_THROW(bad.validate(), Error);
  }
  {
    ServeOptions bad = o;
    bad.max_queued_global = 0;
    EXPECT_THROW(bad.validate(), Error);
  }
  {
    ServeOptions bad = o;
    bad.degrade_queue_fraction = 0;
    EXPECT_THROW(bad.validate(), Error);
  }
  {
    ServeOptions bad = o;
    CancelToken t;
    bad.sched.cancel = &t;  // the service arms its own tokens
    EXPECT_THROW(bad.validate(), Error);
  }
}

// ---- chaos ----------------------------------------------------------------

TEST(ServeChaos, MisbehaviorScenariosHoldTheInvariants) {
  serve::ServeChaosOptions opt;
  opt.seed = 3;
  opt.scenarios = 3;
  opt.trace.n_patterns = 4;
  opt.trace.base_n = 10;
  opt.trace.n_tenants = 3;
  opt.trace.n_requests = 40;
  opt.trace.mean_service_s = 1e-4;
  opt.trace.load = 1.5;
  opt.serve = ServeOptions{};
  opt.serve.sched.n_ranks = 1;
  opt.serve.exec_workers = 1;
  opt.serve.max_queued_global = 8;
  opt.serve.max_queued_per_tenant = 4;
  const serve::ServeChaosReport report = serve::run_serve_chaos(opt);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.scenarios_run, 3);
}

TEST(ServeChaos, ShrinkDropsIrrelevantMisbehaviors) {
  using serve::Misbehavior;
  using serve::MisbehaviorKind;
  std::vector<Misbehavior> m(4);
  m[0].kind = MisbehaviorKind::kFlood;
  m[1].kind = MisbehaviorKind::kAbandon;
  m[2].kind = MisbehaviorKind::kPoison;  // the "culprit"
  m[3].kind = MisbehaviorKind::kMemRamp;
  const std::vector<Misbehavior> shrunk = serve::shrink_misbehaviors(
      m, [](const std::vector<Misbehavior>& c) {
        for (const Misbehavior& x : c) {
          if (x.kind == MisbehaviorKind::kPoison) return true;
        }
        return false;
      });
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0].kind, MisbehaviorKind::kPoison);
  // The repro line round-trips the scenario seed and the culprit.
  const std::string spec = serve::misbehavior_spec(42, shrunk);
  EXPECT_NE(spec.find("seed=42"), std::string::npos);
  EXPECT_NE(spec.find("poison="), std::string::npos);
}

}  // namespace
}  // namespace th
