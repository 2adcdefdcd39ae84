// Extension: overload-robust serving gate (DESIGN.md §14).
//
// Replays the same Zipf-popularity multi-tenant workload through the
// src/serve session layer at 0.5x, 1x and 2x of measured capacity
// (open-loop arrivals: the 2x run is a genuine overload — clients do not
// slow down when the server saturates). The service must degrade
// *gracefully*, and the gates hold the line on what that means:
//
//   (a) zero incorrect results under shedding — every completed solve's
//       scaled residual stays tiny at every load, and a served
//       factorization is bitwise identical to a standalone run of the
//       same configuration;
//   (b) bounded latency — admission control and shedding cap the queue, so
//       done-request latency stays within the structural bound implied by
//       the queue depth even at 2x overload (no collapse);
//   (c) useful goodput under overload — the 2x run's completed-requests-
//       per-virtual-second is at least 70% of the 1x run's;
//   (d) the symbolic cache actually pays — >= 80% of session opens reuse a
//       cached analysis, verified *independently* of ServeStats by the
//       absence of "serve symbolic" spans in the recorder;
//   (e) the th.serve.* registry mirror reconciles with ServeStats exactly.
//
// Any violated gate exits 1, so CI can hold the line.
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "kernels/tile.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "rhs/solve_dag.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"

using namespace th;
using namespace th::bench;

namespace {

int g_failures = 0;

void gate(bool ok, const char* what) {
  std::printf("  gate: %-58s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++g_failures;
}

struct LoadPoint {
  double load = 0;
  serve::ReplayReport rep;
};

}  // namespace

int main() {
  banner("serve overload extension",
         "Zipf multi-tenant replay at 0.5x/1x/2x capacity: graceful "
         "degradation, bounded latency, correct results under shedding.");

  // Enable the obs layer for the whole experiment so the recorder holds
  // every replay's spans and the registry accumulates every publish.
  const obs::Session obs_session(true);

  serve::ServeOptions sopt;
  sopt.sched.n_ranks = 1;
  sopt.exec_workers = 1;  // one lane keeps factor bits run-order independent
  // Fast mode's shorter trace needs a tighter queue to drive the 2x run
  // into shedding; the latency-bound gate scales with the bound either way.
  sopt.max_queued_global = fast_mode() ? 10 : 24;
  sopt.max_queued_per_tenant = fast_mode() ? 4 : 8;
  sopt.validate();

  serve::TraceOptions topt;
  topt.seed = 20260808;
  topt.n_patterns = 6;
  topt.base_n = 12;
  topt.n_tenants = 8;
  topt.n_requests = fast_mode() ? 150 : 400;
  topt.zipf_alpha = 1.5;
  topt.p_refactor = 0.1;
  topt.p_abandon = 0.05;
  topt.p_deadline = 0.2;

  // Calibrate open-loop arrivals against measured capacity, and derive the
  // structural latency bound from the *slowest* pattern: a deadline-free
  // request can wait at most a full queue of worst-case services.
  topt.mean_service_s = serve::estimate_mean_service_s(sopt, topt);
  real_t max_service_s = 0;
  {
    const obs::ScopedDisable no_obs;  // calibration, not a run
    for (int k = 0; k < topt.n_patterns; ++k) {
      const Csr a = serve::trace_pattern_matrix(topt, k);
      InstanceOptions io;
      io.core = SolverCore::kPlu;
      io.grid = make_process_grid(sopt.sched.n_ranks);
      const SolverInstance inst(a, io);
      // Price dispatches the way the service charges them: factors by
      // their schedule replay, solves by the pattern's price table. The
      // worst single dispatch is a block solve at the full width cap (the
      // dispatcher may fuse that many queued solves into one), so the
      // structural latency bound prices that, not a width-1 solve.
      rhs::SolvePrices prices(inst.plu_factorization()->shared_pattern(),
                              sopt.sched, io.grid);
      max_service_s = std::max(
          {max_service_s, inst.run_timing(sopt.sched).makespan_s,
           prices.price(sopt.rhs.max_width, sopt.rhs.schedule)
               .makespan_s()});
    }
  }
  std::printf("capacity: mean service %.3f ms, slowest pattern %.3f ms, "
              "%d requests, %d tenants, %d patterns (zipf %.2f)\n\n",
              topt.mean_service_s * 1e3, max_service_s * 1e3,
              topt.n_requests, topt.n_tenants, topt.n_patterns,
              topt.zipf_alpha);
  gate(topt.mean_service_s > 0, "capacity estimate is positive");

  // ---- the three load points ----------------------------------------------
  std::vector<LoadPoint> points;
  serve::ServeStats total;  // summed across services, vs the registry
  for (const double load : {0.5, 1.0, 2.0}) {
    serve::TraceOptions t = topt;
    t.load = load;
    const serve::ServeTrace trace = serve::synth_trace(t);
    serve::SolverService svc(sopt);
    LoadPoint pt;
    pt.load = load;
    pt.rep = serve::replay(svc, trace);
    pt.rep.stats.publish_metrics();
    // Solve-price reuse (stdout only; the CSV keeps its columns).
    const rhs::RhsStats rs = svc.rhs_stats();
    std::printf("load %.1fx: solve prices %lld built, %lld reused\n", load,
                static_cast<long long>(rs.dag_builds),
                static_cast<long long>(rs.dag_reuses));

    const serve::ServeStats& st = pt.rep.stats;
    total.sessions_opened += st.sessions_opened;
    total.cache_hits += st.cache_hits;
    total.cache_misses += st.cache_misses;
    total.submitted += st.submitted;
    total.completed += st.completed;
    total.shed += st.shed;
    total.cancelled += st.cancelled;
    total.deadline_misses += st.deadline_misses;
    total.failed += st.failed;
    total.failed_no_factors += st.failed_no_factors;
    total.failed_error += st.failed_error;
    total.rejected_queue_full += st.rejected_queue_full;
    total.rejected_deadline += st.rejected_deadline;
    total.rejected_mem += st.rejected_mem;
    points.push_back(std::move(pt));
  }

  Table t("Serve overload: open-loop replay at 0.5x/1x/2x capacity");
  t.set_header({"Load", "Admitted", "Done", "Shed", "Rejected", "Hit %",
                "p50 (ms)", "p99 (ms)", "Goodput (r/s)"});
  for (const LoadPoint& pt : points) {
    const serve::ServeStats& st = pt.rep.stats;
    t.add_row({fmt_fixed(pt.load, 1),
               fmt_count(static_cast<long long>(st.submitted)),
               fmt_count(static_cast<long long>(st.completed)),
               fmt_count(static_cast<long long>(st.shed)),
               fmt_count(static_cast<long long>(pt.rep.rejected_events.size())),
               fmt_fixed(st.cache_hit_rate() * 100.0, 1),
               fmt_fixed(pt.rep.done_latency.p50 * 1e3, 3),
               fmt_fixed(pt.rep.done_latency.p99 * 1e3, 3),
               fmt_fixed(pt.rep.goodput_rps, 1)});
  }
  emit(t, "ext_serve_overload");

  // ---- gate (a): zero incorrect results under shedding --------------------
  offset_t solves_checked = 0;
  bool residuals_ok = true;
  for (const LoadPoint& pt : points) {
    for (const serve::Completion& c : pt.rep.completions) {
      if (c.ok() && c.kind == serve::RequestKind::kSolve) {
        ++solves_checked;
        if (!(c.residual >= 0 && c.residual < 1e-8)) residuals_ok = false;
      }
    }
  }
  std::printf("\ncorrectness: %lld completed solve(s) residual-checked\n",
              static_cast<long long>(solves_checked));
  gate(solves_checked > 0 && residuals_ok,
       "every completed solve has scaled residual < 1e-8");
  gate(points.back().rep.stats.shed > 0,
       "the 2x run actually exercised shedding");

  // Served factors are bitwise identical to a standalone run of the same
  // configuration (same schedule options, fresh private pool).
  {
    // Off the obs layer: this is a correctness probe, not part of the
    // replayed experiment (its symbolic span would skew gate (d)).
    const obs::ScopedDisable no_obs;
    serve::SolverService svc(sopt);
    const Csr a = serve::trace_pattern_matrix(topt, 0);
    const serve::SessionId sid = svc.open_session("bitcheck", a);
    serve::Request f;
    f.kind = serve::RequestKind::kFactor;
    svc.submit(sid, f);
    const std::vector<serve::Completion> done = svc.drain();
    const SolverInstance* served = svc.session_instance(sid);

    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.grid = make_process_grid(sopt.sched.n_ranks);
    SolverInstance standalone(a, io);
    ScheduleOptions so = sopt.sched;
    standalone.run_numeric(so);

    gate(done.size() == 1 && done[0].ok() && served != nullptr &&
             tiles_identical(served->plu_factorization()->tiles(),
                             standalone.plu_factorization()->tiles()),
         "served factors bitwise match a standalone run");
  }

  // ---- gate (b): bounded latency ------------------------------------------
  // A deadline-free done request waits at most a full global queue of
  // worst-case services plus its own; generous headroom (x2) keeps the
  // gate insensitive to estimate jitter while still catching collapse.
  const real_t latency_bound =
      2.0 * static_cast<real_t>(sopt.max_queued_global + 1) * max_service_s;
  gate(points[0].rep.done_latency.p50 <= 4.0 * max_service_s,
       "p50 at 0.5x load stays within 4 slowest services");
  gate(points[1].rep.done_latency.p99 <= latency_bound,
       "p99 at 1x load within the structural queue bound");
  gate(points[2].rep.done_latency.p99 <= latency_bound,
       "p99 at 2x overload within the structural queue bound");

  // ---- gate (c): goodput holds up under overload --------------------------
  const double goodput_1x = points[1].rep.goodput_rps;
  const double goodput_2x = points[2].rep.goodput_rps;
  std::printf("goodput: 1x %.1f r/s, 2x %.1f r/s (%.0f%%)\n", goodput_1x,
              goodput_2x,
              goodput_1x > 0 ? goodput_2x / goodput_1x * 100.0 : 0.0);
  gate(goodput_1x > 0 && goodput_2x >= 0.7 * goodput_1x,
       "goodput at 2x overload >= 70% of 1x");

  // ---- gate (d): the symbolic cache pays, span-absence verified -----------
  offset_t symbolic_spans = 0;
  for (const obs::Event& e : obs::Recorder::global().events()) {
    if (std::string(e.name) == "serve symbolic") ++symbolic_spans;
  }
  const double hit_rate =
      total.cache_hits + total.cache_misses > 0
          ? static_cast<double>(total.cache_hits) /
                static_cast<double>(total.cache_hits + total.cache_misses)
          : 0.0;
  std::printf("symbolic cache: %lld hit(s), %lld miss(es) (%.0f%%), %lld "
              "symbolic span(s) recorded\n",
              static_cast<long long>(total.cache_hits),
              static_cast<long long>(total.cache_misses), hit_rate * 100.0,
              static_cast<long long>(symbolic_spans));
  gate(hit_rate >= 0.8, "symbolic cache hit rate >= 80% of session opens");
  gate(symbolic_spans == static_cast<offset_t>(total.cache_misses),
       "one 'serve symbolic' span per miss, none on hits");

  // ---- gate (e): th.serve.* registry reconciles with ServeStats -----------
  auto& reg = obs::Registry::global();
  const bool reconciled =
      reg.counter("th.serve.submitted").value() ==
          static_cast<std::int64_t>(total.submitted) &&
      reg.counter("th.serve.completed").value() ==
          static_cast<std::int64_t>(total.completed) &&
      reg.counter("th.serve.shed").value() ==
          static_cast<std::int64_t>(total.shed) &&
      reg.counter("th.serve.cancelled").value() ==
          static_cast<std::int64_t>(total.cancelled) &&
      reg.counter("th.serve.deadline_misses").value() ==
          static_cast<std::int64_t>(total.deadline_misses) &&
      reg.counter("th.serve.failed").value() ==
          static_cast<std::int64_t>(total.failed) &&
      reg.counter("th.serve.failed.no_factors").value() ==
          static_cast<std::int64_t>(total.failed_no_factors) &&
      reg.counter("th.serve.failed.error").value() ==
          static_cast<std::int64_t>(total.failed_error) &&
      reg.counter("th.serve.cache.hits").value() ==
          static_cast<std::int64_t>(total.cache_hits) &&
      reg.counter("th.serve.cache.misses").value() ==
          static_cast<std::int64_t>(total.cache_misses) &&
      reg.counter("th.serve.rejected.queue_full").value() ==
          static_cast<std::int64_t>(total.rejected_queue_full) &&
      reg.counter("th.serve.rejected.deadline").value() ==
          static_cast<std::int64_t>(total.rejected_deadline) &&
      reg.counter("th.serve.rejected.mem").value() ==
          static_cast<std::int64_t>(total.rejected_mem);
  gate(reconciled, "obs th.serve.* counters reconcile with ServeStats");

  // Every admitted request across every load ended in exactly one status.
  gate(total.submitted == total.completed + total.shed + total.cancelled +
                              total.deadline_misses + total.failed,
       "terminal statuses partition the admitted requests");

  if (g_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
