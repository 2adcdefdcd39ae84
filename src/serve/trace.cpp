#include "serve/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "gen/generators.hpp"
#include "obs/obs.hpp"
#include "rhs/solve_dag.hpp"
#include "solvers/block_cyclic.hpp"
#include "support/rng.hpp"

namespace th::serve {

namespace {

std::vector<double> zipf_weights(int n, double alpha) {
  std::vector<double> w(static_cast<std::size_t>(n));
  double sum = 0;
  for (int k = 0; k < n; ++k) {
    w[static_cast<std::size_t>(k)] = 1.0 / std::pow(k + 1.0, alpha);
    sum += w[static_cast<std::size_t>(k)];
  }
  for (double& x : w) x /= sum;
  return w;
}

int sample_cdf(const std::vector<double>& weights, double u) {
  double acc = 0;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    acc += weights[k];
    if (u < acc) return static_cast<int>(k);
  }
  return static_cast<int>(weights.size()) - 1;
}

}  // namespace

Csr trace_pattern_matrix(const TraceOptions& opt, int pattern) {
  TH_CHECK_MSG(pattern >= 0 && pattern < opt.n_patterns,
               "trace pattern " << pattern << " out of range [0, "
                                << opt.n_patterns << ")");
  const index_t side = opt.base_n + static_cast<index_t>(pattern);
  // Values from a pattern-specific seed; refactors reseed them later, the
  // *structure* (the cache key) depends only on the side length.
  return finalize_system(grid2d_laplacian(side, side),
                         opt.seed ^ (0x9e3779b97f4a7c15ULL *
                                     static_cast<std::uint64_t>(pattern + 1)));
}

std::string trace_tenant_name(int tenant) {
  return "tenant-" + std::to_string(tenant);
}

ServeTrace synth_trace(const TraceOptions& opt) {
  TH_CHECK_MSG(opt.n_patterns >= 1 && opt.n_tenants >= 1 &&
                   opt.n_requests >= 1,
               "trace needs >= 1 pattern, tenant and request");
  TH_CHECK_MSG(opt.load > 0, "trace load must be > 0, got " << opt.load);

  const real_t mean_service =
      opt.mean_service_s > 0 ? opt.mean_service_s : 1.0;
  const real_t mean_gap = mean_service / opt.load;
  const std::vector<double> weights =
      zipf_weights(opt.n_patterns, opt.zipf_alpha);

  Rng rng(opt.seed ^ 0x5851f42d4c957f2dULL);
  ServeTrace trace;
  trace.opt = opt;
  trace.events.reserve(static_cast<std::size_t>(opt.n_requests));

  // First contact per (tenant, pattern) must factor before it can solve.
  std::map<std::pair<int, int>, bool> seen;
  real_t t = 0;
  for (int i = 0; i < opt.n_requests; ++i) {
    // Exponential inter-arrival gaps (open loop: arrivals ignore the
    // server's state entirely — that is what makes 2x load an overload).
    t += -mean_gap * std::log(1.0 - rng.next_real());

    TraceEvent e;
    e.arrival_s = t;
    e.tenant = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(opt.n_tenants)));
    e.pattern = sample_cdf(weights, rng.next_real());
    e.value_seed = opt.seed + 0x100000001b3ULL * static_cast<std::uint64_t>(i);

    bool& factored = seen[{e.tenant, e.pattern}];
    if (!factored) {
      e.kind = RequestKind::kFactor;
      factored = true;
    } else {
      e.kind = rng.next_real() < opt.p_refactor ? RequestKind::kRefactor
                                                : RequestKind::kSolve;
    }

    const double pr = rng.next_real();
    e.priority = pr < 0.2   ? Priority::kBatch
                 : pr < 0.8 ? Priority::kNormal
                            : Priority::kInteractive;

    if (rng.next_real() < opt.p_deadline) {
      e.deadline_s = e.arrival_s + opt.deadline_slack * mean_service *
                                       (0.5 + rng.next_real());
    }
    if (rng.next_real() < opt.p_abandon) {
      e.abandon_at_s = e.arrival_s + 3.0 * mean_service * rng.next_real();
    }
    trace.events.push_back(std::move(e));
  }
  return trace;
}

real_t estimate_mean_service_s(const ServeOptions& sopt,
                               const TraceOptions& topt) {
  const std::vector<double> weights =
      zipf_weights(topt.n_patterns, topt.zipf_alpha);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.grid = make_process_grid(sopt.sched.n_ranks);
  real_t priced = 0;
  for (int k = 0; k < topt.n_patterns; ++k) {
    const Csr a = trace_pattern_matrix(topt, k);
    const SolverInstance inst(a, io);
    // Price the pattern the way admission charges it, weighted by the
    // workload mix: refactors replay the factorization, everything else
    // is a width-1 triangular solve. (First-contact factors are a
    // vanishing share of a long trace and are folded into the refactor
    // weight.)
    const real_t factor_s = inst.run_timing(sopt.sched).makespan_s;
    const real_t solve_s =
        rhs::SolvePrices(inst.plu_factorization()->shared_pattern(),
                         sopt.sched, io.grid)
            .price(1, sopt.rhs.schedule)
            .makespan_s();
    priced += weights[static_cast<std::size_t>(k)] *
              (topt.p_refactor * factor_s + (1.0 - topt.p_refactor) * solve_s);
  }

  // The dispatcher fuses each turn's queued solves into one block solve,
  // so a loaded service serves a request in less than its width-1 price.
  // Measure that: replay the trace's request mix at twice the priced rate,
  // which keeps the service busy and the caller's queue caps full, with no
  // deadline or abandon (nothing is shed) and no journal, and charge the
  // busy virtual time to the requests it completed.
  TraceOptions t = topt;
  t.mean_service_s = priced;
  t.load = 2.0;
  t.p_deadline = 0;
  t.p_abandon = 0;
  ServeOptions so = sopt;
  so.durable = DurableOptions{};
  const obs::ScopedDisable no_obs;  // calibration, not a run
  SolverService svc(so);
  const ServeStats st = replay(svc, synth_trace(t)).stats;
  return st.completed > 0 ? st.busy_s / static_cast<real_t>(st.completed)
                          : priced;
}

LatencySummary latency_summary(std::vector<real_t> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1));
    return samples[i];
  };
  s.p50 = at(0.50);
  s.p90 = at(0.90);
  s.p99 = at(0.99);
  s.max = samples.back();
  real_t sum = 0;
  for (const real_t x : samples) sum += x;
  s.mean = sum / static_cast<real_t>(samples.size());
  return s;
}

ReplayReport replay(SolverService& svc, const ServeTrace& trace) {
  ReplayReport rep;
  std::map<std::pair<int, int>, SessionId> sessions;

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& e = trace.events[i];
    svc.advance(std::max(e.arrival_s, svc.now_s()));

    try {
      const auto key = std::make_pair(e.tenant, e.pattern);
      auto sit = sessions.find(key);
      if (sit == sessions.end()) {
        const SessionId sid = svc.open_session(
            trace_tenant_name(e.tenant),
            trace_pattern_matrix(trace.opt, e.pattern));
        sit = sessions.emplace(key, sid).first;
      }
      Request r;
      r.kind = e.kind;
      r.priority = e.priority;
      r.deadline_s = e.deadline_s;
      r.abandon_at_s = e.abandon_at_s;
      r.value_seed = e.value_seed;
      svc.submit(sit->second, r);
    } catch (const RejectedError& err) {
      rep.rejected_events.push_back(i);
      rep.rejected_reasons.push_back(err.reason());
    }
  }

  rep.completions = svc.drain();
  rep.stats = svc.stats();
  rep.makespan_s = svc.now_s();

  std::vector<real_t> done;
  for (const Completion& c : rep.completions) {
    if (c.ok()) done.push_back(c.latency_s());
  }
  rep.done_latency = latency_summary(std::move(done));
  rep.goodput_rps =
      rep.makespan_s > 0
          ? static_cast<double>(rep.stats.completed) / rep.makespan_s
          : 0;
  return rep;
}

}  // namespace th::serve
