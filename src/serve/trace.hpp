// Synthetic serving workloads and their replay driver.
//
// The overload bench (bench/ext_serve_overload) and the serve chaos
// harness both need the same workload shape: a population of tenants
// streaming factor/refactor/solve requests against a pattern registry
// whose popularity follows a Zipf law (a few hot patterns dominate — the
// regime where the symbolic cache pays) with open-loop Poisson-like
// arrivals calibrated against the server's capacity (0.5x keeps queues
// short, 2x forces the whole degradation ladder).
//
// Traces are deterministic functions of TraceOptions (seed included), so a
// failing replay reproduces from its option set alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve.hpp"

namespace th::serve {

struct TraceOptions {
  std::uint64_t seed = 1;
  /// Distinct sparsity patterns; pattern k is a (base_n + k)^2 grid
  /// Laplacian, so matrices stay small enough for test/bench budgets.
  int n_patterns = 12;
  index_t base_n = 13;
  int n_tenants = 4;
  /// Total requests (session opens ride on the first request per
  /// (tenant, pattern) pair, which is always a factorization).
  int n_requests = 200;
  /// Zipf popularity exponent over patterns (weight ~ 1/(k+1)^alpha).
  double zipf_alpha = 1.1;
  /// Open-loop arrival rate as a multiple of server capacity; the mean
  /// inter-arrival gap is mean_service_s / load.
  double load = 1.0;
  /// Mean service time used to calibrate arrivals and deadlines; 0 falls
  /// back to 1.0 s. Callers measure it with estimate_mean_service_s().
  real_t mean_service_s = 0;
  double p_refactor = 0.15;  // non-first requests that refactor
  double p_abandon = 0;      // requests carrying an abandon time
  double p_deadline = 0;     // requests carrying a deadline
  /// Deadline slack: deadline = arrival + slack * mean_service * U[0.5,1.5).
  double deadline_slack = 8.0;
};

struct TraceEvent {
  real_t arrival_s = 0;
  int tenant = 0;
  int pattern = 0;
  RequestKind kind = RequestKind::kSolve;
  Priority priority = Priority::kNormal;
  real_t deadline_s = CancelToken::kNoDeadline;   // absolute virtual time
  real_t abandon_at_s = CancelToken::kNoDeadline; // absolute virtual time
  std::uint64_t value_seed = 1;
};

struct ServeTrace {
  TraceOptions opt;
  std::vector<TraceEvent> events;  // sorted by arrival_s
};

/// The deterministic matrix for a trace pattern index.
Csr trace_pattern_matrix(const TraceOptions& opt, int pattern);

std::string trace_tenant_name(int tenant);

/// Expand options into a concrete event list (sorted by arrival).
ServeTrace synth_trace(const TraceOptions& opt);

/// The mean service time a saturated service delivers per request — the
/// capacity estimate open-loop arrival rates calibrate against. Prices the
/// Zipf-weighted request mix at width 1 (one timing-only simulate per
/// pattern), then replays the trace at twice that rate through a service
/// with `sopt`'s queue caps, so solve coalescing counts: busy virtual
/// seconds per completed request.
real_t estimate_mean_service_s(const ServeOptions& sopt,
                               const TraceOptions& topt);

struct LatencySummary {
  std::size_t count = 0;
  real_t p50 = 0;
  real_t p90 = 0;
  real_t p99 = 0;
  real_t max = 0;
  real_t mean = 0;
};

/// Order-statistics summary (index percentiles on the sorted sample).
LatencySummary latency_summary(std::vector<real_t> samples);

struct ReplayReport {
  std::vector<Completion> completions;  // every admitted request's outcome
  ServeStats stats;                     // service counters at end of replay
  /// Events refused at admission (submit/open threw RejectedError),
  /// parallel arrays of event index and typed reason.
  std::vector<std::size_t> rejected_events;
  std::vector<RejectReason> rejected_reasons;
  real_t makespan_s = 0;       // final virtual clock
  LatencySummary done_latency; // Status::kDone requests only
  /// Completed requests per virtual second.
  double goodput_rps = 0;
};

/// Feed a trace through a service: advance to each arrival, open sessions
/// lazily (first contact per (tenant, pattern)), submit, then drain.
/// Admission rejections are recorded, never fatal.
ReplayReport replay(SolverService& svc, const ServeTrace& trace);

}  // namespace th::serve
