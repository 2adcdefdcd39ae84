// Tenant-misbehavior chaos for the serving layer.
//
// The resilience chaos soak (resilience/chaos.hpp) hammers the *scheduler*
// with hardware-shaped faults; this harness hammers the *service* with
// client-shaped ones: request floods, abandoned handles, poison patterns
// that fail symbolic analysis, and memory budgets ramped down mid-session.
// A scenario seed deterministically expands into a workload trace plus a
// misbehavior list; the service must absorb all of it with typed
// rejections and completions only — any escaped exception, unaccounted
// request, or wrong solve result is a finding. Failing scenarios are
// shrunk greedily to a minimal misbehavior list and reported with a
// ready-to-paste spec string.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/trace.hpp"

namespace th::serve {

enum class MisbehaviorKind : char {
  kFlood,       // one tenant submits a burst far past its queue bound
  kAbandon,     // a handle is cancelled while its request is queued
  kPoison,      // a session open with a structurally invalid matrix
  kMemRamp,     // the memory budget is ramped down mid-session
  kSolveFlood,  // a factored session floods kSolve requests — the batching
                // engine must coalesce them without dropping accounting
  kMidBatchCancel,  // a queued solve handle is cancelled so the rhs engine
                    // sheds it at the batch boundary
};

const char* misbehavior_kind_name(MisbehaviorKind k);

struct Misbehavior {
  MisbehaviorKind kind = MisbehaviorKind::kFlood;
  real_t at_s = 0;     // virtual injection time
  int tenant = 0;      // kFlood / kPoison / kSolveFlood
  int count = 0;       // kFlood / kSolveFlood: burst size
  double factor = 1;   // kMemRamp: budget multiplier (< 1 shrinks)
};

struct ServeChaosOptions {
  std::uint64_t seed = 1;
  int scenarios = 10;
  /// Base service configuration; scenarios run copies of it. A non-zero
  /// mem budget makes kMemRamp meaningful (ramps multiply it).
  ServeOptions serve;
  /// Base workload shape; each scenario reseeds it. A zero
  /// mean_service_s is measured with estimate_mean_service_s(serve, trace).
  TraceOptions trace;
  bool shrink = true;
};

struct ServeChaosFailure {
  std::uint64_t scenario_seed = 0;
  /// The failing misbehavior list, shrunk to 1-minimal when shrinking is
  /// on (the workload trace itself is pinned by the scenario seed).
  std::vector<Misbehavior> misbehaviors;
  std::string what;
  std::string repro;  // misbehavior_spec() of the shrunk list
};

struct ServeChaosReport {
  int scenarios_run = 0;
  int passed = 0;
  std::vector<ServeChaosFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// Deterministically expand a seed into a misbehavior campaign across the
/// trace's virtual horizon.
std::vector<Misbehavior> random_misbehaviors(std::uint64_t seed,
                                             const TraceOptions& topt,
                                             real_t horizon_s);

/// Render a campaign as the repro line attached to failures.
std::string misbehavior_spec(std::uint64_t scenario_seed,
                             const std::vector<Misbehavior>& m);

/// Greedy 1-minimal shrink: drop any single misbehavior whose removal
/// keeps `still_fails` true. `budget` caps still_fails invocations.
std::vector<Misbehavior> shrink_misbehaviors(
    std::vector<Misbehavior> m,
    const std::function<bool(const std::vector<Misbehavior>&)>& still_fails,
    int budget = 100);

/// Run one scenario: replay the trace with the misbehaviors injected and
/// check the service's accounting, correctness, per-session causality and
/// solve-deadline invariants. Returns an empty string on success, the
/// finding otherwise.
std::string run_serve_scenario(const ServeOptions& sopt,
                               const ServeTrace& trace,
                               const std::vector<Misbehavior>& misbehaviors);

ServeChaosReport run_serve_chaos(const ServeChaosOptions& opt);

}  // namespace th::serve
