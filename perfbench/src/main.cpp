// perfbench — wall-clock benchmark of the solver stack, timed from outside
// through the library's public API (no library code is instrumented).
//
//   perfbench --workload pde2d|fill3d|transient --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//
// --trace 0 runs the workload in a closed loop for S seconds and reports
// the end-to-end metrics (medians, rescaled to reference machine speed; the
// wall medians are printed beside them); --trace 1 runs the per-layer
// probe once in raw wall seconds (spans
// around every public call, kernel counters through a NumericBackend
// decorator) and writes the spans as Chrome-trace JSON to PATH. Every
// answer is checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. A failed check makes the
// exit code 1. README.md lists every metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "order/perm.hpp"
#include "order/reorder.hpp"
#include "probes.hpp"
#include "rhs/solve_dag.hpp"
#include "serve/serve.hpp"
#include "sim/device.hpp"
#include "solvers/driver.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "symbolic/tiles.hpp"

namespace {

using namespace th;
using perfbench::now_s;
using perfbench::Samples;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

constexpr real_t kResidualLimit = 1e-9;
/// transient's circuit pattern is fixed (the registry's c-71); the seed
/// drives the values, so exact counts repeat across seeds.
constexpr std::uint64_t kCircuitPattern = 71;
constexpr int kSolvesPerFactor = 4;  // pde2d/fill3d: single-RHS solves
constexpr int kTenantSolves = 16;    // transient: solves per tenant per step
constexpr int kStepsPerEpisode = 3;  // transient: steps per service episode
constexpr index_t kBlockWidth = 16;
/// Worker threads of the end-to-end loops (and of the serve pool). On a
/// shared 4-vCPU host the hypervisor throttles a process that keeps all
/// vCPUs busy, and 4-thread factor medians then swing up to 3x between
/// runs; single-threaded loops stay steady. The traced probe measures the
/// WorkerPool at probe_workers() threads instead.
constexpr int kLoopWorkers = 1;
/// perfbench::reference_kernel_s() on the reference machine (4-core Xeon
/// VM, idle). End-to-end timings are reported at this speed.
constexpr double kReferenceNominalS = 0.010;

// Metric names in the JSON line, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",   "factor_s",     "time_to_solution_s",
    "rhs_per_s", "peak_rss_mib", "nnz_lu"};
const std::vector<std::string> kPerLayer = {
    "order.wall_s",          "order.fill_ratio",
    "symbolic.wall_s",       "symbolic.tile_s",
    "symbolic.tasks",        "symbolic.dag_levels",
    "sched.loop_s",          "sched.host_s",
    "sched.batches",         "sched.mean_batch",
    "exec.wall_s",           "exec.busy_s",
    "exec.span_s",           "exec.efficiency",
    "exec.det_reductions",   "exec.fallback_tasks",
    "exec.speedup_vs_1t",    "kernel.getrf.calls",
    "kernel.tstrf.calls",    "kernel.geesm.calls",
    "kernel.ssssm.calls",    "kernel.getrf.lane_s",
    "kernel.tstrf.lane_s",   "kernel.geesm.lane_s",
    "kernel.ssssm.lane_s",   "kernel.gflops",
    "mem.rss_setup_mib",     "mem.rss_factor_mib",
    "mem.allocs_factor",     "solve.wall_s",
    "rhs.block_s",           "rhs.width_mean",
    "rhs.dag_builds",        "rhs.dag_reuses",
    "trace.overhead"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pde2d|fill3d|transient --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("--seed wants an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds wants a number > 0");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("--trace wants 0 or 1");
      }
      a.trace = val[0] == '1';
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (a.workload != "pde2d" && a.workload != "fill3d" &&
      a.workload != "transient") {
    usage("--workload must be pde2d, fill3d or transient");
  }
  return a;
}

// ---- reporting -----------------------------------------------------------

class Report {
 public:
  /// `note` says how the value was obtained ("median of 4", "exact", ...).
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
    if (metrics_.count(name) == 0) order_.push_back(name);
    metrics_[name] = {value, unit, note};
  }
  void add_median(const std::string& name, const Samples& s,
                  const std::string& unit) {
    add(name, s.median(), unit, describe(s));
  }
  /// Median of the quietest half (lowest stall ratio) rescaled by `scale`,
  /// the reference-speed correction; the note keeps the wall figures.
  void add_scaled(const std::string& name, const Samples& s,
                  const std::string& unit, double scale) {
    const Samples q = s.quietest_half();
    char buf[96];
    std::snprintf(buf, sizeof buf, "x %.4f, quietest %zu of %zu: wall ", scale,
                  q.count(), s.count());
    add(name, q.median() * scale, unit, buf + describe(q));
  }

  void print_lines() const {
    for (const std::string& name : order_) {
      const Entry& e = metrics_.at(name);
      std::printf("  %-24s %14.6g %-12s %s\n", name.c_str(), e.value,
                  e.unit.c_str(), e.note.c_str());
    }
  }

  void print_json(const std::vector<std::string>& names, bool correct,
                  long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < names.size(); ++i) {
      const Entry& e = metrics_.at(names[i]);
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", names[i].c_str(), e.value, e.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    std::string note;
  };
  static std::string describe(const Samples& s) {
    const auto [lo, hi] = std::minmax_element(s.v.begin(), s.v.end());
    char buf[96];
    std::snprintf(buf, sizeof buf, "median %.6g of %zu, range %.4g..%.4g",
                  s.median(), s.count(), *lo, *hi);
    return buf;
  }

  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
};

/// Machine-speed correction for end-to-end timings: a shared host slows
/// every process by tens of percent for minutes at a time, so each run
/// times a fixed reference kernel between its iterations and rescales its
/// wall medians to the reference machine's speed (nominal / measured).
double reference_scale(const Samples& ref, Report& rep) {
  const Samples q = ref.quietest_half();
  rep.add_median("reference_kernel_s", q, "s");
  const double scale = kReferenceNominalS / q.median();
  rep.add("reference_scale", scale, "x", "nominal / measured reference kernel");
  return scale;
}

/// Every checked operation: attempted, and failed when its check does not
/// hold (residual, completion status, rejection, bitwise contract).
struct Checks {
  long attempted = 0;
  long failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

// ---- inputs --------------------------------------------------------------

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Csr make_matrix(const std::string& workload, std::uint64_t seed) {
  if (workload == "pde2d") return finalize_system(grid2d_laplacian(70, 70), seed);
  if (workload == "fill3d") {
    return finalize_system(grid3d_laplacian(18, 18, 18), seed);
  }
  return finalize_system(circuit_like(4000, 2.6, 5, kCircuitPattern), seed);
}

int probe_workers(const std::string& workload) {
  return workload == "pde2d" ? 1 : 4;
}

/// Right-hand side b = A x_true for a seeded x_true.
std::vector<real_t> make_rhs(const Csr& a, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> x(static_cast<std::size_t>(a.n_rows));
  for (real_t& v : x) v = rng.uniform(-1.0, 1.0);
  return spmv(a, x);
}

/// PLU core (InstanceOptions defaults), TH policy, A100 model, one rank,
/// deterministic accumulation; pipeline, obs, faults, ABFT and memory
/// budget stay at their off defaults.
ScheduleOptions sched_options(int workers) {
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster.gpu = device_a100();
  so.exec.workers = workers;
  so.exec.accum = exec::AccumMode::kDeterministic;
  return so;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.sched = sched_options(1);
  o.exec_workers = kLoopWorkers;
  o.max_queued_global = 64;
  o.max_queued_per_tenant = 32;
  o.rhs.max_width = kBlockWidth;
  o.rhs.det = true;
  return o;
}

bool bitwise_equal(const std::vector<real_t>& x, const std::vector<real_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(real_t)) == 0;
}

void check_solve(Checks& chk, const Csr& a, const std::vector<real_t>& x,
                 const std::vector<real_t>& b, const char* what) {
  const real_t res = scaled_residual(a, x, b);
  chk.expect(res < kResidualLimit,
             std::string(what) + ": scaled residual " + std::to_string(res));
}

// ---- pde2d / fill3d: analyse, factor, solve ------------------------------

void direct_e2e(const Args& args, const Csr& a, Report& rep, Checks& chk) {
  const ScheduleOptions so = sched_options(kLoopWorkers);
  Samples setup, factor, solve, tts;
  offset_t nnz_lu = -1;
  real_t model_s = -1;
  Samples ref;
  const double stop = now_s() + args.seconds;
  for (int it = 0; it == 0 || now_s() < stop; ++it) {
    const perfbench::StallMeter stall;
    const double ref_s = perfbench::reference_kernel_s();
    Stopwatch sw;
    SolverInstance inst(a, InstanceOptions{});
    const double s = sw.seconds();
    sw.reset();
    const ScheduleResult r = inst.run_numeric(so);
    const double f = sw.seconds();
    std::vector<double> solve_times;
    for (int k = 0; k < kSolvesPerFactor; ++k) {
      const std::vector<real_t> b =
          make_rhs(a, mix(args.seed, static_cast<std::uint64_t>(it * 64 + k)));
      sw.reset();
      const std::vector<real_t> x = inst.solve(b);
      const double t = sw.seconds();
      check_solve(chk, a, x, b, "solve");
      solve_times.push_back(t);
    }
    const double st = stall.ratio();
    for (const double t : solve_times) solve.add(t, st);
    ref.add(ref_s, st);
    setup.add(s, st);
    factor.add(f, st);
    tts.add(s + f + solve_times.front(), st);
    if (it == 0) {
      nnz_lu = inst.nnz_lu();
      model_s = r.makespan_s;
    }
    chk.expect(inst.nnz_lu() == nnz_lu && r.makespan_s == model_s,
               "nnz_lu and modelled makespan repeat across iterations");
  }
  const double scale = reference_scale(ref, rep);
  rep.add_scaled("setup_s", setup, "s", scale);
  rep.add_scaled("factor_s", factor, "s", scale);
  rep.add_scaled("solve_s", solve, "s", scale);
  rep.add_scaled("time_to_solution_s", tts, "s", scale);
  // One client solving back to back: throughput is 1 / solve latency.
  rep.add("rhs_per_s", 1 / (solve.quietest_half().median() * scale), "1/s",
          "1 / solve_s");
  rep.add("nnz_lu", static_cast<double>(nnz_lu), "count", "exact");
  rep.add("model_factor_ms", model_s * 1e3, "ms_modelled",
          "exact, simulated A100 numeric makespan");
}

// ---- transient: two tenants, refactor + solve steps through serve --------

struct Episode {
  serve::SessionId sid[2] = {-1, -1};
  double open_miss_s = 0;
  double open_hit_s = 0;
  double factor_phase_s = 0;
  std::vector<double> refactor_s;  // per step, both tenants
  std::vector<double> solve_s;     // per step, both tenants' solves
  std::vector<std::uint64_t> refactor_seeds;  // [step * 2 + tenant]
  double open_stall = 0;           // StallMeter ratio over the opens
  std::vector<double> step_stall;  // per step
  std::vector<double> ref_s;       // reference kernel, per step
};

/// Submit, counting a RejectedError as a failed operation.
bool submit(serve::SolverService& svc, serve::SessionId sid,
            const serve::Request& req, Checks& chk) {
  try {
    svc.submit(sid, req);
    return true;
  } catch (const serve::RejectedError& e) {
    chk.expect(false, std::string("submit rejected: ") + e.what());
    return false;
  }
}

/// Drain and check that every admitted request completed kDone (solves
/// with a scaled residual under the limit).
void drain_checked(serve::SolverService& svc, std::size_t admitted,
                   Checks& chk, const char* phase) {
  const std::vector<serve::Completion> cs = svc.drain();
  for (const serve::Completion& c : cs) {
    const bool solve_ok = c.kind != serve::RequestKind::kSolve ||
                          (c.residual >= 0 && c.residual < kResidualLimit);
    const bool ok = c.ok() && solve_ok;
    chk.expect(ok, std::string(phase) + ": request " + std::to_string(c.id) +
                       " ended " + serve::completion_status_name(c.status) +
                       " residual " + std::to_string(c.residual) + " " +
                       c.detail);
  }
  if (cs.size() != admitted) {
    chk.expect(false, std::string(phase) + ": " + std::to_string(cs.size()) +
                          " completions for " + std::to_string(admitted) +
                          " admitted requests");
  }
}

/// One service episode; with `reference` set, every step also times the
/// reference kernel.
Episode run_episode(serve::SolverService& svc, const Csr& a,
                    std::uint64_t seed, int episode, Checks& chk,
                    SpanLog& spans, bool reference = false) {
  Episode ep;
  const perfbench::StallMeter open_stall;
  const std::string tenant[2] = {"tenant-a", "tenant-b"};
  {
    ScopedSpan sp(spans, "serve.open_miss");
    Stopwatch sw;
    ep.sid[0] = svc.open_session(tenant[0], a);
    ep.open_miss_s = sw.seconds();
  }
  {
    ScopedSpan sp(spans, "serve.open_hit");
    Stopwatch sw;
    ep.sid[1] = svc.open_session(tenant[1], a);
    ep.open_hit_s = sw.seconds();
  }
  ep.open_stall = open_stall.ratio();
  {
    ScopedSpan sp(spans, "serve.factor_phase");
    Stopwatch sw;
    std::size_t admitted = 0;
    serve::Request req;
    req.kind = serve::RequestKind::kFactor;
    for (const serve::SessionId sid : ep.sid) admitted += submit(svc, sid, req, chk);
    drain_checked(svc, admitted, chk, "factor");
    ep.factor_phase_s = sw.seconds();
  }
  for (int step = 0; step < kStepsPerEpisode; ++step) {
    const perfbench::StallMeter stall;
    if (reference) ep.ref_s.push_back(perfbench::reference_kernel_s());
    const std::uint64_t base =
        mix(seed, static_cast<std::uint64_t>(episode * 1000 + step * 100));
    {
      ScopedSpan sp(spans, "serve.refactor_phase");
      Stopwatch sw;
      std::size_t admitted = 0;
      for (int t = 0; t < 2; ++t) {
        serve::Request req;
        req.kind = serve::RequestKind::kRefactor;
        req.value_seed = mix(base, static_cast<std::uint64_t>(t));
        ep.refactor_seeds.push_back(req.value_seed);
        admitted += submit(svc, ep.sid[t], req, chk);
      }
      drain_checked(svc, admitted, chk, "refactor");
      ep.refactor_s.push_back(sw.seconds());
    }
    {
      ScopedSpan sp(spans, "serve.solve_phase");
      Stopwatch sw;
      std::size_t admitted = 0;
      for (int t = 0; t < 2; ++t) {
        for (int i = 0; i < kTenantSolves; ++i) {
          serve::Request req;
          req.kind = serve::RequestKind::kSolve;
          req.value_seed = mix(base, static_cast<std::uint64_t>(2 + t * 64 + i));
          admitted += submit(svc, ep.sid[t], req, chk);
        }
      }
      drain_checked(svc, admitted, chk, "solve");
      ep.solve_s.push_back(sw.seconds());
    }
    ep.step_stall.push_back(stall.ratio());
  }
  return ep;
}

void transient_e2e(const Args& args, const Csr& a, Report& rep, Checks& chk) {
  SpanLog no_spans(false, "");
  Samples setup, refactor, solve, step, factor_phase, rate, ref;
  const double stop = now_s() + args.seconds;
  for (int e = 0; e == 0 || now_s() < stop; ++e) {
    serve::SolverService svc(serve_options());
    const Episode ep = run_episode(svc, a, args.seed, e, chk, no_spans, true);
    setup.add(ep.open_miss_s, ep.open_stall);
    factor_phase.add(ep.factor_phase_s, ep.open_stall);
    for (std::size_t i = 0; i < ep.refactor_s.size(); ++i) {
      const double st = ep.step_stall[i];
      ref.add(ep.ref_s[i], st);
      refactor.add(ep.refactor_s[i], st);
      solve.add(ep.solve_s[i], st);
      step.add(ep.refactor_s[i] + ep.solve_s[i], st);
      rate.add(2 * kTenantSolves / ep.solve_s[i], st);
    }
  }
  const double scale = reference_scale(ref, rep);
  rep.add_scaled("setup_s", setup, "s", scale);
  rep.add_scaled("factor_s", refactor, "s", scale);
  rep.add_scaled("solve_s", solve, "s", scale);
  rep.add_scaled("time_to_solution_s", step, "s", scale);
  rep.add_scaled("rhs_per_s", rate, "1/s", 1 / scale);
  // transient's own names for the same quantities.
  rep.add_scaled("refactor_s", refactor, "s", scale);
  rep.add_scaled("step_s", step, "s", scale);
  rep.add_scaled("factor_phase_s", factor_phase, "s", scale);

  // Exact fill of the served pattern (a standalone factorization).
  SolverInstance inst(a, InstanceOptions{});
  const ScheduleResult r = inst.run_numeric(sched_options(kLoopWorkers));
  rep.add("nnz_lu", static_cast<double>(inst.nnz_lu()), "count", "exact");
  rep.add("model_factor_ms", r.makespan_s * 1e3, "ms_modelled",
          "exact, simulated A100 numeric makespan");
}

// ---- traced run: per-layer probe -----------------------------------------

double sum_flops(const ScheduleResult& r) {
  double f = 0;
  for (const RankStats& rs : r.stats().ranks) f += static_cast<double>(rs.flops);
  return f;
}

/// Column-major n x w block of right-hand sides in the permuted ordering;
/// `raw` keeps each column's unpermuted b for the residual check.
std::vector<real_t> make_block(const Csr& a, const Permutation& perm,
                               std::uint64_t seed,
                               std::vector<std::vector<real_t>>& raw) {
  const std::size_t n = static_cast<std::size_t>(a.n_rows);
  std::vector<real_t> block(n * static_cast<std::size_t>(kBlockWidth));
  raw.clear();
  for (index_t j = 0; j < kBlockWidth; ++j) {
    raw.push_back(make_rhs(a, mix(seed, static_cast<std::uint64_t>(j))));
    const std::vector<real_t> pb = apply_permutation(raw.back(), perm);
    std::copy(pb.begin(), pb.end(), block.begin() + static_cast<long>(j * n));
  }
  return block;
}

void layer_probe(const Args& args, const Csr& a, Report& rep, Checks& chk,
                 SpanLog& spans) {
  const int workers = probe_workers(args.workload);
  const ScheduleOptions so = sched_options(workers);

  // Setup three ways, alternated: whole SolverInstance construction,
  // ordering alone, and construction given that ordering. Medians reported.
  constexpr int kRounds = 3;
  Samples whole, order, symbolic;
  offset_t nnz_est = 0;
  Permutation perm;
  InstanceOptions pre;
  std::unique_ptr<SolverInstance> inst;
  for (int round = 0; round < kRounds; ++round) {
    {
      ScopedSpan sp(spans, "setup");
      Stopwatch sw;
      const SolverInstance w(a, InstanceOptions{});
      whole.add(sw.seconds());
      nnz_est = w.nnz_lu();
    }
    {
      ScopedSpan sp(spans, "order");
      Stopwatch sw;
      perm = compute_ordering(a, InstanceOptions{}.ordering);
      order.add(sw.seconds());
    }
    pre.preordered = perm;
    inst.reset();
    {
      ScopedSpan sp(spans, "symbolic");
      Stopwatch sw;
      inst = std::make_unique<SolverInstance>(a, pre);
      symbolic.add(sw.seconds());
    }
  }
  rep.add("mem.rss_setup_mib", perfbench::rss_mib(), "MiB", "VmRSS after setup");
  double tile_s = 0;
  {
    const Csr pa = apply_symmetric_permutation(a, perm);
    ScopedSpan sp(spans, "symbolic.tile_symbolic");
    Stopwatch sw;
    const TilePattern tp = tile_symbolic(pa, PluOptions{}.tile_size);
    tile_s = sw.seconds();
  }
  rep.add_median("order.wall_s", order, "s");
  rep.add_median("symbolic.wall_s", symbolic, "s");
  rep.add("symbolic.tile_s", tile_s, "s", "1 sample");
  const index_t tasks = inst->graph().size();
  const index_t levels = inst->graph().level_count();
  rep.add("symbolic.tasks", static_cast<double>(tasks), "count", "exact");
  rep.add("symbolic.dag_levels", static_cast<double>(levels), "count", "exact");
  rep.add_median("setup_s", whole, "s");
  rep.add("trace.setup_reconcile",
          (order.median() + symbolic.median()) / whole.median(), "ratio",
          "(order.wall_s + symbolic.wall_s) / setup_s");

  Samples loop;
  ScheduleResult timing;
  for (int round = 0; round < kRounds; ++round) {
    ScopedSpan sp(spans, "sched.timing_replay");
    Stopwatch sw;
    timing = inst->run_timing(so);
    loop.add(sw.seconds());
  }

  // First factorization: allocation count, memory, and the solve probes.
  long allocs = 0;
  {
    ScopedSpan sp(spans, "factor.first");
    const long a0 = perfbench::alloc_count();
    perfbench::count_allocs(true);
    inst->run_numeric(so);
    perfbench::count_allocs(false);
    allocs = perfbench::alloc_count() - a0;
  }
  rep.add("mem.rss_factor_mib", perfbench::rss_mib(), "MiB", "VmRSS after factor");
  rep.add("mem.allocs_factor", static_cast<double>(allocs), "count",
          "operator new calls in run_numeric");
  const offset_t nnz_lu = inst->nnz_lu();
  rep.add("nnz_lu", static_cast<double>(nnz_lu), "count", "exact");
  rep.add("order.fill_ratio",
          static_cast<double>(nnz_lu) / static_cast<double>(a.nnz()), "ratio",
          "nnz_lu / nnz(A)");

  const std::vector<real_t> b = make_rhs(a, mix(args.seed, 7));
  std::vector<real_t> x_plain;
  {
    ScopedSpan sp(spans, "solve");
    Stopwatch sw;
    x_plain = inst->solve(b);
    rep.add("solve.wall_s", sw.seconds(), "s", "1 sample, single RHS");
  }
  check_solve(chk, a, x_plain, b, "traced solve");

  {
    rhs::BlockSolver bs(*inst->plu_factorization(), so);
    std::vector<std::vector<real_t>> raw;
    Samples block;
    for (int rep_i = 0; rep_i < 2; ++rep_i) {
      std::vector<real_t> x =
          make_block(a, perm, mix(args.seed, 11 + rep_i), raw);
      ScopedSpan sp(spans, "rhs.block_solve");
      Stopwatch sw;
      bs.solve(x.data(), kBlockWidth, rhs::SolveSchedule::kPriorityDag, true);
      block.add(sw.seconds());
      const std::size_t n = static_cast<std::size_t>(a.n_rows);
      for (index_t j = 0; j < kBlockWidth; ++j) {
        const std::vector<real_t> col(x.begin() + static_cast<long>(j * n),
                                      x.begin() + static_cast<long>((j + 1) * n));
        check_solve(chk, a, apply_inverse_permutation(col, perm),
                    raw[static_cast<std::size_t>(j)], "block solve column");
      }
    }
    // The first call builds the solve DAGs; report the warm one.
    rep.add("rhs.block_s", block.v.back(), "s",
            "1 warm width-16 BlockSolver::solve");
    rep.add("rhs.width_mean", static_cast<double>(kBlockWidth), "count",
            "direct BlockSolver, 2 blocks");
    rep.add("rhs.dag_builds", static_cast<double>(bs.dag().builds()), "count",
            "direct BlockSolver SolveDag");
    rep.add("rhs.dag_reuses", static_cast<double>(bs.dag().reuses()), "count",
            "direct BlockSolver SolveDag");
  }
  inst.reset();

  // Factor rounds on fresh instances, alternating untraced, decorated
  // (kernel counters) and 1-thread runs so warm-up and machine drift hit
  // all three alike. Every run must solve bitwise like the first.
  Samples plain, traced, one;
  std::vector<ScheduleResult> plain_runs;
  perfbench::TimingBackend::Tally tally;
  double flops = 0;
  for (int round = 0; round < kRounds; ++round) {
    {
      SolverInstance fi(a, pre);
      ScopedSpan sp(spans, "factor");
      Stopwatch sw;
      plain_runs.push_back(fi.run_numeric(so));
      plain.add(sw.seconds());
      chk.expect(bitwise_equal(fi.solve(b), x_plain),
                 "repeated factorization solves bitwise identically");
    }
    {
      SolverInstance fi(a, pre);
      perfbench::TimingBackend tb(fi.plu_factorization()->backend());
      ScopedSpan sp(spans, "factor.decorated");
      Stopwatch sw;
      const ScheduleResult rd = simulate(fi.graph(), so, &tb);
      traced.add(sw.seconds());
      fi.restore_numeric_done();
      chk.expect(bitwise_equal(fi.solve(b), x_plain),
                 "decorated factorization solves bitwise identically");
      tally = tb.totals();
      flops = sum_flops(rd);
    }
    {
      SolverInstance fi(a, pre);
      ScopedSpan sp(spans, "factor.1thread");
      Stopwatch sw;
      fi.run_numeric(sched_options(1));
      one.add(sw.seconds());
      chk.expect(bitwise_equal(fi.solve(b), x_plain),
                 "1-thread and " + std::to_string(workers) +
                     "-thread solutions bitwise identical");
    }
  }

  // Scheduler/exec split from the median untraced round, so that
  // sched.host_s + exec.wall_s = factor_s holds exactly.
  const double factor_s = plain.median();
  std::size_t mid = 0;
  for (std::size_t i = 0; i < plain.count(); ++i) {
    if (plain.v[i] == factor_s) mid = i;
  }
  const ScheduleResult& r = plain_runs[mid];
  const exec::ExecStats& ex = r.stats().exec;
  rep.add_median("factor_s", plain, "s");
  rep.add_median("sched.loop_s", loop, "s");
  rep.add("sched.host_s", factor_s - ex.wall_s, "s",
          "median factor_s - its exec.wall_s");
  rep.add("sched.batches", static_cast<double>(r.kernel_count), "count", "exact");
  rep.add("sched.mean_batch", r.mean_batch_size, "count", "exact");
  rep.add("exec.wall_s", ex.wall_s, "s", "ExecStats of the median round");
  rep.add("exec.busy_s", ex.busy_s, "s", "ExecStats, summed lane CPU");
  rep.add("exec.span_s", ex.span_s, "s", "ExecStats, critical path");
  rep.add("exec.efficiency", ex.busy_s / (ex.wall_s * workers), "ratio",
          "busy / (wall x " + std::to_string(workers) + " workers)");
  rep.add("exec.det_reductions", static_cast<double>(ex.det_reductions), "count",
          "exact");
  rep.add("exec.fallback_tasks", static_cast<double>(ex.fallback_tasks),
          "count", "exact");
  rep.add("exec.speedup_vs_1t", one.median() / factor_s, "x",
          "median 1-thread / " + std::to_string(workers) + "-thread factor");
  rep.add("model_factor_ms", r.makespan_s * 1e3, "ms_modelled",
          "exact, simulated A100 numeric makespan");
  rep.add("model_timing_ms", timing.makespan_s * 1e3, "ms_modelled",
          "exact, timing-only replay");

  const char* kinds[4] = {"getrf", "tstrf", "geesm", "ssssm"};
  double lane = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    rep.add(std::string("kernel.") + kinds[k] + ".calls",
            static_cast<double>(tally.calls[k]), "count", "run_task + run_blocks");
    rep.add(std::string("kernel.") + kinds[k] + ".lane_s", tally.lane_s[k],
            "lane-s", "summed per-call wall, lanes overlap");
    lane += tally.lane_s[k];
  }
  rep.add("kernel.gflops", flops / lane / 1e9, "GF/s",
          "modelled flops / kernel lane-s");
  rep.add_median("factor.decorated_s", traced, "s");
  rep.add("trace.overhead", traced.median() / factor_s, "ratio",
          "median decorated / median untraced factor");

  // A second seed keeps every exact count and changes the values.
  {
    ScopedSpan sp(spans, "seed_check");
    const Csr a2 = make_matrix(args.workload, args.seed + 1);
    chk.expect(a2.row_ptr == a.row_ptr && a2.col_idx == a.col_idx &&
                   a2.values != a.values,
               "seed+1 keeps the pattern and changes the values");
    const SolverInstance other(a2, InstanceOptions{});
    const ScheduleResult t2 = other.run_timing(so);
    chk.expect(other.graph().size() == tasks &&
                   other.graph().level_count() == levels &&
                   other.nnz_lu() == nnz_est &&
                   t2.kernel_count == timing.kernel_count &&
                   t2.makespan_s == timing.makespan_s,
               "seed+1 repeats tasks, levels, nnz(L+U) estimate, batches and "
               "modelled makespan");
  }
}

/// transient only: one service episode with spans, the serve counters, and
/// the same refactors replayed directly (donor ctor + run_numeric) to
/// isolate the serve dispatch overhead.
void serve_probe(const Args& args, const Csr& a, Report& rep, Checks& chk,
                 SpanLog& spans) {
  serve::SolverService svc(serve_options());
  const Episode ep = run_episode(svc, a, args.seed, 0, chk, spans);
  ScheduleOptions so = serve_options().sched;
  so.exec.pool = &svc.pool();
  Samples refactor, direct, dispatch;
  {
    const SolverInstance& donor = *svc.session_instance(ep.sid[0]);
    for (std::size_t step = 0; step < ep.refactor_s.size(); ++step) {
      ScopedSpan sp(spans, "serve.refactor_direct");
      Stopwatch sw;
      for (int t = 0; t < 2; ++t) {
        const std::uint64_t seed = ep.refactor_seeds[step * 2 + t];
        SolverInstance inst(finalize_system(a, seed), InstanceOptions{}, donor);
        inst.run_numeric(so);
      }
      direct.add(sw.seconds());
      refactor.add(ep.refactor_s[step]);
      dispatch.add(ep.refactor_s[step] - direct.v.back());
    }
  }
  rep.add_median("serve.refactor_phase_s", refactor, "s");
  rep.add_median("serve.refactor_direct_s", direct, "s");
  const serve::ServeStats& st = svc.stats();
  const rhs::RhsStats rs = svc.rhs_stats();
  rep.add("serve.open_miss_s", ep.open_miss_s, "s", "1 sample");
  rep.add("serve.open_hit_s", ep.open_hit_s, "s", "1 sample");
  rep.add_median("serve.dispatch_s", dispatch, "s");
  rep.add("serve.cache_hits", static_cast<double>(st.cache_hits), "count",
          "ServeStats");
  rep.add("serve.completed", static_cast<double>(st.completed), "count",
          "ServeStats");
  rep.add("serve.shed", static_cast<double>(st.shed), "count", "ServeStats");
  rep.add("serve.failed", static_cast<double>(st.failed), "count", "ServeStats");
  rep.add("rhs.width_mean",
          rs.batches > 0 ? static_cast<double>(rs.solved) /
                               static_cast<double>(rs.batches)
                         : 0.0,
          "count", "serve rhs_stats(): solved / block solves");
  rep.add("rhs.dag_builds", static_cast<double>(rs.dag_builds), "count",
          "serve rhs_stats()");
  rep.add("rhs.dag_reuses", static_cast<double>(rs.dag_reuses), "count",
          "serve rhs_stats()");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report rep;
  Checks chk;
  SpanLog spans(args.trace, args.workload + "-s" + std::to_string(args.seed));
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  try {
    const Csr a = make_matrix(args.workload, args.seed);
    std::printf("  n=%lld nnz=%lld workers=%d\n",
                static_cast<long long>(a.n_rows), static_cast<long long>(a.nnz()),
                args.trace ? probe_workers(args.workload) : kLoopWorkers);
    if (args.trace) {
      layer_probe(args, a, rep, chk, spans);
      if (args.workload == "transient") serve_probe(args, a, rep, chk, spans);
    } else if (args.workload == "transient") {
      transient_e2e(args, a, rep, chk);
    } else {
      direct_e2e(args, a, rep, chk);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  if (!args.trace) {
    rep.add("peak_rss_mib", perfbench::peak_rss_mib(), "MiB", "VmHWM");
  }
  rep.add("fail_rate",
          chk.attempted > 0 ? static_cast<double>(chk.failed) /
                                  static_cast<double>(chk.attempted)
                            : 0.0,
          "ratio",
          std::to_string(chk.failed) + " of " + std::to_string(chk.attempted) +
              " failed");
  rep.print_lines();
  if (args.trace && !args.spans.empty()) {
    if (!spans.write_chrome(args.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      return 1;
    }
    std::printf("  spans: %zu written to %s\n", spans.size(), args.spans.c_str());
  }
  const bool correct = chk.failed == 0;
  rep.print_json(args.trace ? kPerLayer : kEndToEnd, correct, chk.attempted,
                 chk.failed);
  return correct ? 0 : 1;
}
