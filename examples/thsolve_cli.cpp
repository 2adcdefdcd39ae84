// thsolve — command-line driver for the Trojan Horse solver library.
//
// A downstream-user-shaped tool: pick a matrix (file or generator), a
// solver core, a scheduling policy, a modelled device and a rank count;
// get the full pipeline report, optional iterative refinement, and an
// optional Chrome trace of the run (--trace-out).
//
//   thsolve_cli [options]
//     --matrix <path.mtx>        Matrix Market input (made diag-dominant)
//     --gen <grid2d|grid3d|cage|circuit|banded|kkt>   generator (default grid2d)
//     --n <int>                  target dimension for generators (default 1600)
//     --core <plu|slu>           solver core (default plu)
//     --policy <th|pangu|superlu|stream|dmdas>        (default th)
//     --device <a100|h100|5090|5060ti|mi50>           (default a100)
//     --ranks <int>              GPUs in the modelled cluster (default 1)
//     --threads <int>            host worker threads for the numeric batch
//                                runtime (default $TH_THREADS or 1); each
//                                worker plays a CUDA block
//     --nrhs <int>               after factoring, run a batched multi-RHS
//                                SpTRSV phase: N right-hand sides solved as
//                                block solves through src/rhs, printing
//                                RHS/s throughput and the worst residual
//                                (PLU core only)
//     --rhs-batch <spec>         block-solve configuration, a spec
//                                string "width=N,sched=priority|levelset";
//                                applies to --nrhs and to --serve's solve
//                                coalescing
//     --block <int>              tile size / max supernode (default core's)
//     --ordering <mindeg|rcm|nd|natural>              (default mindeg)
//     --refine <iters>           iterative-refinement steps (default 0)
//     --abft                     checksum-verify every executed task
//                                (Huang–Abraham row/col sums); corrupt tasks
//                                roll back and retry, then escalate to
//                                iterative refinement
//     --abft-retries <n>         re-runs per corrupt task before escalating
//                                (default: the fault plan's retry budget)
//     --trace-out <out.json>     write the *unified* observability trace:
//                                simulated kernel timeline plus host
//                                runtime/exec-lane spans and aggregate-
//                                stage instants on separate tracks
//                                (enables the obs layer for the run)
//     --metrics-out <m.json>     snapshot the obs metrics registry after
//                                the run (.csv for CSV, else JSON);
//                                enables the obs layer for the run
//     --faults <spec>            fault-injection plan (see below)
//     --mem-gib <G>              modelled per-rank device-memory budget in
//                                GiB; every factor tile, batch scratch,
//                                ABFT buffer and checkpoint staging buffer
//                                is charged against it (0 = accounting off)
//     --spill-dir <dir>          spill cold factor tiles to <dir> as THTS
//                                files when the budget is exceeded; without
//                                it spilling is priced in the model only
//     --mem-policy <failfast|shrink|spill>
//                                degradation ladder on a budget overrun:
//                                fail immediately, shrink the batch width,
//                                or shrink then spill cold tiles (default)
//     --ckpt-interval <sec|auto> coordinated checkpoints every <sec> of
//                                simulated time ("auto" = Young/Daly from
//                                the fault plan's failure rate)
//     --ckpt-write <sec>         simulated write pause per checkpoint
//     --ckpt-out <f.thck>        save the last checkpoint to a file
//     --resume <f.thck>          resume a timing replay from a checkpoint;
//                                the remaining schedule is bit-identical
//                                to the run that captured it
//     --validate                 run the schedule-invariant validator on
//                                the resulting timeline (aborts if violated)
//
// Serving mode (multi-tenant replay; ignores --matrix/--gen):
//     --serve                    replay a synthetic multi-tenant workload
//                                through the src/serve session layer and
//                                print the overload report (latencies,
//                                goodput, shed/reject accounting, cache
//                                hit rate); honours --policy/--device/
//                                --ranks/--threads/--mem-gib and the obs
//                                outputs (--trace-out/--metrics-out)
//     --serve-requests <n>       trace length (default 200)
//     --serve-tenants <n>        tenant population (default 4)
//     --serve-patterns <n>       distinct sparsity patterns (default 12)
//     --serve-load <x>           open-loop arrival rate as a multiple of
//                                measured capacity (default 1.0; 2 = overload)
//     --serve-seed <s>           trace seed (default 1)
//     --serve-chaos <n>          run n tenant-misbehavior chaos scenarios
//                                instead of a plain replay; exit 4 if any
//                                scenario finds an invariant violation
//
// Durable serving (write-ahead journal + crash/restart recovery):
//     --journal-dir <dir>        enable the session journal: every open,
//                                factor commit and retirement is WAL-logged
//                                and committed factor tiles are persisted
//                                as CRC-protected artifacts (implies
//                                --serve; DESIGN.md section 16)
//     --recover                  replay the journal on startup and
//                                rehydrate sessions + committed factors
//                                bit-identically before serving (requires
//                                --journal-dir; mutually exclusive with
//                                --resume — checkpoints resume a timing
//                                replay, the journal recovers a service)
//     --serve-crash-soak <n>     run n crash/restart soak scenarios: the
//                                service is killed at every journal-append
//                                boundary plus one bit-rot drill, then
//                                recovered and replayed; exit 4 if any
//                                gate fails (requires --journal-dir)
//     --crash-kill               soak crashes by fork + SIGKILL (real
//                                process death) instead of in-process
//                                unwinding; POSIX only
//
// Exit codes:
//   0  solved (scaled residual < 1e-9) / serve or soak run clean
//   1  solved but residual above threshold
//   2  usage error (bad flag, malformed spec, conflicting flags)
//   3  I/O error (unreadable matrix, corrupt checkpoint, unwritable output)
//   4  solver/scheduler/service error (including failed chaos/soak gates)
//
// Fault-injection walkthrough. --faults takes a comma-separated spec:
//
//   transient=P      every kernel crashes with probability P (retried with
//                    exponential backoff, deterministic per seed)
//   kill=R@T         rank R's GPU dies T seconds into the run; its pending
//                    work migrates to the surviving ranks
//   cpu=R@T          rank R falls back to CPU-model execution at time T
//   restart=R@T      rank R dies at time T and restarts from the last
//                    coordinated checkpoint (see --ckpt-interval)
//   degrade=A-B@F    links between nodes A and B lose Fx bandwidth
//   nan=ID | inf=ID | tinypivot=ID
//                    corrupt task ID's target block (enables guards)
//   bitflip=ID | scale=ID | snan=ID
//                    *silently* corrupt task ID's output after it runs —
//                    invisible to the guards; detected (and retried) only
//                    when --abft is on
//   guards=1         scan GETRF/SSSSM outputs: scrub NaN/Inf, perturb tiny
//                    pivots, escalate the solve to iterative refinement
//   memramp=R@T@F    rank R's (R=-1: every rank's) modelled memory capacity
//                    shrinks to Fx its size T seconds in (requires
//                    --mem-gib; the degradation ladder absorbs the residue)
//   memfail=P        every batch allocation spuriously fails with
//                    probability P (deterministic per seed; under the spill
//                    policy a failure evicts the coldest tile and retries)
//   crash=EVENT@N    durable serving only: kill the service immediately
//                    before its N-th journal append of EVENT (open, commit,
//                    retire, or append = any); requires --journal-dir
//   seed=S retries=N backoff=SEC
//                    plan seed / retry budget / base backoff
//
// Example: a 16-rank run where every kernel has a 0.1% transient fault
// rate and rank 3 dies 2 ms in (one command line):
//
//   thsolve_cli --gen grid2d --n 10000 --ranks 16
//       --faults transient=0.001,kill=3@0.002,guards=1
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "order/perm.hpp"
#include "resilience/checkpoint.hpp"
#include "rhs/solve_dag.hpp"
#include "serve/chaos.hpp"
#include "serve/crash_soak.hpp"
#include "serve/serve.hpp"
#include "serve/trace.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "solvers/refine.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "support/rss.hpp"
#include "support/spec.hpp"

namespace {

using namespace th;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: thsolve_cli [--matrix f.mtx | --gen KIND --n N] "
               "[--core plu|slu] [--policy th|pangu|superlu|stream|dmdas] "
               "[--device a100|h100|5090|5060ti|mi50] [--ranks R] "
               "[--threads N] [--nrhs N] [--rhs-batch width=N,"
               "sched=priority|levelset] "
               "[--block B] [--ordering mindeg|rcm|nd|natural] "
               "[--refine I] [--abft] [--abft-retries N] "
               "[--trace-out unified.json] [--metrics-out m.json|m.csv] "
               "[--faults transient=P,kill=R@T,cpu=R@T,restart=R@T,"
               "degrade=A-B@F,nan=ID,inf=ID,tinypivot=ID,bitflip=ID,"
               "scale=ID,snan=ID,guards=1,memramp=R@T@F,memfail=P,"
               "seed=S,retries=N,backoff=SEC,crash=EVENT@N] "
               "[--mem-gib G] [--spill-dir DIR] "
               "[--mem-policy failfast|shrink|spill] "
               "[--ckpt-interval SEC|auto] [--ckpt-write SEC] "
               "[--ckpt-out f.thck] [--resume f.thck] [--validate] "
               "[--serve] [--serve-requests N] [--serve-tenants N] "
               "[--serve-patterns N] [--serve-load X] [--serve-seed S] "
               "[--serve-chaos N] [--journal-dir DIR] [--recover] "
               "[--serve-crash-soak N] [--crash-kill]\n");
  std::exit(2);
}

// Strict integer parse for flag/env values: the whole token must be a
// base-10 integer >= lo ("4x", "", "-2" all exit 2 with a message; atoi
// would silently truncate or zero them).
int parse_int_strict(const char* what, const char* val, int lo) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(val, &end, 10);
  if (end == val || *end != '\0' || errno == ERANGE || v < lo ||
      v > 1000000000L) {
    usage((std::string(what) + " wants an integer >= " + std::to_string(lo) +
           ", got \"" + val + "\"")
              .c_str());
  }
  return static_cast<int>(v);
}

// Strict real parse for flag values: the whole token must be a finite
// number >= 0 ("lots", "1x", "-1" all exit 2 with a message; atof would
// silently turn them into 0 or a truncated value).
double parse_real_strict(const char* what, const char* val) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(val, &end);
  if (end == val || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < 0) {
    usage((std::string(what) + " wants a non-negative number, got \"" + val +
           "\"")
              .c_str());
  }
  return v;
}

Csr make_generated(const std::string& kind, index_t n) {
  const std::uint64_t seed = 20260131;
  if (kind == "grid2d") {
    const auto k = static_cast<index_t>(std::sqrt(static_cast<double>(n)));
    return finalize_system(grid2d_laplacian(k, k), seed);
  }
  if (kind == "grid3d") {
    const auto k = static_cast<index_t>(std::cbrt(static_cast<double>(n)));
    return finalize_system(grid3d_laplacian(k, k, k), seed);
  }
  if (kind == "cage") return finalize_system(cage_like(n, 8, 0.06, seed), seed);
  if (kind == "circuit") {
    return finalize_system(circuit_like(n, 2.5, 3, seed), seed);
  }
  if (kind == "banded") {
    return finalize_system(banded_random(n, 40, 0.3, seed), seed);
  }
  if (kind == "kkt") {
    return finalize_system(kkt_like(2 * n / 3, n / 3, 3, seed), seed);
  }
  usage(("unknown generator: " + kind).c_str());
}

Policy parse_policy(const std::string& p) {
  if (p == "th") return Policy::kTrojanHorse;
  if (p == "pangu") return Policy::kPriorityPerTask;
  if (p == "superlu") return Policy::kLevelPerTask;
  if (p == "stream") return Policy::kMultiStream;
  if (p == "dmdas") return Policy::kDmdas;
  usage(("unknown policy: " + p).c_str());
}

// The spec vocabulary and its strict parsing live in support/spec.hpp
// (shared with the chaos harnesses' repro lines); the CLI only maps the
// typed SpecError back onto its usage/exit-2 convention.
FaultPlan parse_faults(const std::string& s) {
  try {
    return spec::parse_fault_spec(s);
  } catch (const spec::SpecError& e) {
    usage((std::string("--faults: ") + e.what()).c_str());
  }
}

// --rhs-batch travels as a spec::RhsSpec on the wire; the CLI converts it
// into rhs::RhsOptions. An empty flag means the defaults.
rhs::RhsOptions parse_rhs_batch(const std::string& s) {
  try {
    const spec::RhsSpec r = s.empty() ? spec::RhsSpec{} : spec::parse_rhs_spec(s);
    rhs::RhsOptions o;
    o.max_width = static_cast<index_t>(r.width);
    o.schedule = rhs::solve_schedule_by_name(r.schedule);
    return o;
  } catch (const spec::SpecError& e) {
    usage((std::string("--rhs-batch: ") + e.what()).c_str());
  }
}

Ordering parse_ordering(const std::string& o) {
  if (o == "mindeg") return Ordering::kMinDegree;
  if (o == "rcm") return Ordering::kRcm;
  if (o == "nd") return Ordering::kNestedDissection;
  if (o == "natural") return Ordering::kNatural;
  usage(("unknown ordering: " + o).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace th;

  std::string matrix_path, gen_kind = "grid2d", faults_spec;
  std::string trace_out_path, metrics_out_path;
  std::string core = "plu", policy = "th", device = "a100";
  std::string ordering = "mindeg";
  std::string ckpt_interval_spec, ckpt_out_path, resume_path;
  std::string spill_dir, mem_policy = "spill";
  real_t mem_gib = 0;
  real_t ckpt_interval = 0, ckpt_write = 0;
  bool validate = false;
  bool serve_mode = false;
  int serve_requests = 200, serve_tenants = 4, serve_patterns = 12;
  int serve_chaos_scenarios = 0;
  double serve_load = 1.0;
  std::uint64_t serve_seed = 1;
  std::string journal_dir;
  bool recover = false;
  int crash_soak_scenarios = 0;
  bool crash_kill = false;
  std::string rhs_batch_spec;
  int nrhs = 0;
  index_t n = 1600, block = 0;
  int ranks = 1, refine_iters = 0;
  bool abft = false;
  int abft_retries = -1;  // -1 = inherit the fault plan's retry budget
  // --threads beats TH_THREADS beats the serial default, so scripted
  // environments can set a fleet-wide thread count the flag still overrides.
  int threads = 1;
  if (const char* env = std::getenv("TH_THREADS")) {
    threads = parse_int_strict("TH_THREADS", env, 1);
  }

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--matrix")) {
      matrix_path = need("--matrix");
    } else if (!std::strcmp(argv[i], "--gen")) {
      gen_kind = need("--gen");
    } else if (!std::strcmp(argv[i], "--n")) {
      n = static_cast<index_t>(parse_int_strict("--n", need("--n"), 1));
    } else if (!std::strcmp(argv[i], "--core")) {
      core = need("--core");
    } else if (!std::strcmp(argv[i], "--policy")) {
      policy = need("--policy");
    } else if (!std::strcmp(argv[i], "--device")) {
      device = need("--device");
    } else if (!std::strcmp(argv[i], "--ranks")) {
      ranks = parse_int_strict("--ranks", need("--ranks"), 1);
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = parse_int_strict("--threads", need("--threads"), 1);
    } else if (!std::strcmp(argv[i], "--nrhs")) {
      nrhs = parse_int_strict("--nrhs", need("--nrhs"), 1);
    } else if (!std::strcmp(argv[i], "--rhs-batch")) {
      rhs_batch_spec = need("--rhs-batch");
    } else if (!std::strcmp(argv[i], "--block")) {
      block =
          static_cast<index_t>(parse_int_strict("--block", need("--block"), 0));
    } else if (!std::strcmp(argv[i], "--ordering")) {
      ordering = need("--ordering");
    } else if (!std::strcmp(argv[i], "--refine")) {
      refine_iters = parse_int_strict("--refine", need("--refine"), 0);
    } else if (!std::strcmp(argv[i], "--abft")) {
      abft = true;
    } else if (!std::strcmp(argv[i], "--abft-retries")) {
      abft_retries =
          parse_int_strict("--abft-retries", need("--abft-retries"), 0);
    } else if (!std::strcmp(argv[i], "--trace-out")) {
      trace_out_path = need("--trace-out");
    } else if (!std::strncmp(argv[i], "--trace-out=", 12)) {
      trace_out_path = argv[i] + 12;
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      metrics_out_path = need("--metrics-out");
    } else if (!std::strncmp(argv[i], "--metrics-out=", 14)) {
      metrics_out_path = argv[i] + 14;
    } else if (!std::strcmp(argv[i], "--faults")) {
      faults_spec = need("--faults");
    } else if (!std::strcmp(argv[i], "--mem-gib")) {
      mem_gib = parse_real_strict("--mem-gib", need("--mem-gib"));
    } else if (!std::strcmp(argv[i], "--spill-dir")) {
      spill_dir = need("--spill-dir");
    } else if (!std::strcmp(argv[i], "--mem-policy")) {
      mem_policy = need("--mem-policy");
      if (mem_policy != "failfast" && mem_policy != "shrink" &&
          mem_policy != "spill") {
        usage("--mem-policy wants failfast, shrink or spill");
      }
    } else if (!std::strcmp(argv[i], "--ckpt-interval")) {
      ckpt_interval_spec = need("--ckpt-interval");
      if (ckpt_interval_spec != "auto") {
        ckpt_interval =
            parse_real_strict("--ckpt-interval", ckpt_interval_spec.c_str());
      }
    } else if (!std::strcmp(argv[i], "--ckpt-write")) {
      ckpt_write = parse_real_strict("--ckpt-write", need("--ckpt-write"));
    } else if (!std::strcmp(argv[i], "--ckpt-out")) {
      ckpt_out_path = need("--ckpt-out");
    } else if (!std::strcmp(argv[i], "--resume")) {
      resume_path = need("--resume");
    } else if (!std::strcmp(argv[i], "--validate")) {
      validate = true;
    } else if (!std::strcmp(argv[i], "--serve")) {
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--serve-requests")) {
      serve_requests =
          parse_int_strict("--serve-requests", need("--serve-requests"), 1);
    } else if (!std::strcmp(argv[i], "--serve-tenants")) {
      serve_tenants =
          parse_int_strict("--serve-tenants", need("--serve-tenants"), 1);
    } else if (!std::strcmp(argv[i], "--serve-patterns")) {
      serve_patterns =
          parse_int_strict("--serve-patterns", need("--serve-patterns"), 1);
    } else if (!std::strcmp(argv[i], "--serve-load")) {
      serve_load = parse_real_strict("--serve-load", need("--serve-load"));
      if (serve_load <= 0) usage("--serve-load wants a positive multiple");
    } else if (!std::strcmp(argv[i], "--serve-seed")) {
      serve_seed = static_cast<std::uint64_t>(
          parse_int_strict("--serve-seed", need("--serve-seed"), 0));
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--serve-chaos")) {
      serve_chaos_scenarios =
          parse_int_strict("--serve-chaos", need("--serve-chaos"), 1);
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--journal-dir")) {
      journal_dir = need("--journal-dir");
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--recover")) {
      recover = true;
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--serve-crash-soak")) {
      crash_soak_scenarios = parse_int_strict("--serve-crash-soak",
                                              need("--serve-crash-soak"), 1);
      serve_mode = true;
    } else if (!std::strcmp(argv[i], "--crash-kill")) {
      crash_kill = true;
    } else {
      usage((std::string("unknown flag: ") + argv[i]).c_str());
    }
  }

  // Parse eagerly so a malformed --rhs-batch or --faults errors even on
  // runs that never reach a batched solve or a fault-injected schedule.
  const rhs::RhsOptions rhs_opt = parse_rhs_batch(rhs_batch_spec);
  const FaultPlan fault_plan =
      faults_spec.empty() ? FaultPlan{} : parse_faults(faults_spec);

  // Flag-compatibility checks up front: conflicting or dangling durability
  // flags are usage errors (exit 2), not runtime surprises.
  if (recover && !resume_path.empty()) {
    usage("--recover and --resume are mutually exclusive (the journal "
          "recovers a service; a checkpoint resumes a timing replay)");
  }
  if ((recover || crash_soak_scenarios > 0) && journal_dir.empty()) {
    usage("--recover / --serve-crash-soak need --journal-dir");
  }
  if (!fault_plan.crashes.empty() && journal_dir.empty()) {
    usage("--faults crash=EVENT@N needs --journal-dir");
  }
  if (crash_kill && crash_soak_scenarios == 0) {
    usage("--crash-kill only applies to --serve-crash-soak");
  }

  if (serve_mode) {
    // Multi-tenant serving replay: synthesize a Zipf-popularity workload
    // calibrated against this configuration's measured capacity, feed it
    // through a SolverService, and print the overload report. The obs
    // outputs reuse the solve path's wiring (serve spans live on the
    // "service" track; there is no simulated-kernel timeline to merge).
    try {
      serve::ServeOptions sopt;
      sopt.sched.policy = parse_policy(policy);
      sopt.sched.n_ranks = ranks;
      sopt.sched.cluster =
          ranks > 1 && device == "mi50" ? cluster_mi50()
          : ranks > 1                   ? cluster_h100()
                                        : single_gpu(device_by_name(device));
      if (ranks > 1) sopt.sched.cluster.gpu = device_by_name(device);
      sopt.sched.mem.policy = mem::mem_policy_by_name(mem_policy);
      sopt.exec_workers = threads;
      sopt.mem_budget_bytes = mem::MemOptions::gib(mem_gib);
      sopt.rhs = rhs_opt;
      sopt.durable.journal_dir = journal_dir;
      sopt.durable.recover = recover;
      sopt.durable.crashes = fault_plan.crashes;
      sopt.validate();

      serve::TraceOptions topt;
      topt.seed = serve_seed;
      topt.n_patterns = serve_patterns;
      topt.n_tenants = serve_tenants;
      topt.n_requests = serve_requests;
      topt.load = serve_load;

      const bool obs_on = !trace_out_path.empty() || !metrics_out_path.empty();
      const obs::Session obs_session(obs_on);

      if (crash_soak_scenarios > 0) {
        serve::CrashSoakOptions copt;
        copt.seed = serve_seed;
        copt.scenarios = crash_soak_scenarios;
        copt.dir = journal_dir;
        copt.serve = sopt;
        copt.kill = crash_kill;
        const serve::CrashSoakReport report = serve::run_crash_soak(copt);
        std::printf("crash soak: %s\n", report.summary().c_str());
        for (const serve::CrashSoakFailure& f : report.failures) {
          std::printf("crash soak FAIL %s: %s\n", f.repro.c_str(),
                      f.what.c_str());
        }
        return report.ok() ? 0 : 4;
      }

      if (serve_chaos_scenarios > 0) {
        serve::ServeChaosOptions copt;
        copt.seed = serve_seed;
        copt.scenarios = serve_chaos_scenarios;
        copt.serve = sopt;
        copt.trace = topt;
        const serve::ServeChaosReport report = serve::run_serve_chaos(copt);
        std::printf("serve chaos: %s\n", report.summary().c_str());
        return report.ok() ? 0 : 4;
      }

      topt.mean_service_s = serve::estimate_mean_service_s(sopt, topt);
      const serve::ServeTrace trace = serve::synth_trace(topt);
      serve::SolverService svc(sopt);
      const serve::ReplayReport rep = serve::replay(svc, trace);
      const serve::ServeStats& st = rep.stats;
      st.publish_metrics();
      svc.rhs_stats().publish_metrics();
      if (svc.journal() != nullptr) {
        const serve::DurableStats& ds = svc.durable_stats();
        ds.publish_metrics();
        std::printf("serve: durable journal %s — %lld append(s), %lld "
                    "commit(s); recovery replayed %lld record(s), "
                    "rehydrated %lld session(s) / %lld factor(s) in %.3f s, "
                    "quarantined %lld, deduped %lld\n",
                    journal_dir.c_str(),
                    static_cast<long long>(ds.journal_appends),
                    static_cast<long long>(ds.commits),
                    static_cast<long long>(ds.records_replayed),
                    static_cast<long long>(ds.sessions_recovered),
                    static_cast<long long>(ds.factors_rehydrated),
                    ds.recovery_s, static_cast<long long>(ds.quarantined),
                    static_cast<long long>(ds.idem_duplicates));
      }

      std::printf("serve: %d request(s), %d tenant(s), %d pattern(s), "
                  "load %.2fx (mean service %.3f ms)\n",
                  serve_requests, serve_tenants, serve_patterns, serve_load,
                  topt.mean_service_s * 1e3);
      std::printf("serve: admitted %lld, rejected %lld (%lld queue-full, "
                  "%lld deadline, %lld mem)\n",
                  static_cast<long long>(st.submitted),
                  static_cast<long long>(rep.rejected_events.size()),
                  static_cast<long long>(st.rejected_queue_full),
                  static_cast<long long>(st.rejected_deadline),
                  static_cast<long long>(st.rejected_mem));
      std::printf("serve: done %lld (%lld factor / %lld refactor / %lld "
                  "solve), shed %lld, cancelled %lld, deadline-missed %lld, "
                  "failed %lld, degraded dispatches %lld\n",
                  static_cast<long long>(st.completed),
                  static_cast<long long>(st.factors),
                  static_cast<long long>(st.refactors),
                  static_cast<long long>(st.solves),
                  static_cast<long long>(st.shed),
                  static_cast<long long>(st.cancelled),
                  static_cast<long long>(st.deadline_misses),
                  static_cast<long long>(st.failed),
                  static_cast<long long>(st.degraded_runs));
      std::printf("serve: failed by reason: %lld no-factors, %lld error\n",
                  static_cast<long long>(st.failed_no_factors),
                  static_cast<long long>(st.failed_error));
      std::printf("serve: symbolic cache %.0f%% hit (%lld/%lld), queue high "
                  "water %lld\n",
                  st.cache_hit_rate() * 100.0,
                  static_cast<long long>(st.cache_hits),
                  static_cast<long long>(st.cache_hits + st.cache_misses),
                  static_cast<long long>(st.queue_high_water));
      std::printf("serve: makespan %.3f s (virtual), goodput %.2f req/s, "
                  "done latency p50 %.3f / p90 %.3f / p99 %.3f s\n",
                  rep.makespan_s, rep.goodput_rps, rep.done_latency.p50,
                  rep.done_latency.p90, rep.done_latency.p99);

      try {
        if (!trace_out_path.empty()) {
          obs::write_unified_trace_file(trace_out_path, nullptr,
                                        obs::Recorder::global(),
                                        "thsolve serve");
          std::printf("unified obs trace written to %s\n",
                      trace_out_path.c_str());
        }
        if (!metrics_out_path.empty()) {
          obs::write_metrics_file(metrics_out_path);
          std::printf("obs metrics written to %s\n", metrics_out_path.c_str());
        }
      } catch (const Error& e) {
        std::fprintf(stderr, "thsolve: %s\n", e.what());
        return 3;
      }
      return 0;
    } catch (const Error& e) {
      std::fprintf(stderr, "thsolve: %s\n", e.what());
      return 4;
    }
  }

  // Anything the filesystem can get wrong — unreadable matrices, corrupt
  // checkpoints, unwritable outputs — exits 3; solver/scheduler breakdowns
  // exit 4 so scripts can tell the two apart.
  Csr a;
  try {
    if (!matrix_path.empty()) {
      a = make_diag_dominant(coo_to_csr(read_matrix_market_file(matrix_path)));
    } else {
      a = make_generated(gen_kind, n);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "thsolve: %s\n", e.what());
    return 3;
  }
  CheckpointState resume_state;
  if (!resume_path.empty()) {
    try {
      resume_state = load_checkpoint_file(resume_path);
    } catch (const Error& e) {
      std::fprintf(stderr, "thsolve: %s\n", e.what());
      return 3;
    }
  }

  try {
    std::printf("matrix: n=%d nnz=%lld\n", a.n_rows,
                static_cast<long long>(a.nnz()));

    InstanceOptions io;
    io.core = core == "slu" ? SolverCore::kSlu : SolverCore::kPlu;
    io.ordering = parse_ordering(ordering);
    io.block = block;
    io.grid = make_process_grid(ranks);
    SolverInstance inst(a, io);

    ScheduleOptions so;
    so.policy = parse_policy(policy);
    so.n_ranks = ranks;
    so.cluster = ranks > 1 && device == "mi50"  ? cluster_mi50()
                 : ranks > 1                    ? cluster_h100()
                                                : single_gpu(device_by_name(device));
    if (ranks > 1) so.cluster.gpu = device_by_name(device);
    if (!faults_spec.empty()) so.faults = fault_plan;
    so.mem.budget_bytes = mem::MemOptions::gib(mem_gib);
    so.mem.spill_dir = spill_dir;
    so.mem.policy = mem::mem_policy_by_name(mem_policy);
    so.exec.workers = threads;
    so.abft.enabled = abft;
    so.abft.max_retries = abft_retries;
    so.validate_schedule = validate;
    so.validate();  // reject bad thread/rank combinations before building
    if (!ckpt_interval_spec.empty()) {
      if (ckpt_interval_spec == "auto") {
        so.checkpoint.mode = CheckpointPolicy::Mode::kAuto;
      } else {
        so.checkpoint.mode = CheckpointPolicy::Mode::kInterval;
        so.checkpoint.interval_s = ckpt_interval;
      }
      if (ckpt_write > 0) so.checkpoint.write_cost_s = ckpt_write;
    }
    // Either observability output turns the obs layer on for the run;
    // constructing the Session also resets the registry and recorder so
    // the files hold exactly this run.
    const bool obs_on = !trace_out_path.empty() || !metrics_out_path.empty();
    const obs::Session obs_session(obs_on);

    if (!resume_path.empty()) {
      // Resume is a timing replay: numeric state is not checkpointed, only
      // schedule progress, so the remaining timeline is reproduced
      // bit-identically without re-running kernels.
      so.resume = resume_state;
      const ScheduleResult r = inst.run_timing(so);
      std::printf("resume from %s at t=%.6f s: remaining schedule %.3f ms, "
                  "%lld kernels (%s policy on %d x %s)\n",
                  resume_path.c_str(), resume_state.time_s,
                  (r.makespan_s - resume_state.time_s) * 1e3,
                  static_cast<long long>(r.kernel_count), policy.c_str(),
                  ranks, so.cluster.gpu.name.c_str());
      try {
        if (!trace_out_path.empty()) {
          obs::write_unified_trace_file(trace_out_path, &r.trace,
                                        obs::Recorder::global(),
                                        "thsolve " + policy);
        }
        if (!metrics_out_path.empty()) {
          obs::write_metrics_file(metrics_out_path);
        }
        if (!ckpt_out_path.empty() && !r.stats().checkpoint.empty()) {
          save_checkpoint_file(ckpt_out_path, r.stats().checkpoint);
        }
      } catch (const Error& e) {
        std::fprintf(stderr, "thsolve: %s\n", e.what());
        return 3;
      }
      return 0;
    }

    const ScheduleResult r = inst.run_numeric(so);
    const offset_t nnz_lu = inst.nnz_lu();  // scans every stored value
    std::printf("reorder %.1f ms, symbolic %.1f ms (host)\n",
                inst.reorder_seconds() * 1e3, inst.symbolic_seconds() * 1e3);
    std::printf("numeric on %d x %s (%s policy): %.3f ms, %lld kernels, "
                "mean batch %.1f, %.1f GFLOPS, nnz(L+U)=%lld\n",
                ranks, so.cluster.gpu.name.c_str(), policy.c_str(),
                r.makespan_s * 1e3, static_cast<long long>(r.kernel_count),
                r.mean_batch_size, r.achieved_gflops(),
                static_cast<long long>(nnz_lu));
    if (const PluFactorization* plu = inst.plu_factorization()) {
      // Factor storage against the nonzeros it holds: the envelope
      // panels' padding, next to the process's peak memory.
      const offset_t words = plu->tiles().stored_words();
      const PeakRss rss = peak_rss();
      std::printf("tiles: %lld stored words for nnz(L+U)=%lld (%.2fx), ",
                  static_cast<long long>(words),
                  static_cast<long long>(nnz_lu),
                  nnz_lu > 0 ? static_cast<double>(words) / nnz_lu : 0.0);
      if (rss.available()) {
        std::printf("%s %.1f MiB\n", rss.source, rss.mib());
      } else {
        std::printf("peak RSS unavailable\n");
      }
    }
    if (threads > 1) {
      std::printf("exec: %d host threads: wall %.1f ms, span %.1f ms, "
                  "busy %.1f ms, %ld ordered reductions\n",
                  r.stats().exec.workers, r.stats().exec.wall_s * 1e3,
                  r.stats().exec.span_s * 1e3,
                  r.stats().exec.busy_s * 1e3,
                  r.stats().exec.det_reductions);
    }
    if (r.stats().abft.enabled) {
      std::printf("abft: %lld task(s) verified, %lld corrupt detected, "
                  "%lld retried, %lld accepted after budget, lane CPU "
                  "%.1f ms capture + %.1f ms verify (summed over lanes)\n",
                  static_cast<long long>(r.stats().abft.tasks_verified),
                  static_cast<long long>(r.stats().abft.corrupt_detected),
                  static_cast<long long>(r.stats().abft.retries),
                  static_cast<long long>(r.stats().abft.exhausted),
                  r.stats().abft.capture_s * 1e3,
                  r.stats().abft.verify_s * 1e3);
    }
    if (r.stats().mem.any()) {
      const mem::MemStats& ms = r.stats().mem;
      std::printf("mem: high water %.2f / %.2f GiB, %lld tile(s) spilled "
                  "(%.1f MiB) / %lld reloaded, %lld batch shrink(s) "
                  "displacing %lld task(s), %lld pressure ramp(s), %lld "
                  "alloc failure(s), stalls %.3f ms spill + %.3f ms reload\n",
                  ms.high_water_bytes / (1024.0 * 1024.0 * 1024.0),
                  ms.budget_bytes / (1024.0 * 1024.0 * 1024.0),
                  static_cast<long long>(ms.tiles_spilled),
                  ms.bytes_spilled / (1024.0 * 1024.0),
                  static_cast<long long>(ms.tiles_reloaded),
                  static_cast<long long>(ms.batch_shrinks),
                  static_cast<long long>(ms.tasks_displaced),
                  static_cast<long long>(ms.pressure_events),
                  static_cast<long long>(ms.alloc_failures),
                  ms.spill_s * 1e3, ms.reload_s * 1e3);
    }

    const FaultReport& fr = r.stats().faults;
    if (fr.any()) {
      // The clean baseline is a pricing detail: keep it out of the obs
      // registry and recorder so the outputs describe the real run only.
      const obs::ScopedDisable no_obs;
      const real_t clean = inst.run_timing([&] {
                             ScheduleOptions c = so;
                             c.faults = FaultPlan{};
                             c.checkpoint = CheckpointPolicy{};
                             return c;
                           }())
                               .makespan_s;
      std::printf(
          "faults: %lld injected (%lld transient, %lld migrated, %lld "
          "cpu-fallback, %lld numeric), %lld retries, %d rank(s) failed, "
          "guards scrubbed %lld / perturbed %lld, overhead %.3f ms "
          "(+%.1f%%)\n",
          static_cast<long long>(fr.injected()),
          static_cast<long long>(fr.transient_faults),
          static_cast<long long>(fr.tasks_migrated),
          static_cast<long long>(fr.cpu_fallback_tasks),
          static_cast<long long>(fr.numeric_faults_injected),
          static_cast<long long>(fr.retries), fr.ranks_failed,
          static_cast<long long>(fr.guards.nonfinite_scrubbed),
          static_cast<long long>(fr.guards.pivots_perturbed),
          (r.makespan_s - clean) * 1e3,
          clean > 0 ? (r.makespan_s / clean - 1.0) * 100.0 : 0.0);
      if (fr.checkpoints_taken > 0 || fr.tasks_restarted > 0) {
        std::printf("ckpt: %lld checkpoint(s) written (%.3f ms of pauses), "
                    "%d rank restart(s), %lld task(s) re-executed\n",
                    static_cast<long long>(fr.checkpoints_taken),
                    fr.checkpoint_write_s * 1e3,
                    fr.ranks_restarted,
                    static_cast<long long>(fr.tasks_restarted));
      }
      if (fr.escalate_refinement && refine_iters == 0) {
        // Guards repaired factors in place, or ABFT accepted a corrupt
        // tile after exhausting retries; polish the solve either way.
        refine_iters = 8;
        std::printf("faults: factors degraded (guards fired or abft budget "
                    "spent) -> escalating to %d refinement step(s)\n",
                    refine_iters);
      }
    }

    Rng rng(4242);
    std::vector<real_t> x_true(static_cast<std::size_t>(a.n_rows));
    for (real_t& v : x_true) v = rng.uniform(-1, 1);
    const std::vector<real_t> b = spmv(a, x_true);
    RefineOptions ro;
    ro.max_iterations = refine_iters;
    const RefineReport rep = iterative_refinement(inst, b, ro);
    std::printf("solve: scaled residual %.2e", rep.residual_history.front());
    if (rep.iterations() > 0) {
      std::printf(" -> %.2e after %d refinement step(s)",
                  rep.final_residual(), rep.iterations());
    }
    std::printf("\n");

    if (nrhs > 0 && inst.plu_factorization() == nullptr) {
      std::fprintf(stderr,
                   "thsolve: --nrhs needs the plu core (batched SpTRSV runs "
                   "on PLU factors); skipping the multi-RHS phase\n");
    } else if (nrhs > 0) {
      // Batched multi-RHS phase: solve `nrhs` fresh right-hand sides
      // against the factors just computed, fused into block solves of the
      // configured width, each width priced once (src/rhs).
      const rhs::RhsOptions& ropt = rhs_opt;
      const auto nn = static_cast<std::size_t>(a.n_rows);
      Rng brng(515151);
      std::vector<std::vector<real_t>> want(static_cast<std::size_t>(nrhs));
      std::vector<std::vector<real_t>> rhs_cols(static_cast<std::size_t>(nrhs));
      for (int j = 0; j < nrhs; ++j) {
        std::vector<real_t> xt(nn);
        for (real_t& v : xt) v = brng.uniform(-1, 1);
        want[static_cast<std::size_t>(j)] = std::move(xt);
        rhs_cols[static_cast<std::size_t>(j)] =
            spmv(a, want[static_cast<std::size_t>(j)]);
      }

      rhs::BlockSolver bsolver(*inst.plu_factorization(), so, io.grid);
      rhs::RhsStats counts;
      long long kernels = 0;
      real_t worst = 0;
      std::vector<real_t> blockbuf;
      for (int at = 0; at < nrhs; at += static_cast<int>(ropt.max_width)) {
        const int w = std::min<int>(static_cast<int>(ropt.max_width),
                                    nrhs - at);
        blockbuf.resize(nn * static_cast<std::size_t>(w));
        for (int j = 0; j < w; ++j) {
          const std::vector<real_t> pb = apply_permutation(
              rhs_cols[static_cast<std::size_t>(at + j)],
              inst.permutation());
          std::copy(pb.begin(), pb.end(),
                    blockbuf.begin() + static_cast<std::size_t>(j) * nn);
        }
        const rhs::BlockSolveResult& br = bsolver.solve(
            blockbuf.data(), static_cast<index_t>(w), ropt.schedule);
        counts.add_block(static_cast<index_t>(w), br);
        kernels += br.kernel_count();
        for (int j = 0; j < w; ++j) {
          const std::vector<real_t> px(
              blockbuf.begin() + static_cast<std::size_t>(j) * nn,
              blockbuf.begin() + static_cast<std::size_t>(j + 1) * nn);
          const std::vector<real_t> x =
              apply_inverse_permutation(px, inst.permutation());
          worst = std::max(
              worst, scaled_residual(
                         a, x, rhs_cols[static_cast<std::size_t>(at + j)]));
        }
      }
      counts.dag_builds = bsolver.dag().builds();
      counts.dag_reuses = bsolver.dag().reuses();
      counts.publish_metrics();
      const real_t virt_s = counts.busy_s;
      std::printf("rhs: %d rhs in %lld batch(es) (width cap %d, %s "
                  "schedule): virtual %.3f ms, %.1f RHS/s, %lld kernels, "
                  "dag %lld build(s) / %lld reuse(s), max scaled residual "
                  "%.2e\n",
                  nrhs, static_cast<long long>(counts.batches),
                  static_cast<int>(ropt.max_width),
                  rhs::solve_schedule_name(ropt.schedule), virt_s * 1e3,
                  virt_s > 0 ? nrhs / virt_s : 0.0, kernels,
                  static_cast<long long>(counts.dag_builds),
                  static_cast<long long>(counts.dag_reuses), worst);
      if (worst >= 1e-9) {
        std::fprintf(stderr,
                     "thsolve: batched rhs scaled residual %.2e above 1e-9\n",
                     worst);
        return 1;
      }
    }

    try {
      if (!trace_out_path.empty()) {
        obs::write_unified_trace_file(trace_out_path, &r.trace,
                                      obs::Recorder::global(),
                                      "thsolve " + policy);
        std::printf("unified obs trace written to %s (open in ui.perfetto.dev "
                    "or chrome://tracing)\n",
                    trace_out_path.c_str());
      }
      if (!metrics_out_path.empty()) {
        obs::write_metrics_file(metrics_out_path);
        std::printf("obs metrics written to %s\n", metrics_out_path.c_str());
      }
      if (!ckpt_out_path.empty()) {
        const CheckpointState& ckpt_captured = r.stats().checkpoint;
        if (ckpt_captured.empty()) {
          std::fprintf(stderr,
                       "thsolve: no checkpoint captured (did the run outlast "
                       "--ckpt-interval?); %s not written\n",
                       ckpt_out_path.c_str());
        } else {
          save_checkpoint_file(ckpt_out_path, ckpt_captured);
          std::printf("checkpoint (t=%.6f s) written to %s\n",
                      ckpt_captured.time_s, ckpt_out_path.c_str());
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "thsolve: %s\n", e.what());
      return 3;
    }
    if (rep.final_residual() >= 1e-9) {
      std::fprintf(stderr, "thsolve: scaled residual %.2e above 1e-9\n",
                   rep.final_residual());
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "thsolve: %s\n", e.what());
    return 4;
  }
}
