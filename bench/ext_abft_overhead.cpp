// Extension: host wall-time cost of ABFT checksum protection on the
// executed numeric path. Two workloads, one table:
//
//  * The Figure-2 registry matrices, factored with the PLU core on the
//    4-lane batch executor twice — once clean, once with --abft
//    (Huang–Abraham capture before each batch, invariant verification
//    after). Reported for the record, NOT gated: the registry stand-ins
//    are narrow-band and sparse, so their tile kernels average only a few
//    thousand flops per batch member (a flops census over the Lin graph
//    at block 48 puts the SSSSM mean near 12k) while checksum capture and
//    verification are dense O(tile^2) passes over the target. On that
//    ratio the checksum pass rivals the kernels themselves, which says
//    nothing about the regime the paper runs in.
//
//  * A dense-band operating point (banded_random, bandwidth 4x the tile
//    size) where the tile kernels are O(tile^3)-dominant — the shape the
//    paper's GPU batches actually have. Here the O(tile^2) checksum work
//    is a second-order term, and the binary exits non-zero when the
//    median overhead exceeds the 15% wall-time budget. No CI job runs it:
//    the gate has not yet held in every full run (EXPERIMENTS.md).
#include <cstdio>

#include "common/bench_common.hpp"
#include "gen/generators.hpp"
#include "gen/registry.hpp"
#include "sparse/ops.hpp"
#include "support/stopwatch.hpp"

using namespace th;
using namespace th::bench;

namespace {

constexpr real_t kOverheadBudget = 0.15;  // gated dense-tile overhead
constexpr int kThreads = 4;

ScheduleOptions exec_options(bool abft) {
  ScheduleOptions o;
  o.policy = Policy::kTrojanHorse;
  o.cluster = single_gpu(device_a100());
  o.exec.workers = kThreads;
  o.abft.enabled = abft;
  return o;
}

struct Measurement {
  PairedRatio pr;  // per-pair abft/clean wall-time ratios
  offset_t verified = 0;
  offset_t detected = 0;
  real_t capture_s = 0;
  real_t verify_s = 0;
};

/// Shared CI boxes make a single wall-clock ratio useless: background load
/// and the frequency governor swing individual samples by tens of percent
/// in either direction. So each sample is a clean/abft pair whose two runs
/// see near-identical machine conditions, the pairs alternate which side
/// runs first, and the statistic is the median of the per-pair ratios: a
/// genuine cost regression in the checksum path moves every pair, while
/// one slow run moves one pair, which the median ignores.
Measurement measure(const Csr& a, index_t block, int pairs) {
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = block;
  Measurement m;
  // Numerics execute at most once per instance: each sample factors a
  // fresh one, with construction outside the stopwatch (as in Figure 2).
  const auto once = [&](bool abft) {
    SolverInstance fresh(a, io);
    const Stopwatch sw;
    const ScheduleResult r = fresh.run_numeric(exec_options(abft));
    const real_t s = sw.seconds();
    if (abft) {
      m.verified = r.stats().abft.tasks_verified;
      m.detected = r.stats().abft.corrupt_detected;
      m.capture_s = r.stats().abft.capture_s;
      m.verify_s = r.stats().abft.verify_s;
    }
    return s;
  };
  m.pr = paired_ratio([&] { return once(false); }, [&] { return once(true); },
                      pairs);
  return m;
}

void add_row(Table& t, const std::string& name, const Measurement& m,
             const char* gated) {
  const auto pct = [](real_t ratio) {
    return fmt_fixed((ratio - 1) * 100, 2) + "%";
  };
  t.add_row({name, std::to_string(m.pr.pairs),
             fmt_fixed(m.pr.median_a * 1e3, 3),
             fmt_fixed(m.pr.median_b * 1e3, 3), pct(m.pr.median_ratio),
             pct(m.pr.q1_ratio), pct(m.pr.q3_ratio),
             std::to_string(m.verified), std::to_string(m.detected),
             fmt_fixed(m.capture_s * 1e3, 3), fmt_fixed(m.verify_s * 1e3, 3),
             gated});
}

}  // namespace

int main() {
  banner("Extension: ABFT overhead",
         "Checksum capture + verify cost on the executed numeric path, "
         "PLU core, 4 exec lanes. Figure-2 set reported; dense-tile "
         "operating point gated at 15%.");

  Table t("ABFT overhead: clean vs checksum-verified numeric execution");
  t.set_header({"Workload", "pairs", "base median (ms)", "abft median (ms)",
                "overhead median", "overhead q1", "overhead q3", "verified",
                "detected", "capture lane-CPU (ms)", "verify lane-CPU (ms)",
                "gate"});

  for (const PaperMatrix& pm : paper_matrices()) {
    if (fast_mode() && pm.role == MatrixRole::kScaleOut) continue;
    add_row(t, pm.name, measure(pm.make(), 48, repeat_count()), "report");
  }

  // Gated operating point: bandwidth 512 at tile 128 keeps every SSSSM in
  // the dense O(tile^3) regime, so the measured overhead reflects the
  // checksum machinery rather than the stand-ins' sparsity.
  const Csr dense = finalize_system(banded_random(2048, 512, 1.0, 7), 7);
  const Measurement gate = measure(dense, 128, 7);
  add_row(t, "dense-band n=2048 b=512", gate, "<= 15%");
  emit(t, "ext_abft_overhead");

  const real_t over = gate.pr.median_ratio - 1;
  if (over > kOverheadBudget) {
    std::fprintf(stderr,
                 "FAIL: dense-tile ABFT overhead %.2f%% exceeds the %.0f%% "
                 "budget\n",
                 over * 100, kOverheadBudget * 100);
    return 1;
  }
  std::printf("ABFT overhead gate: %.2f%% <= %.0f%% budget\n", over * 100,
              kOverheadBudget * 100);
  return 0;
}
