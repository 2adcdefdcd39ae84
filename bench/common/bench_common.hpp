// Shared infrastructure for the per-figure/per-table benchmark binaries.
//
// Every bench binary prints a paper-style console table and writes the same
// data as CSV into results/ next to the build tree. Set TH_FAST=1 to run a
// subsampled version of the heavier sweeps (mirrors the artifact's
// "30-minutes-fast mode").
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernels/tile.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "support/rss.hpp"
#include "support/table.hpp"

namespace th::bench {

/// True when TH_FAST=1 (or any non-empty, non-"0" value) is set.
bool fast_mode();

/// The six solver variants evaluated throughout the paper (§4.1).
struct Variant {
  const char* label;  // e.g. "SuperLU+TH"
  SolverCore core;
  Policy policy;
};

/// In evaluation order: PaStiX(dmdas), SuperLU, SuperLU+TH, PanguLU,
/// PanguLU+stream, PanguLU+TH.
const std::vector<Variant>& all_variants();
/// The four ±Trojan-Horse variants (Figure 10).
const std::vector<Variant>& four_variants();

/// One evaluation matrix with both solver cores constructed over a shared
/// fill-reducing ordering. Construction is the expensive part; every
/// variant/device/rank-count replay afterwards is a cheap timing-only
/// simulation.
class MatrixBench {
 public:
  MatrixBench(std::string name, const Csr& a, index_t slu_block = 40,
              index_t plu_block = 128);

  const std::string& name() const { return name_; }
  const Csr& matrix() const { return a_; }
  SolverInstance& instance(SolverCore core);
  const SolverInstance& instance(SolverCore core) const;

  /// Timing-only replay of a variant on a single device.
  ScheduleResult run(const Variant& v, const DeviceSpec& device);
  /// Timing-only replay on a cluster with `ranks` GPUs.
  ScheduleResult run(const Variant& v, const ClusterSpec& cluster, int ranks);
  /// CPU-model replay (Table 7): prices the variant's task graph on the
  /// host CPU model instead of a GPU.
  ScheduleResult run_cpu(SolverCore core, const CpuSpec& cpu);

  /// Fully custom replay (ablation benches tweak Prioritizer/Collector/
  /// Container options directly).
  ScheduleResult run_custom(SolverCore core, const ScheduleOptions& opt);

 private:
  ScheduleResult run_opts(const Variant& v, ScheduleOptions opt);
  std::string name_;
  Csr a_;
  std::unique_ptr<SolverInstance> slu_;
  std::unique_ptr<SolverInstance> plu_;
};

/// Repetitions for host wall-clock measurements: TH_REPEAT if set (>= 1),
/// else 3 (1 in fast mode). Modelled timings are deterministic and need no
/// repetition — this is only for phases measured with a real stopwatch.
int repeat_count();

/// Repeated host-timing summary (seconds).
struct TimingSample {
  real_t best = 0;    // min over repetitions — least-noise estimate
  real_t median = 0;  // robust central value, reported in tables
  int repeats = 0;
};

/// Run `sample` (which executes the workload once and returns its measured
/// seconds) `warmup` times untimed, then repeat_count() times for real;
/// returns the min and median of the kept samples. The sampler owns its
/// own stopwatch so per-run setup (e.g. constructing a fresh
/// SolverInstance, since numerics run at most once per instance) stays
/// outside the measurement.
TimingSample time_repeated(const std::function<real_t()>& sample,
                           int warmup = 1);

/// Order-alternated paired-ratio estimate — the methodology of the obs
/// overhead gate (ext_exec_scaling gate 2). Runs `reps` pairs of the two
/// samplers; each pair
/// alternates which side runs first (a fixed order would bias every pair
/// the same way under monotone ambient-load drift), and the reported ratio
/// is the median over per-pair b/a (the median discards the odd
/// descheduled sample). Pairs whose `a` sample is non-positive are
/// dropped. Quartiles are nearest-rank.
struct PairedRatio {
  real_t median_ratio = 1;  // median over pairs of sample_b / sample_a
  real_t q1_ratio = 1;      // lower quartile of the per-pair ratios
  real_t q3_ratio = 1;      // upper quartile of the per-pair ratios
  real_t median_a = 0;      // median over pairs of sample_a's value
  real_t median_b = 0;      // median over pairs of sample_b's value
  real_t best_a = 0;        // min over pairs of sample_a's value
  real_t best_b = 0;        // min over pairs of sample_b's value
  int pairs = 0;            // pairs that produced a usable ratio
};
PairedRatio paired_ratio(const std::function<real_t()>& sample_a,
                         const std::function<real_t()>& sample_b,
                         int reps = 15, int warmup_pairs = 1);

/// Print the table and also write `<stem>.csv` into results/ (created on
/// demand, relative to the current working directory).
void emit(const Table& table, const std::string& stem);

/// Print a short header naming the reproduced figure/table.
void banner(const std::string& what, const std::string& detail);

/// True when both tile matrices have the same shape, the same present
/// tiles, the same envelope lists and byte-identical panels (bitwise
/// factor comparison).
bool tiles_identical(const TileMatrix& x, const TileMatrix& y);

/// Peak per-rank factor storage in bytes: the largest, over ranks, sum of
/// factor-block outputs (GETRF/TSTRF/GEESM tasks) owned by one rank, and
/// the imbalance of that distribution (max over mean). Used to project the
/// paper-scale memory footprint for the Figure 12 OOM annotations.
struct FactorFootprint {
  offset_t max_rank_bytes = 0;
  real_t imbalance = 1.0;  // max rank bytes / mean rank bytes
};
FactorFootprint factor_footprint(const TaskGraph& g, int n_ranks);

}  // namespace th::bench
