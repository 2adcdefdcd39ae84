#include "common/bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "mem/mem.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "order/reorder.hpp"
#include "support/error.hpp"

namespace th::bench {

namespace {

// TH_TRACE_OUT / TH_METRICS_OUT observe the whole bench process: banner()
// flips the obs switch on when either is set, and an atexit hook dumps the
// unified host-span trace (benches keep no single sim timeline, so the
// sim track is omitted) and the metrics snapshot when the process ends.
std::string g_obs_process_name = "bench";

void dump_obs_outputs() {
  const char* t = std::getenv("TH_TRACE_OUT");
  const char* m = std::getenv("TH_METRICS_OUT");
  try {
    if (t != nullptr && t[0] != '\0') {
      obs::write_unified_trace_file(t, nullptr, obs::Recorder::global(),
                                    g_obs_process_name);
      std::printf("[trace written to %s]\n", t);
    }
    if (m != nullptr && m[0] != '\0') {
      obs::write_metrics_file(m);
      std::printf("[metrics written to %s]\n", m);
    }
  } catch (const Error& e) {
    // atexit must not throw; a failed dump is a warning, not a crash.
    std::printf("[warning: obs dump failed: %s]\n", e.what());
  }
}

void maybe_enable_obs(const std::string& what) {
  static bool armed = false;
  if (armed) return;
  armed = true;
  const char* t = std::getenv("TH_TRACE_OUT");
  const char* m = std::getenv("TH_METRICS_OUT");
  if ((t == nullptr || t[0] == '\0') && (m == nullptr || m[0] == '\0')) return;
  g_obs_process_name = "bench: " + what;
  obs::set_enabled(true);
  obs::Registry::global().reset_values();
  obs::Recorder::global().clear();
  std::atexit(dump_obs_outputs);
}

}  // namespace

bool fast_mode() {
  const char* v = std::getenv("TH_FAST");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

int repeat_count() {
  if (const char* v = std::getenv("TH_REPEAT"); v != nullptr && v[0] != '\0') {
    const int n = std::atoi(v);
    TH_CHECK_MSG(n >= 1, "TH_REPEAT must be a positive integer");
    return n;
  }
  return fast_mode() ? 1 : 3;
}

TimingSample time_repeated(const std::function<real_t()>& sample,
                           int warmup) {
  for (int i = 0; i < warmup; ++i) (void)sample();
  std::vector<real_t> t(static_cast<std::size_t>(repeat_count()));
  for (real_t& s : t) s = sample();
  std::sort(t.begin(), t.end());
  TimingSample out;
  out.best = t.front();
  out.median = t[t.size() / 2];
  out.repeats = static_cast<int>(t.size());
  return out;
}

const std::vector<Variant>& all_variants() {
  static const std::vector<Variant> v{
      {"PaStiX(dmdas)", SolverCore::kSlu, Policy::kDmdas},
      {"SuperLU", SolverCore::kSlu, Policy::kLevelPerTask},
      {"SuperLU+TH", SolverCore::kSlu, Policy::kTrojanHorse},
      {"PanguLU", SolverCore::kPlu, Policy::kPriorityPerTask},
      {"PanguLU+stream", SolverCore::kPlu, Policy::kMultiStream},
      {"PanguLU+TH", SolverCore::kPlu, Policy::kTrojanHorse},
  };
  return v;
}

const std::vector<Variant>& four_variants() {
  static const std::vector<Variant> v{
      {"SuperLU", SolverCore::kSlu, Policy::kLevelPerTask},
      {"SuperLU+TH", SolverCore::kSlu, Policy::kTrojanHorse},
      {"PanguLU", SolverCore::kPlu, Policy::kPriorityPerTask},
      {"PanguLU+TH", SolverCore::kPlu, Policy::kTrojanHorse},
  };
  return v;
}

MatrixBench::MatrixBench(std::string name, const Csr& a, index_t slu_block,
                         index_t plu_block)
    : name_(std::move(name)), a_(a) {
  // One fill-reducing ordering shared by both solver cores.
  const Permutation perm = min_degree_order(a_);
  InstanceOptions io;
  io.preordered = perm;
  io.core = SolverCore::kSlu;
  io.block = slu_block;
  slu_ = std::make_unique<SolverInstance>(a_, io);
  io.core = SolverCore::kPlu;
  io.block = plu_block;
  plu_ = std::make_unique<SolverInstance>(a_, io);
}

SolverInstance& MatrixBench::instance(SolverCore core) {
  return core == SolverCore::kSlu ? *slu_ : *plu_;
}

const SolverInstance& MatrixBench::instance(SolverCore core) const {
  return core == SolverCore::kSlu ? *slu_ : *plu_;
}

ScheduleResult MatrixBench::run_opts(const Variant& v, ScheduleOptions opt) {
  SolverInstance& inst = instance(v.core);
  inst.set_grid(make_process_grid(opt.n_ranks));
  opt.policy = v.policy;
  return inst.run_timing(opt);
}

ScheduleResult MatrixBench::run(const Variant& v, const DeviceSpec& device) {
  ScheduleOptions opt;
  opt.cluster = single_gpu(device);
  opt.n_ranks = 1;
  return run_opts(v, opt);
}

ScheduleResult MatrixBench::run(const Variant& v, const ClusterSpec& cluster,
                                int ranks) {
  ScheduleOptions opt;
  opt.cluster = cluster;
  opt.n_ranks = ranks;
  return run_opts(v, opt);
}

ScheduleResult MatrixBench::run_cpu(SolverCore core, const CpuSpec& cpu) {
  ScheduleOptions opt;
  opt.cpu_mode = true;
  opt.cpu = cpu;
  opt.n_ranks = 1;
  opt.policy = Policy::kLevelPerTask;
  SolverInstance& inst = instance(core);
  inst.set_grid(make_process_grid(1));
  return inst.run_timing(opt);
}

ScheduleResult MatrixBench::run_custom(SolverCore core,
                                       const ScheduleOptions& opt) {
  SolverInstance& inst = instance(core);
  inst.set_grid(make_process_grid(opt.n_ranks));
  return inst.run_timing(opt);
}

bool tiles_identical(const TileMatrix& x, const TileMatrix& y) {
  // Equal counts, and every tile of x present in y: the same tile set.
  if (x.nt() != y.nt() || x.size() != y.size()) return false;
  bool same = true;
  x.for_each([&](index_t i, index_t j, const Tile& a) {
    const Tile* b = y.tile(i, j);
    same = same && b != nullptr && a.rows() == b->rows() &&
           a.cols() == b->cols() &&
           std::ranges::equal(a.row_idx(), b->row_idx()) &&
           std::ranges::equal(a.col_idx(), b->col_idx()) &&
           std::memcmp(a.data(), b->data(),
                       static_cast<std::size_t>(a.panel_size()) *
                           sizeof(real_t)) == 0;
  });
  return same;
}

FactorFootprint factor_footprint(const TaskGraph& g, int n_ranks) {
  // Delegates to the src/mem accounting API so benches project exactly what
  // the scheduler's ledgers charge — one source of truth for footprints.
  const mem::FootprintProjection p = mem::project_footprint(g, n_ranks);
  FactorFootprint f;
  f.max_rank_bytes = p.peak_rank_bytes;
  f.imbalance = p.imbalance;
  return f;
}

void emit(const Table& table, const std::string& stem) {
  std::fputs(table.to_string().c_str(), stdout);
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string path = "results/" + stem + ".csv";
  std::ofstream out(path);
  if (out.good()) {
    out << table.to_csv();
    std::printf("[csv written to %s]\n\n", path.c_str());
  } else {
    std::printf("[warning: could not write %s]\n\n", path.c_str());
  }
}

namespace {

void print_peak_rss() {
  const PeakRss rss = peak_rss();
  if (rss.available()) {
    std::printf("[peak RSS %.1f MiB (%s)]\n", rss.mib(), rss.source);
  } else {
    // Degrade loudly: an unavailable measurement is reported as such, not
    // as a confusing "0.0 MiB" (no /proc/self/status VmHWM and getrusage
    // failed — e.g. a stripped-down sandbox).
    std::printf(
        "[peak RSS unavailable: no VmHWM in /proc/self/status and "
        "getrusage failed]\n");
  }
}

}  // namespace

PairedRatio paired_ratio(const std::function<real_t()>& sample_a,
                         const std::function<real_t()>& sample_b, int reps,
                         int warmup_pairs) {
  // Warmup pairs soak up cold caches / allocator state untimed.
  for (int i = 0; i < warmup_pairs; ++i) {
    (void)sample_a();
    (void)sample_b();
  }
  PairedRatio out;
  std::vector<real_t> ratios, as, bs;
  ratios.reserve(static_cast<std::size_t>(reps > 0 ? reps : 0));
  for (int i = 0; i < reps; ++i) {
    const bool b_first = (i % 2) != 0;
    real_t a = 0, b = 0;
    if (b_first) {
      b = sample_b();
      a = sample_a();
    } else {
      a = sample_a();
      b = sample_b();
    }
    if (a > 0) ratios.push_back(b / a);
    as.push_back(a);
    bs.push_back(b);
  }
  for (std::vector<real_t>* v : {&ratios, &as, &bs}) {
    std::sort(v->begin(), v->end());
  }
  out.pairs = static_cast<int>(ratios.size());
  if (!ratios.empty()) {
    out.median_ratio = ratios[ratios.size() / 2];
    out.q1_ratio = ratios[ratios.size() / 4];
    out.q3_ratio = ratios[ratios.size() * 3 / 4];
  }
  if (!as.empty()) {
    out.median_a = as[as.size() / 2];
    out.median_b = bs[bs.size() / 2];
    out.best_a = as.front();
    out.best_b = bs.front();
  }
  return out;
}

void banner(const std::string& what, const std::string& detail) {
  maybe_enable_obs(what);
  // Every bench reports its own host memory high-water mark next to its
  // timings; registered here so each binary gets it without boilerplate.
  static bool rss_armed = false;
  if (!rss_armed) {
    rss_armed = true;
    std::atexit(print_peak_rss);
  }
  std::printf("================================================================\n");
  std::printf("Reproducing %s\n", what.c_str());
  std::printf("%s\n", detail.c_str());
  if (fast_mode()) std::printf("Fast AE mode is enabled (TH_FAST=1).\n");
  std::printf("================================================================\n\n");
}

}  // namespace th::bench
