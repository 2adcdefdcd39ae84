// Google-benchmark microbenchmarks of the host-side primitives: dense
// kernels, the SSSSM tile task, the block triangular solve, the
// BlockTaskMap dispatch, Container operations and the Collector admission
// path. These measure the *real* host cost of the building blocks (unlike
// the figure benches, which report modelled GPU time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/collector.hpp"
#include "core/container.hpp"
#include "gen/generators.hpp"
#include "kernels/dense.hpp"
#include "kernels/simd.hpp"
#include "kernels/tile.hpp"
#include "solvers/driver.hpp"
#include "solvers/trisolve.hpp"
#include "support/rng.hpp"

namespace th {
namespace {

std::vector<real_t> random_matrix(index_t n, Rng& rng, bool dd) {
  std::vector<real_t> a(static_cast<std::size_t>(n) * n);
  for (real_t& v : a) v = rng.uniform(-1.0, 1.0);
  if (dd) {
    for (index_t i = 0; i < n; ++i) {
      a[i + static_cast<std::size_t>(i) * n] += n + 1;
    }
  }
  return a;
}

void BM_GetrfNopiv(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  Rng rng(1);
  const std::vector<real_t> a0 = random_matrix(n, rng, true);
  for (auto _ : state) {
    std::vector<real_t> a = a0;
    getrf_nopiv(n, a.data(), n);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n / 3);
}
BENCHMARK(BM_GetrfNopiv)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmMinus(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  Rng rng(2);
  const std::vector<real_t> a = random_matrix(n, rng, false);
  const std::vector<real_t> b = random_matrix(n, rng, false);
  std::vector<real_t> c = random_matrix(n, rng, false);
  for (auto _ : state) {
    gemm_minus(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmMinus)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// One 64x64 SSSSM tile task: dense L (TSTRF output), U with the given
// percentage of nonzero entries (over the inner indices, 77% of fill3d's
// and 87% of c-71's U(p,j) are nonzero). Items are the useful flops, 2*64
// per nonzero U(p,j).
void BM_TileSsssm(benchmark::State& state) {
  const index_t n = 64;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(4);
  Tile l(n, n);
  for (index_t cc = 0; cc < n; ++cc) {
    for (index_t r = 0; r < n; ++r) {
      l.data()[r + cc * l.ld()] = rng.uniform(-1, 1);
    }
  }
  Tile u(n, n);
  std::int64_t u_nnz = 0;
  for (index_t cc = 0; cc < n; ++cc) {
    for (index_t r = 0; r < n; ++r) {
      if (rng.next_real() < density) {
        u.data()[r + cc * u.ld()] = rng.uniform(-1, 1);
        ++u_nnz;
      }
    }
  }
  Tile c(n, n);
  c.data()[0] = 1.0;
  for (auto _ : state) {
    tile_ssssm(c, l, u);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * u_nnz);
}
BENCHMARK(BM_TileSsssm)->Arg(5)->Arg(10)->Arg(25)->Arg(100);

// Sorted random subset of [0, 64) with `count` members.
std::vector<index_t> envelope_list(index_t count, Rng& rng) {
  std::vector<index_t> all(64);
  for (index_t i = 0; i < 64; ++i) all[i] = i;
  for (index_t i = 0; i < count; ++i) {
    std::swap(all[i], all[rng.index_in(i, 63)]);
  }
  all.resize(static_cast<std::size_t>(count));
  std::sort(all.begin(), all.end());
  return all;
}

// A zeroed 64x64 panel over copies of the lists and their position maps,
// which it owns.
Tile make_panel(const std::vector<index_t>& rows,
                const std::vector<index_t>& cols) {
  struct Owned {
    std::vector<index_t> rows, cols;
    std::vector<std::int16_t> row_pos, col_pos;
  };
  const auto o = std::make_shared<const Owned>(
      Owned{rows, cols, position_map(rows, 64), position_map(cols, 64)});
  return Tile({o->rows, o->cols, o->row_pos, o->col_pos}, o);
}

// The shape of one SSSSM task on envelope panels of 64x64 tiles: L's row
// and column counts, U's row count (`shared` of them L's columns, the
// inner indices) and column count, U's share of nonzero entries, and
// whether C lacks one of L's rows.
struct SsssmShape {
  index_t l_rows, l_cols, u_rows, shared, u_cols;
  real_t u_density;
  bool drop_row;
};

// fill3d's median nonempty SSSSM task: the kernel gathers C's rows, drops
// one product row and scatters the rest back.
constexpr SsssmShape kFill3dTask{17, 25, 20, 12, 17, 0.3, true};
// c-71's median SSSSM task (perfbench transient): 14 x 14 L and U panels
// meeting in 6 inner indices, 37% of U nonzero, C full.
constexpr SsssmShape kC71Task{14, 14, 14, 6, 14, 0.37, false};

// One SSSSM task of the given shape, C full but for the dropped row. Items
// are the useful flops, 2 per (kept L row, nonzero U(p,j) with p an L
// column) pair.
void BM_TileSsssmPacked(benchmark::State& state, SsssmShape shape) {
  Rng rng(7);
  const std::vector<index_t> l_rows = envelope_list(shape.l_rows, rng);
  const std::vector<index_t> l_cols = envelope_list(shape.l_cols, rng);
  std::vector<index_t> u_rows(l_cols.begin(), l_cols.begin() + shape.shared);
  for (index_t x = 0; static_cast<index_t>(u_rows.size()) < shape.u_rows;
       ++x) {
    if (!std::binary_search(l_cols.begin(), l_cols.end(), x)) {
      u_rows.push_back(x);
    }
  }
  std::sort(u_rows.begin(), u_rows.end());
  const std::vector<index_t> u_cols = envelope_list(shape.u_cols, rng);
  std::vector<index_t> c_rows = envelope_list(64, rng);
  if (shape.drop_row) {
    c_rows.erase(std::find(c_rows.begin(), c_rows.end(), l_rows[5]));
  }
  const std::vector<index_t> c_cols = envelope_list(64, rng);
  Tile l = make_panel(l_rows, l_cols);
  for (offset_t i = 0; i < l.panel_size(); ++i) {
    l.data()[i] = rng.uniform(-1, 1);
  }
  Tile u = make_panel(u_rows, u_cols);
  for (offset_t i = 0; i < u.panel_size(); ++i) {
    if (rng.next_real() < shape.u_density) u.data()[i] = rng.uniform(-1, 1);
  }
  Tile c = make_panel(c_rows, c_cols);
  const std::int64_t kept = shape.l_rows - (shape.drop_row ? 1 : 0);
  std::int64_t terms = 0;
  for (index_t jj = 0; jj < u.panel_cols(); ++jj) {
    for (index_t p = 0; p < u.panel_rows(); ++p) {
      if (u.data()[p + jj * u.ld()] != 0.0 &&
          std::binary_search(l_cols.begin(), l_cols.end(), u_rows[p])) {
        terms += kept;
      }
    }
  }
  for (auto _ : state) {
    tile_ssssm(c, l, u);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * terms);
}
BENCHMARK_CAPTURE(BM_TileSsssmPacked, fill3d, kFill3dTask);
BENCHMARK_CAPTURE(BM_TileSsssmPacked, c71, kC71Task);

// The triangular tile tasks on a factored 64x64 diagonal tile, over a
// target panel of the given rows x columns: 23 x 24 is c-71's partial
// panel shape (perfbench transient), 64 x 64 the full tile. Each
// iteration restores the target. Items are the dense flops, 2 per
// (row, column, inner index) of the triangle.
template <bool kGeesm>
void tile_trsm_bench(benchmark::State& state) {
  const auto m = static_cast<index_t>(state.range(0));
  const auto n = static_cast<index_t>(state.range(1));
  Rng rng(9);
  Tile d(64, 64);
  const std::vector<real_t> dd = random_matrix(64, rng, true);
  std::copy(dd.begin(), dd.end(), d.data());
  tile_getrf(d);
  Tile t = make_panel(envelope_list(m, rng), envelope_list(n, rng));
  for (offset_t i = 0; i < t.panel_size(); ++i) {
    t.data()[i] = rng.uniform(-1, 1);
  }
  const std::vector<real_t> a0(t.data(), t.data() + t.panel_size());
  for (auto _ : state) {
    std::copy(a0.begin(), a0.end(), t.data());
    if (kGeesm) {
      tile_geesm(t, d);
    } else {
      tile_tstrf(t, d);
    }
    benchmark::DoNotOptimize(t.data());
    benchmark::ClobberMemory();
  }
  // GEESM folds m x m into each of n columns, TSTRF n x n into m rows.
  const std::int64_t tri = kGeesm ? m : n;
  state.SetItemsProcessed(state.iterations() * (kGeesm ? n : m) * tri *
                          (tri - 1));
}
void BM_TileGeesm(benchmark::State& state) { tile_trsm_bench<true>(state); }
void BM_TileTstrf(benchmark::State& state) { tile_trsm_bench<false>(state); }
BENCHMARK(BM_TileGeesm)->Args({23, 24})->Args({64, 64});
BENCHMARK(BM_TileTstrf)->Args({23, 24})->Args({64, 64});

// One block triangular solve (tri_solve_in_order, forward and backward)
// on the perfbench transient factor: c-71, default ordering, 64-wide
// tiles. The argument is the block's width. Items are 2 flops per stored
// factor word per right-hand side, so the rate reads as GF/s beside
// BM_GemmMinus's.
void BM_TriSolveBlock(benchmark::State& state) {
  static const Csr a = finalize_system(circuit_like(4000, 2.6, 5, 71), 71);
  static const std::unique_ptr<SolverInstance> inst = [] {
    auto s = std::make_unique<SolverInstance>(a, InstanceOptions{});
    s->run_numeric(ScheduleOptions{});
    return s;
  }();
  const PluFactorization& fact = *inst->plu_factorization();
  offset_t words = 0;
  fact.tiles().for_each(
      [&](index_t, index_t, const Tile& t) { words += t.panel_size(); });
  const auto width = static_cast<index_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(a.n_rows);
  Rng rng(8);
  std::vector<real_t> b(n * static_cast<std::size_t>(width));
  for (real_t& v : b) v = rng.uniform(-1, 1);
  std::vector<real_t> x(b.size());
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(b.begin(), b.end(), x.begin());
    state.ResumeTiming();
    tri_solve_in_order(fact, x.data(), width);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * words * width);
}
BENCHMARK(BM_TriSolveBlock)->Arg(1)->Arg(8)->Arg(16)->Unit(
    benchmark::kMillisecond);

void BM_ContainerPushPop(benchmark::State& state) {
  Rng rng(6);
  std::vector<Task> tasks(1024);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = static_cast<index_t>(i);
    tasks[i].row = rng.index_in(0, 63);
    tasks[i].col = rng.index_in(0, 63);
  }
  for (auto _ : state) {
    Container c;
    for (const Task& t : tasks) c.push(t);
    while (!c.empty()) benchmark::DoNotOptimize(c.pop());
  }
  state.SetItemsProcessed(state.iterations() * tasks.size());
}
BENCHMARK(BM_ContainerPushPop);

void BM_CollectorAdmission(benchmark::State& state) {
  std::vector<Task> tasks(4096);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = static_cast<index_t>(i);
    tasks[i].cost.cuda_blocks = 8;
    tasks[i].cost.shmem_per_block = 1024;
  }
  const DeviceSpec dev;
  for (auto _ : state) {
    Collector c(dev);
    for (const Task& t : tasks) {
      if (!c.try_add(t)) break;
    }
    benchmark::DoNotOptimize(c.take());
  }
}
BENCHMARK(BM_CollectorAdmission);

}  // namespace
}  // namespace th

// The banner's context names the kernel dispatch path, so a run records
// which SSSSM body it timed.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("ssssm_body", th::simd::dispatch_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
