// Google-benchmark microbenchmarks of the host-side primitives: dense
// kernels, the SSSSM tile task, the BlockTaskMap dispatch, Container
// operations and the Collector admission path. These measure the *real*
// host cost of the building blocks (unlike the figure benches, which
// report modelled GPU time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/collector.hpp"
#include "core/container.hpp"
#include "kernels/dense.hpp"
#include "kernels/tile.hpp"
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
// percentage of nonzero entries (fill3d's SSSSM operands have about 10%
// nonzero U(p,j)). Items are the useful flops, 2*64 per nonzero U(p,j).
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

// One SSSSM task on envelope panels of 64x64 tiles, shaped like fill3d's
// median SSSSM task with a nonempty product: L is 17 rows x 25 columns, U
// 20 rows (12 of them L's columns) x 17 columns with 30% nonzero entries,
// and C is full but for one of L's rows, so the kernel gathers C's rows,
// drops one product row and scatters the rest back. Items are the useful
// flops, 2 per (kept L row, nonzero U(p,j) with p an L column) pair.
void BM_TileSsssmPacked(benchmark::State& state) {
  Rng rng(7);
  const std::vector<index_t> l_rows = envelope_list(17, rng);
  const std::vector<index_t> l_cols = envelope_list(25, rng);
  std::vector<index_t> u_rows(l_cols.begin(), l_cols.begin() + 12);
  for (index_t x = 0; static_cast<index_t>(u_rows.size()) < 20; ++x) {
    if (!std::binary_search(l_cols.begin(), l_cols.end(), x)) {
      u_rows.push_back(x);
    }
  }
  std::sort(u_rows.begin(), u_rows.end());
  const std::vector<index_t> u_cols = envelope_list(17, rng);
  std::vector<index_t> c_rows = envelope_list(64, rng);
  c_rows.erase(std::find(c_rows.begin(), c_rows.end(), l_rows[5]));
  const std::vector<index_t> c_cols = envelope_list(64, rng);
  // The tiles own copies of their lists through one shared owner.
  const auto lists = std::make_shared<const std::vector<std::vector<index_t>>>(
      std::vector<std::vector<index_t>>{l_rows, l_cols, u_rows, u_cols, c_rows,
                                        c_cols});
  const auto& env = *lists;
  Tile l(64, 64, env[0], env[1], lists);
  for (offset_t i = 0; i < l.panel_size(); ++i) {
    l.data()[i] = rng.uniform(-1, 1);
  }
  Tile u(64, 64, env[2], env[3], lists);
  for (offset_t i = 0; i < u.panel_size(); ++i) {
    if (rng.next_real() < 0.3) u.data()[i] = rng.uniform(-1, 1);
  }
  Tile c(64, 64, env[4], env[5], lists);
  std::int64_t terms = 0;
  for (index_t jj = 0; jj < u.panel_cols(); ++jj) {
    for (index_t p = 0; p < u.panel_rows(); ++p) {
      if (u.data()[p + jj * u.ld()] != 0.0 &&
          std::binary_search(l_cols.begin(), l_cols.end(), u_rows[p])) {
        terms += static_cast<std::int64_t>(l_rows.size()) - 1;
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
BENCHMARK(BM_TileSsssmPacked);

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

BENCHMARK_MAIN();
