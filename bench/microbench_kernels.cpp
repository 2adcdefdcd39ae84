// Google-benchmark microbenchmarks of the host-side primitives: dense and
// sparse tile kernels, the BlockTaskMap dispatch, Container operations and
// the Collector admission path. These measure the *real* host cost of the
// building blocks (unlike the figure benches, which report modelled GPU
// time).
#include <benchmark/benchmark.h>

#include "core/collector.hpp"
#include "core/container.hpp"
#include "core/executor.hpp"
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

void BM_SparseSsssm(benchmark::State& state) {
  const index_t n = 64;
  const double density = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(4);
  Tile l(n, n);
  for (index_t c = 0; c < n; ++c) {
    for (index_t r = 0; r < n; ++r) {
      if (rng.next_real() < density) l.insert(r, c, rng.uniform(-1, 1));
    }
  }
  l.freeze();
  Tile u(n, n);
  for (index_t cc = 0; cc < n; ++cc) {
    for (index_t r = 0; r < n; ++r) u.insert(r, cc, rng.uniform(-1, 1));
  }
  u.freeze();
  u.densify();
  Tile c(n, n);
  c.insert(0, 0, 1.0);
  c.freeze();
  c.densify();
  for (auto _ : state) {
    tile_ssssm(c, l, u);
    benchmark::DoNotOptimize(c.dense_data());
  }
}
BENCHMARK(BM_SparseSsssm)->Arg(5)->Arg(25)->Arg(75);

void BM_BlockTaskMapLookup(benchmark::State& state) {
  const auto tasks = static_cast<index_t>(state.range(0));
  std::vector<Task> storage(static_cast<std::size_t>(tasks));
  std::vector<const Task*> batch;
  Rng rng(5);
  for (index_t i = 0; i < tasks; ++i) {
    storage[i].cost.cuda_blocks = rng.index_in(1, 64);
    batch.push_back(&storage[i]);
  }
  const exec::BlockMap map = exec::BlockMap::from_tasks(batch);
  index_t block = 0;
  for (auto _ : state) {
    block = (block + 97) % map.total_blocks();
    benchmark::DoNotOptimize(map.task_of_block(block));
  }
}
BENCHMARK(BM_BlockTaskMapLookup)->Arg(64)->Arg(1024)->Arg(16384);

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
