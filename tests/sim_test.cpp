#include <gtest/gtest.h>

#include "sim/cluster.hpp"
#include "sim/device.hpp"
#include "sim/trace.hpp"
#include "support/error.hpp"

namespace th {
namespace {

TaskCost small_task(offset_t flops = 1e5, index_t blocks = 4,
                    bool sparse = false) {
  TaskCost c;
  c.flops = flops;
  c.bytes = flops;  // byte-per-flop ~1: compute-ish
  c.cuda_blocks = blocks;
  c.shmem_per_block = 1024;
  c.sparse = sparse;
  return c;
}

TEST(Device, CatalogMatchesPaperTables) {
  EXPECT_NEAR(device_rtx5060ti().fp64_peak_tflops, 0.37, 1e-9);
  EXPECT_NEAR(device_rtx5090().fp64_peak_tflops, 1.64, 1e-9);
  EXPECT_NEAR(device_a100().fp64_peak_tflops, 9.75, 1e-9);
  EXPECT_NEAR(device_h100().fp64_peak_tflops, 25.61, 1e-9);
  EXPECT_NEAR(device_mi50().fp64_peak_tflops, 6.71, 1e-9);
  EXPECT_NEAR(device_a100().mem_bw_tbs, 1.56, 1e-9);
  EXPECT_THROW(device_by_name("tpu"), Error);
  EXPECT_EQ(device_by_name("5090").name, "RTX 5090");
}

TEST(Device, LaunchLatencyDominatesTinyKernels) {
  const KernelCostModel m(device_a100());
  TaskCost tiny = small_task(/*flops=*/100, /*blocks=*/1);
  const real_t t = m.single_seconds(tiny);
  // A 100-flop kernel should cost essentially one launch latency.
  const real_t launch_s = m.spec().launch_latency_us * 1e-6;
  EXPECT_GT(t, 0.9 * launch_s);
  EXPECT_LT(t, 3.0 * launch_s);
}

TEST(Device, BatchingAmortisesLaunchLatency) {
  const KernelCostModel m(device_a100());
  const int kTasks = 200;
  std::vector<TaskCost> batch(kTasks, small_task(1e4, 2));
  real_t serial = 0;
  for (const TaskCost& t : batch) serial += m.single_seconds(t);
  const real_t batched = m.batch_seconds(batch);
  EXPECT_LT(batched, serial / 8);  // large amortisation, bounded by the
                                   // per-task host preparation cost
}

TEST(Device, OccupancyScalesThroughput) {
  const KernelCostModel m(device_a100());
  // Same total work, once as one under-occupied kernel vs fully occupied.
  TaskCost narrow = small_task(1e9, /*blocks=*/4);
  TaskCost wide = small_task(1e9, /*blocks=*/4000);
  wide.bytes = narrow.bytes = 0;
  EXPECT_GT(m.single_seconds(narrow), 5 * m.single_seconds(wide));
}

TEST(Device, OccupancyClampsAtOneAndZeroBlockTasksAreRejected) {
  // Occupancy is the batch's summed CUDA blocks over the resident slots,
  // clamped to 1: an oversubscribed grid runs in waves, so doubling every
  // task's blocks past the machine's slots leaves the compute time alone.
  const KernelCostModel m(device_a100());
  const index_t resident = static_cast<index_t>(m.spec().resident_blocks());
  TaskCost full = small_task(1e9, resident);
  full.bytes = 0;
  TaskCost twice = full;
  twice.cuda_blocks = 2 * resident;
  const std::vector<TaskCost> at_slots(4, full);
  const std::vector<TaskCost> past_slots(4, twice);
  EXPECT_DOUBLE_EQ(m.batch_timing(at_slots).exec_s,
                   m.batch_timing(past_slots).exec_s);
  // A zero-block task could never be reached by any CUDA block.
  TaskCost none = small_task();
  none.cuda_blocks = 0;
  EXPECT_THROW(m.batch_timing({small_task(), none}), Error);
}

TEST(Device, SparseTasksRunAtLowerEfficiency) {
  const KernelCostModel m(device_a100());
  TaskCost dense = small_task(1e9, 4000, false);
  TaskCost sparse = small_task(1e9, 4000, true);
  dense.bytes = sparse.bytes = 0;
  EXPECT_GT(m.single_seconds(sparse), 2 * m.single_seconds(dense));
}

TEST(Device, FasterGpuIsFasterOnBigWork) {
  TaskCost big = small_task(1e10, 100000);
  const real_t slow = KernelCostModel(device_rtx5060ti()).single_seconds(big);
  const real_t fast = KernelCostModel(device_rtx5090()).single_seconds(big);
  EXPECT_GT(slow, 3 * fast);  // ~4.4x peak ratio
}

TEST(Device, FasterGpuBarelyHelpsLaunchBoundWork) {
  TaskCost tiny = small_task(1000, 1);
  const real_t slow = KernelCostModel(device_rtx5060ti()).single_seconds(tiny);
  const real_t fast = KernelCostModel(device_rtx5090()).single_seconds(tiny);
  EXPECT_LT(slow / fast, 1.5);  // both launch-latency bound
}

TEST(Device, CpuModelTaskOverheadAndParallelism) {
  const CpuSpec cpu = cpu_xeon6462c();
  // Many independent small tasks: CPU pays per-task overhead but no launch.
  std::vector<TaskCost> tasks(1000, small_task(1e4, 1));
  const real_t t = cpu_batch_seconds(cpu, tasks);
  EXPECT_GT(t, 1000 * cpu.task_overhead_us * 1e-6 * 0.99);
  // One huge task is bounded by single-core speed.
  const real_t single = cpu_batch_seconds(cpu, {small_task(1e9, 1)});
  EXPECT_GT(single, 1e9 / (cpu.per_core_gflops * 1e9));
}

TEST(Cluster, CommModel) {
  const ClusterSpec c = cluster_h100();
  EXPECT_EQ(c.node_of(0), 0);
  EXPECT_EQ(c.node_of(7), 0);
  EXPECT_EQ(c.node_of(8), 1);
  EXPECT_DOUBLE_EQ(c.comm_seconds(3, 3, 1 << 20), 0.0);
  const real_t intra = c.comm_seconds(0, 1, 1 << 20);
  const real_t inter = c.comm_seconds(0, 8, 1 << 20);
  EXPECT_GT(inter, intra);  // IB slower than NVLink
}

TEST(Cluster, CommModelPricesAlphaBetaExactly) {
  const ClusterSpec c = cluster_h100();
  // Same-node: NVLink latency + bytes / NVLink bandwidth.
  EXPECT_DOUBLE_EQ(c.comm_seconds(0, 1, 1 << 20),
                   c.intra_node_latency_s +
                       static_cast<real_t>(1 << 20) / c.intra_node_bw_bps);
  // Cross-node: InfiniBand latency + bytes / InfiniBand bandwidth.
  EXPECT_DOUBLE_EQ(c.comm_seconds(0, 8, 1 << 20),
                   c.inter_node_latency_s +
                       static_cast<real_t>(1 << 20) / c.inter_node_bw_bps);
  // A bandwidth derate scales only the volume term.
  EXPECT_DOUBLE_EQ(c.comm_seconds(0, 8, 1 << 20, 4.0),
                   c.inter_node_latency_s +
                       4.0 * static_cast<real_t>(1 << 20) /
                           c.inter_node_bw_bps);
  // Zero bytes still pays latency; same rank is always free.
  EXPECT_DOUBLE_EQ(c.comm_seconds(0, 8, 0), c.inter_node_latency_s);
  EXPECT_DOUBLE_EQ(c.comm_seconds(5, 5, 1 << 30), 0.0);
}

TEST(Cluster, CommModelRejectsBrokenLinks) {
  ClusterSpec c = cluster_h100();
  c.intra_node_bw_bps = 0;
  EXPECT_THROW(c.comm_seconds(0, 1, 1024), Error);
  EXPECT_NO_THROW(c.comm_seconds(0, 8, 1024));  // inter-node link intact
  c = cluster_h100();
  c.inter_node_bw_bps = -5;
  EXPECT_THROW(c.comm_seconds(0, 8, 1024), Error);
  c = cluster_h100();
  c.inter_node_latency_s = -1e-6;
  EXPECT_THROW(c.comm_seconds(0, 8, 1024), Error);
  c = cluster_h100();
  EXPECT_THROW(c.comm_seconds(0, 8, 1024, 0.5), Error);  // derate < 1
}

TEST(Cluster, Mi50HasFourGpuNodes) {
  const ClusterSpec c = cluster_mi50();
  EXPECT_EQ(c.node_of(3), 0);
  EXPECT_EQ(c.node_of(4), 1);
  EXPECT_EQ(c.gpu.name, "MI50 PCIe");
}

TEST(Trace, AggregatesAndSeries) {
  Trace t;
  t.record({0, 0.0, 1.0, /*host_s=*/0.25, 1000, 2});
  t.record({1, 0.5, 1.5, /*host_s=*/0.25, 3000, 3});
  EXPECT_EQ(t.kernel_count(), 2);
  EXPECT_EQ(t.total_flops(), 4000);
  EXPECT_DOUBLE_EQ(t.makespan_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(t.total_kernel_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(t.total_host_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(t.mean_batch_size(), 2.5);
  const auto series = t.gflops_series(3);
  ASSERT_EQ(series.size(), 3u);
  // Total flops are conserved across bins (each bin holds rate * width).
  const real_t bin_w = 1.5 / 3;
  real_t recovered = 0;
  for (real_t g : series) recovered += g * 1e9 * bin_w;
  EXPECT_NEAR(recovered, 4000, 1.0);
}

TEST(Trace, EmptyTraceIsSafe) {
  Trace t;
  EXPECT_EQ(t.kernel_count(), 0);
  EXPECT_DOUBLE_EQ(t.makespan_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean_batch_size(), 0.0);
  EXPECT_EQ(t.gflops_series(4).size(), 4u);
}

}  // namespace
}  // namespace th
