#include "sim/device.hpp"

#include <algorithm>
#include <cctype>

#include "support/error.hpp"

namespace th {

DeviceSpec device_rtx5060ti() {
  DeviceSpec d;
  d.name = "RTX 5060Ti";
  d.memory_gib = 16;
  d.sm_count = 36;  // 4,608 cores / 128
  d.fp64_peak_tflops = 0.37;
  d.mem_bw_tbs = 0.45;
  d.shmem_per_sm_kib = 100;
  return d;
}

DeviceSpec device_rtx5090() {
  DeviceSpec d;
  d.name = "RTX 5090";
  d.memory_gib = 32;
  d.sm_count = 170;  // 21,760 cores / 128
  d.fp64_peak_tflops = 1.64;
  d.mem_bw_tbs = 1.79;
  d.shmem_per_sm_kib = 100;
  return d;
}

DeviceSpec device_a100() { return DeviceSpec{}; }

DeviceSpec device_h100() {
  DeviceSpec d;
  d.name = "H100 SXM";
  d.memory_gib = 80;
  d.sm_count = 132;
  d.fp64_peak_tflops = 25.61;
  d.mem_bw_tbs = 2.04;
  d.shmem_per_sm_kib = 228;
  return d;
}

DeviceSpec device_mi50() {
  DeviceSpec d;
  d.name = "MI50 PCIe";
  d.memory_gib = 16;
  d.sm_count = 60;  // compute units
  d.fp64_peak_tflops = 6.71;
  d.mem_bw_tbs = 1.02;
  d.shmem_per_sm_kib = 64;
  d.launch_latency_us = 5.0;  // ROCm launch path is costlier
  return d;
}

DeviceSpec device_by_name(const std::string& name) {
  std::string key = name;
  std::transform(key.begin(), key.end(), key.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (key == "5060ti" || key == "rtx5060ti") return device_rtx5060ti();
  if (key == "5090" || key == "rtx5090") return device_rtx5090();
  if (key == "a100") return device_a100();
  if (key == "h100") return device_h100();
  if (key == "mi50") return device_mi50();
  throw Error("unknown device: " + name);
}

CpuSpec cpu_xeon6462c() { return CpuSpec{}; }

KernelTiming KernelCostModel::batch_timing(
    const std::vector<TaskCost>& tasks) const {
  TH_CHECK_MSG(!tasks.empty(), "empty kernel batch");

  offset_t total_flops = 0;
  offset_t total_bytes = 0;
  real_t weighted_eff_flops = 0;  // flops weighted by per-task efficiency
  real_t max_block_seconds = 0;
  index_t total_blocks = 0;  // the kernel's grid: every task's CUDA blocks

  const offset_t resident = spec_.resident_blocks();
  TH_CHECK(resident > 0);
  // A single CUDA block can at best use one SM slot: its throughput share.
  const real_t per_block_gflops =
      spec_.fp64_peak_tflops * 1e3 / static_cast<real_t>(resident);

  for (const TaskCost& t : tasks) {
    // A zero-block task could never be reached by any CUDA block.
    TH_CHECK(t.cuda_blocks > 0);
    total_blocks += t.cuda_blocks;
    total_flops += t.flops;
    total_bytes += t.bytes;
    const real_t eff =
        t.sparse ? spec_.sparse_efficiency : spec_.dense_efficiency;
    weighted_eff_flops += static_cast<real_t>(t.flops) * eff;
    // The longest single block bounds the kernel from below: blocks within
    // one task execute its columns in parallel, but a column is sequential.
    const real_t block_flops =
        static_cast<real_t>(t.flops) / static_cast<real_t>(t.cuda_blocks);
    max_block_seconds =
        std::max(max_block_seconds,
                 block_flops / (per_block_gflops * eff * 1e9));
  }

  const real_t mean_eff =
      total_flops > 0 ? weighted_eff_flops / static_cast<real_t>(total_flops)
                      : spec_.dense_efficiency;

  // Occupancy: fraction of resident block slots this kernel fills,
  // clamped to 1 (an oversubscribed grid runs in waves).
  const real_t occupancy =
      std::min<real_t>(1.0, static_cast<real_t>(total_blocks) /
                                static_cast<real_t>(resident));

  const real_t compute_s =
      static_cast<real_t>(total_flops) /
      (spec_.fp64_peak_tflops * 1e12 * occupancy * mean_eff);
  const real_t memory_s =
      static_cast<real_t>(total_bytes) /
      (spec_.mem_bw_tbs * 1e12 * std::max<real_t>(occupancy, 0.25) *
       spec_.bandwidth_efficiency);

  KernelTiming t;
  t.exec_s = std::max({compute_s, memory_s, max_block_seconds});
  // Host-side costs: one launch per kernel plus per-task batch preparation
  // (the Collector computes every task's block count, shared-memory usage
  // and dispatch-table entry regardless of batching).
  t.host_s = spec_.launch_latency_us * 1e-6 +
             spec_.host_per_task_us * 1e-6 * static_cast<real_t>(tasks.size());
  return t;
}

real_t cpu_batch_seconds(const CpuSpec& cpu, const std::vector<TaskCost>& t) {
  TH_CHECK(!t.empty());
  offset_t total_flops = 0;
  offset_t total_bytes = 0;
  real_t max_task_seconds = 0;
  const real_t core_flops = cpu.per_core_gflops * 1e9 * cpu.efficiency;
  for (const TaskCost& c : t) {
    total_flops += c.flops;
    total_bytes += c.bytes;
    // One task runs on one core (task-parallel CPU solvers).
    max_task_seconds = std::max(
        max_task_seconds, static_cast<real_t>(c.flops) / core_flops);
  }
  const real_t compute_s =
      static_cast<real_t>(total_flops) /
      (core_flops * static_cast<real_t>(cpu.cores));
  const real_t memory_s =
      static_cast<real_t>(total_bytes) / (cpu.mem_bw_tbs * 1e12);
  const real_t overhead_s =
      cpu.task_overhead_us * 1e-6 * static_cast<real_t>(t.size());
  return std::max({compute_s, memory_s, max_task_seconds}) + overhead_s;
}

}  // namespace th
