// Schedule-quality integration tests over the paper-matrix registry:
// the Trojan Horse must beat every per-task baseline on every registry
// matrix and device, the headline orderings of the paper's figures must
// hold, and the schedules must respect physical lower bounds. These are
// timing-only replays (numerics are covered elsewhere), so the whole
// registry is affordable.
#include <gtest/gtest.h>

#include "gen/registry.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"

namespace th {
namespace {

struct RegistryCase {
  const char* name;
  SolverCore core;
};

std::string case_name(const testing::TestParamInfo<RegistryCase>& info) {
  std::string s = info.param.name;
  s += "_";
  s += solver_core_name(info.param.core);
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

SolverInstance make_instance(const RegistryCase& c) {
  InstanceOptions io;
  io.core = c.core;
  io.block = c.core == SolverCore::kPlu ? 96 : 32;
  return SolverInstance(paper_matrix(c.name).make(), io);
}

class RegistrySchedule : public testing::TestWithParam<RegistryCase> {};

TEST_P(RegistrySchedule, TrojanHorseBeatsAllPerTaskBaselines) {
  SolverInstance inst = make_instance(GetParam());
  ScheduleOptions o;
  o.cluster = single_gpu(device_a100());
  o.policy = Policy::kTrojanHorse;
  const real_t th = inst.run_timing(o).makespan_s;
  for (Policy p : {Policy::kLevelPerTask, Policy::kPriorityPerTask,
                   Policy::kMultiStream, Policy::kDmdas}) {
    o.policy = p;
    EXPECT_GT(inst.run_timing(o).makespan_s, th) << policy_name(p);
  }
}

TEST_P(RegistrySchedule, MakespanRespectsWorkAndCriticalPathBounds) {
  SolverInstance inst = make_instance(GetParam());
  ScheduleOptions o;
  o.policy = Policy::kTrojanHorse;
  o.cluster = single_gpu(device_a100());
  const ScheduleResult r = inst.run_timing(o);
  const DeviceSpec& d = o.cluster.gpu;
  // Aggregate work cannot run faster than peak.
  const real_t work_bound =
      static_cast<real_t>(inst.graph().total_flops()) /
      (d.fp64_peak_tflops * 1e12);
  EXPECT_GE(r.makespan_s * 1.0001, work_bound);
  // Nor faster than the dependency critical path at peak single-block rate.
  const real_t cp_bound =
      static_cast<real_t>(inst.graph().critical_path_flops()) /
      (d.fp64_peak_tflops * 1e12);
  EXPECT_GE(r.makespan_s, cp_bound);
  // Achieved GFLOPS never exceeds the device's peak.
  EXPECT_LE(r.achieved_gflops(), d.fp64_peak_tflops * 1e3);
}

TEST_P(RegistrySchedule, ScaleOutMonotoneOnH100) {
  SolverInstance inst = make_instance(GetParam());
  ScheduleOptions o;
  o.policy = Policy::kTrojanHorse;
  o.cluster = cluster_h100();
  real_t prev = 1e300;
  for (int ranks : {1, 4, 16}) {
    inst.set_grid(make_process_grid(ranks));
    o.n_ranks = ranks;
    const real_t t = inst.run_timing(o).makespan_s;
    // Strong scaling should not regress by more than comm slack (20%).
    EXPECT_LT(t, prev * 1.2) << ranks << " ranks";
    prev = t;
  }
}

const RegistryCase kRegistryCases[] = {
    {"c-71", SolverCore::kSlu},    {"c-71", SolverCore::kPlu},
    {"cage12", SolverCore::kSlu},  {"cage12", SolverCore::kPlu},
    {"para-8", SolverCore::kPlu},  {"Lin", SolverCore::kSlu},
    {"Lin", SolverCore::kPlu},     {"audikw_1", SolverCore::kSlu},
    {"audikw_1", SolverCore::kPlu}, {"Serena", SolverCore::kPlu}};

INSTANTIATE_TEST_SUITE_P(Registry, RegistrySchedule,
                         testing::ValuesIn(kRegistryCases), case_name);

// 5060Ti makespan over 5090 makespan under policy p.
real_t faster_gpu_gain(const SolverInstance& inst, Policy p) {
  ScheduleOptions o;
  o.policy = p;
  o.cluster = single_gpu(device_rtx5060ti());
  const real_t slow = inst.run_timing(o).makespan_s;
  o.cluster = single_gpu(device_rtx5090());
  return slow / inst.run_timing(o).makespan_s;
}

class RegistryFigure9 : public RegistrySchedule {};

TEST_P(RegistryFigure9, FasterGpuHelpsMoreWithTrojanHorse) {
  // The Figure 9 amplification: 5090/5060Ti gain is larger with TH than
  // without (or at worst equal).
  const SolverInstance inst = make_instance(GetParam());
  EXPECT_GE(faster_gpu_gain(inst, Policy::kTrojanHorse) * 1.05,
            faster_gpu_gain(inst, Policy::kPriorityPerTask));
}

std::vector<RegistryCase> figure9_cases() {
  std::vector<RegistryCase> cases;
  for (const RegistryCase& c : kRegistryCases) {
    if (std::string(c.name) != "para-8") cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Registry, RegistryFigure9,
                         testing::ValuesIn(figure9_cases()), case_name);

TEST(Figure9, Para8PluIsLatencyBound) {
  // Why para-8 PLU is out of the Figure 9 assertion: under AMD its banded
  // stand-in's PLU DAG at b = 96 has 448 tasks and 4.4e7 flops, 56% of them
  // on the critical path, and TH's 5060Ti makespan is about 11x its work
  // bound. Most TH kernels are then set by the single-block bound (75 of 93
  // on the 5060Ti, 83 of 85 on the 5090), and the per-block FP64 rate, peak
  // over resident blocks, is 0.60 GF/s on the 5090 against 0.64 GF/s on the
  // 5060Ti. The per-task baseline's lone kernels are more often memory-bound
  // and gain from the 5090's bandwidth. The pins show when that changes.
  const SolverInstance inst = make_instance({"para-8", SolverCore::kPlu});
  const TaskGraph& g = inst.graph();
  const real_t cp_share = static_cast<real_t>(g.critical_path_flops()) /
                          static_cast<real_t>(g.total_flops());
  EXPECT_NEAR(cp_share, 0.563, 0.02 * 0.563);
  EXPECT_NEAR(faster_gpu_gain(inst, Policy::kTrojanHorse), 1.054,
              0.02 * 1.054);
  EXPECT_NEAR(faster_gpu_gain(inst, Policy::kPriorityPerTask), 1.158,
              0.02 * 1.158);
}

TEST(ScheduleQuality, KernelCountReductionOrdersLikeThePaper) {
  // Table 5/6 shape: SLU's reduction rate is far below PLU's.
  auto rate = [&](SolverCore core, Policy base) {
    InstanceOptions io;
    io.core = core;
    io.block = core == SolverCore::kPlu ? 96 : 32;
    SolverInstance inst(paper_matrix("cage12").make(), io);
    ScheduleOptions o;
    o.cluster = single_gpu(device_a100());
    o.policy = base;
    const auto b = inst.run_timing(o).kernel_count;
    o.policy = Policy::kTrojanHorse;
    const auto t = inst.run_timing(o).kernel_count;
    return static_cast<real_t>(t) / static_cast<real_t>(b);
  };
  const real_t slu = rate(SolverCore::kSlu, Policy::kLevelPerTask);
  const real_t plu = rate(SolverCore::kPlu, Policy::kPriorityPerTask);
  EXPECT_LT(slu, 0.05);
  EXPECT_LT(plu, 0.25);
  EXPECT_LT(slu, plu);
}

}  // namespace
}  // namespace th
