// Batch-anatomy statistics tests (core/batch_stats).
#include <gtest/gtest.h>

#include "core/batch_stats.hpp"
#include "gen/generators.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"

namespace th {
namespace {

ScheduleOptions th_opts() {
  ScheduleOptions o;
  o.policy = Policy::kTrojanHorse;
  o.cluster = single_gpu(device_a100());
  o.validate_schedule = true;  // schedule invariants checked on every timeline
  return o;
}

TEST(BatchAnatomy, CountsAreConsistent) {
  const Csr a = finalize_system(grid2d_laplacian(16, 16), 7);
  InstanceOptions io;
  io.block = 12;
  SolverInstance inst(a, io);
  ScheduleOptions o = th_opts();
  o.collect_batches = true;
  const ScheduleResult r = inst.run_timing(o);
  const BatchAnatomy an = analyze_batches(inst.graph(), r);
  EXPECT_EQ(an.batches, r.kernel_count);
  EXPECT_EQ(an.tasks, inst.graph().size());
  EXPECT_GE(an.max_batch_size, 1);
  EXPECT_LE(an.mixed_type_batches, an.batches);
  offset_t by_type = 0;
  for (offset_t c : an.tasks_by_type) by_type += c;
  EXPECT_EQ(by_type, an.tasks);
  // A real factorisation schedule mixes types in at least some batches.
  EXPECT_GT(an.mixed_type_batches, 0);
}

TEST(BatchAnatomy, RequiresCollectedBatches) {
  const Csr a = finalize_system(grid2d_laplacian(8, 8), 2);
  InstanceOptions io;
  io.block = 8;
  SolverInstance inst(a, io);
  ScheduleOptions o = th_opts();
  o.validate_schedule = false;  // validate implies batch collection
  const ScheduleResult r = inst.run_timing(o);  // not collected
  EXPECT_THROW(analyze_batches(inst.graph(), r), Error);
}

TEST(BatchAnatomy, PerTaskPolicyHasNoMixedBatches) {
  const Csr a = finalize_system(grid2d_laplacian(10, 10), 4);
  InstanceOptions io;
  io.block = 10;
  SolverInstance inst(a, io);
  ScheduleOptions o = th_opts();
  o.policy = Policy::kPriorityPerTask;
  o.collect_batches = true;
  const ScheduleResult r = inst.run_timing(o);
  const BatchAnatomy an = analyze_batches(inst.graph(), r);
  EXPECT_EQ(an.mixed_type_batches, 0);
  EXPECT_EQ(an.max_batch_size, 1);
}

}  // namespace
}  // namespace th
