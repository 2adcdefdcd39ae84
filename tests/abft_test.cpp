// Tests of the ABFT layer (src/abft): checksum primitives, the
// detect-and-retry ladder through the scheduler (every silent-corruption
// kind, every kernel type), budget-exhaustion escalation to iterative
// refinement, and a seeded corruption soak that shrinks failing campaigns
// to 1-minimal `--faults` repro lines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "abft/checksum.hpp"
#include "gen/generators.hpp"
#include "resilience/chaos.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "solvers/refine.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"

namespace th {
namespace {

// ---- Checksum primitives -----------------------------------------------

Tile dense_square(index_t n, std::uint64_t seed) {
  Tile t(n, n);
  Rng rng(seed);
  for (index_t c = 0; c < n; ++c) {
    for (index_t r = 0; r < n; ++r) {
      t.insert(r, c, rng.uniform(-1.0, 1.0) + (r == c ? n : 0.0));
    }
  }
  t.freeze();
  t.densify();
  return t;
}

TEST(Checksum, RowColSumsOnBothStorages) {
  // 2x3 tile: [[1, 0, 2], [0, 3, 4]] — first as frozen CSC, then dense.
  Tile t(2, 3);
  t.insert(0, 0, 1.0);
  t.insert(1, 1, 3.0);
  t.insert(0, 2, 2.0);
  t.insert(1, 2, 4.0);
  t.freeze();
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<real_t> rs = abft::row_sums(t);
    const std::vector<real_t> cs = abft::col_sums(t);
    ASSERT_EQ(rs.size(), 2u);
    ASSERT_EQ(cs.size(), 3u);
    EXPECT_DOUBLE_EQ(rs[0], 3.0);
    EXPECT_DOUBLE_EQ(rs[1], 7.0);
    EXPECT_DOUBLE_EQ(cs[0], 1.0);
    EXPECT_DOUBLE_EQ(cs[1], 3.0);
    EXPECT_DOUBLE_EQ(cs[2], 6.0);
    t.densify();
  }
}

TEST(Checksum, MatchScalesToleranceAndRejectsNaN) {
  const std::vector<real_t> a = {1.0, 2.0, 3.0};
  EXPECT_TRUE(abft::checksums_match(a, a, 1e-12));
  std::vector<real_t> b = a;
  b[1] += 1e-9;
  EXPECT_TRUE(abft::checksums_match(a, b, 1e-8));
  EXPECT_FALSE(abft::checksums_match(a, b, 1e-11));
  // Tolerance is relative to the sums' magnitude, not absolute.
  const std::vector<real_t> big = {1e12, -1e12};
  std::vector<real_t> big2 = big;
  big2[0] += 1.0;
  EXPECT_TRUE(abft::checksums_match(big, big2, 1e-8));
  // NaN anywhere must never match (the comparison is written so the NaN
  // falls out of the <= and fails).
  std::vector<real_t> nan_v = a;
  nan_v[2] = std::numeric_limits<real_t>::quiet_NaN();
  EXPECT_FALSE(abft::checksums_match(a, nan_v, 1e-2));
  EXPECT_FALSE(abft::checksums_match(nan_v, a, 1e-2));
}

TEST(Checksum, GetrfInvariantHoldsThenBreaksUnderCorruption) {
  Tile t = dense_square(8, 99);
  const std::vector<real_t> pre_row = abft::row_sums(t);
  const std::vector<real_t> pre_col = abft::col_sums(t);
  tile_getrf(t);
  // L * (U * e) must reproduce A's row sums; (e^T * L) * U its col sums.
  const std::vector<real_t> lu_row =
      abft::unit_lower_matvec(t, abft::upper_row_sums(t));
  const std::vector<real_t> lu_col =
      abft::upper_vecmat(t, abft::unit_lower_col_sums(t));
  EXPECT_TRUE(abft::checksums_match(pre_row, lu_row, 1e-10));
  EXPECT_TRUE(abft::checksums_match(pre_col, lu_col, 1e-10));
  // One corrupted entry breaks both reconstructions.
  t.dense_data()[3 + 8 * 5] += 0.5;
  EXPECT_FALSE(abft::checksums_match(
      pre_row, abft::unit_lower_matvec(t, abft::upper_row_sums(t)), 1e-8));
}

TEST(AbftOptions, ValidateRejectsBadKnobs) {
  abft::AbftOptions opt;
  opt.validate();  // defaults are fine
  opt.rel_tol = 0;
  EXPECT_THROW(opt.validate(), Error);
  opt.rel_tol = 1e-8;
  opt.max_retries = -2;
  EXPECT_THROW(opt.validate(), Error);
}

// ---- End-to-end detect-and-retry through the scheduler ------------------

Csr abft_matrix() { return finalize_system(banded_random(240, 10, 0.35, 11), 11); }

ScheduleOptions abft_sched(bool abft) {
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  // Accumulation is deterministic: a rolled-back-and-retried run must
  // land on the clean run's residual to 1e-12, so fold order may not
  // wobble.
  so.exec.workers = 3;
  so.abft.enabled = abft;
  so.validate_schedule = true;  // exercises the status-3 bookkeeping checks
  return so;
}

real_t residual_of(SolverInstance& inst, const Csr& a) {
  const std::vector<real_t> b(static_cast<std::size_t>(a.n_rows), 1.0);
  const std::vector<real_t> x = inst.solve(b);
  return scaled_residual(a, x, b);
}

real_t clean_residual(const Csr& a) {
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  inst.run_numeric(abft_sched(false));
  return residual_of(inst, a);
}

index_t last_task_of(const TaskGraph& g, TaskType ty) {
  index_t found = -1;
  for (index_t id = 0; id < g.size(); ++id) {
    if (g.task(id).type == ty) found = id;
  }
  return found;
}

TEST(AbftEndToEnd, CleanRunVerifiesEveryTaskFlagsNothing) {
  const Csr a = abft_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  const ScheduleResult r = inst.run_numeric(abft_sched(true));
  EXPECT_TRUE(r.stats().abft.enabled);
  EXPECT_EQ(r.stats().abft.tasks_verified,
            static_cast<offset_t>(inst.graph().size()));
  EXPECT_EQ(r.stats().abft.corrupt_detected, 0);
  EXPECT_EQ(r.stats().abft.retries, 0);
  EXPECT_EQ(r.stats().abft.exhausted, 0);
  EXPECT_GT(r.stats().abft.capture_s + r.stats().abft.verify_s, 0);
  EXPECT_LT(residual_of(inst, a), 1e-10);
}

TEST(AbftEndToEnd, DetectsAndRetriesOnEveryKernelType) {
  const Csr a = abft_matrix();
  const real_t res_clean = clean_residual(a);
  const TaskType kinds[] = {TaskType::kGetrf, TaskType::kTstrf,
                            TaskType::kGeesm, TaskType::kSsssm};
  for (const TaskType ty : kinds) {
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = 16;
    SolverInstance inst(a, io);
    const index_t victim = last_task_of(inst.graph(), ty);
    ASSERT_GE(victim, 0) << "graph has no task of this type";
    ScheduleOptions so = abft_sched(true);
    NumericFault nf;
    nf.task_id = victim;
    nf.kind = NumericFaultKind::kBitFlip;
    so.faults.numeric_faults.push_back(nf);
    const ScheduleResult r = inst.run_numeric(so);
    EXPECT_EQ(r.stats().abft.silent_injected, 1) << "type " << static_cast<int>(ty);
    EXPECT_GE(r.stats().abft.corrupt_detected, 1) << "type " << static_cast<int>(ty);
    EXPECT_GE(r.stats().abft.retries, 1) << "type " << static_cast<int>(ty);
    EXPECT_EQ(r.stats().abft.exhausted, 0);
    EXPECT_FALSE(r.stats().faults.escalate_refinement);
    EXPECT_TRUE(r.stats().faults.fully_accounted());
    // The retried factorisation is the clean one: rollback restored the
    // pre-batch tile and the re-run saw identical inputs.
    EXPECT_NEAR(residual_of(inst, a), res_clean, 1e-12)
        << "type " << static_cast<int>(ty);
  }
}

TEST(AbftEndToEnd, DetectsEverySilentKind) {
  const Csr a = abft_matrix();
  const real_t res_clean = clean_residual(a);
  const NumericFaultKind kinds[] = {NumericFaultKind::kBitFlip,
                                    NumericFaultKind::kScaledEntry,
                                    NumericFaultKind::kSilentNaN};
  for (const NumericFaultKind kind : kinds) {
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = 16;
    SolverInstance inst(a, io);
    ScheduleOptions so = abft_sched(true);
    NumericFault nf;
    nf.task_id = last_task_of(inst.graph(), TaskType::kSsssm);
    nf.kind = kind;
    so.faults.numeric_faults.push_back(nf);
    const ScheduleResult r = inst.run_numeric(so);
    EXPECT_EQ(r.stats().abft.silent_injected, 1) << numeric_fault_name(kind);
    EXPECT_GE(r.stats().abft.corrupt_detected, 1) << numeric_fault_name(kind);
    EXPECT_GE(r.stats().abft.retries, 1) << numeric_fault_name(kind);
    EXPECT_EQ(r.stats().abft.exhausted, 0);
    EXPECT_NEAR(residual_of(inst, a), res_clean, 1e-12)
        << numeric_fault_name(kind);
  }
}

TEST(AbftEndToEnd, TwoCorruptionsOnOneTaskLandOnSeparateAttempts) {
  // Two silent corruptions of one task: planting both on one attempt would
  // give them one verdict (two bit flips even cancel out) and leave the
  // fault ledger short. Each must land on its own attempt, be detected and
  // be retried; validate_schedule checks the ledger balances.
  const Csr a = abft_matrix();
  const real_t res_clean = clean_residual(a);
  const NumericFaultKind plans[][2] = {
      {NumericFaultKind::kBitFlip, NumericFaultKind::kScaledEntry},
      {NumericFaultKind::kBitFlip, NumericFaultKind::kBitFlip}};
  for (const auto& kinds : plans) {
    InstanceOptions io;
    io.core = SolverCore::kPlu;
    io.block = 16;
    SolverInstance inst(a, io);
    ScheduleOptions so = abft_sched(true);
    for (const NumericFaultKind kind : kinds) {
      NumericFault nf;
      nf.task_id = last_task_of(inst.graph(), TaskType::kSsssm);
      nf.kind = kind;
      so.faults.numeric_faults.push_back(nf);
    }
    const ScheduleResult r = inst.run_numeric(so);
    const std::string plan = numeric_fault_name(kinds[1]);
    EXPECT_EQ(r.stats().abft.silent_injected, 2) << plan;
    EXPECT_EQ(r.stats().abft.corrupt_detected, 2) << plan;
    EXPECT_EQ(r.stats().abft.retries, 2) << plan;
    EXPECT_TRUE(r.stats().faults.fully_accounted()) << plan;
    EXPECT_NEAR(residual_of(inst, a), res_clean, 1e-12) << plan;
  }
}

TEST(AbftEndToEnd, BudgetExhaustionEscalatesToRefinement) {
  const Csr a = abft_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  ScheduleOptions so = abft_sched(true);
  so.abft.max_retries = 0;  // zero budget: first detection is terminal
  NumericFault nf;
  nf.task_id = last_task_of(inst.graph(), TaskType::kSsssm);
  nf.kind = NumericFaultKind::kScaledEntry;  // finite corruption
  so.faults.numeric_faults.push_back(nf);
  const ScheduleResult r = inst.run_numeric(so);
  EXPECT_GE(r.stats().abft.corrupt_detected, 1);
  EXPECT_EQ(r.stats().abft.retries, 0);
  EXPECT_GE(r.stats().abft.exhausted, 1);
  EXPECT_TRUE(r.stats().faults.escalate_refinement);
  EXPECT_TRUE(r.stats().faults.fully_accounted());
  // The driver's escalation path: the corrupt factors were accepted, so
  // refinement must actually run against the original matrix.
  const std::vector<real_t> b(static_cast<std::size_t>(a.n_rows), 1.0);
  RefineOptions ro;
  ro.max_iterations = 6;
  const RefineReport rr = iterative_refinement(inst, b, ro);
  EXPECT_GE(rr.iterations(), 1);
}

TEST(AbftEndToEnd, SilentFaultsWithAbftOffAreFatal) {
  const Csr a = abft_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  ScheduleOptions so = abft_sched(false);
  NumericFault nf;
  // Corrupt the final task of the graph: a finite scaled entry there has no
  // downstream kernel to crash (a NaN planted mid-graph would trip a zero-
  // pivot check later, which is detection by accident, not by ABFT).
  nf.task_id = static_cast<int>(inst.graph().size()) - 1;
  nf.kind = NumericFaultKind::kScaledEntry;
  so.faults.numeric_faults.push_back(nf);
  const ScheduleResult r = inst.run_numeric(so);
  EXPECT_FALSE(r.stats().abft.enabled);
  EXPECT_EQ(r.stats().abft.corrupt_detected, 0);
  EXPECT_EQ(r.stats().faults.fatal_faults, 1);  // undetectable by construction
  EXPECT_TRUE(r.stats().faults.fully_accounted());
}

// ---- Seeded corruption soak --------------------------------------------

struct SoakOutcome {
  bool ok = true;
  std::string why;
};

SoakOutcome run_corruption_scenario(const Csr& a, const FaultPlan& plan,
                                    real_t res_clean) {
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  ScheduleOptions so = abft_sched(true);
  so.faults = plan;
  SoakOutcome out;
  auto fail = [&](const std::string& why) {
    out.ok = false;
    if (!out.why.empty()) out.why += "; ";
    out.why += why;
  };
  try {
    const ScheduleResult r = inst.run_numeric(so);
    const offset_t injected =
        static_cast<offset_t>(plan.numeric_faults.size());
    if (r.stats().abft.silent_injected != injected) fail("injection count mismatch");
    if (r.stats().abft.corrupt_detected < r.stats().abft.silent_injected) {
      fail("corruption escaped detection");
    }
    if (r.stats().abft.retries != r.stats().abft.corrupt_detected) {
      fail("a detected task was not retried");
    }
    if (r.stats().abft.exhausted != 0) fail("retry budget unexpectedly spent");
    if (!r.stats().faults.fully_accounted()) fail("fault accounting does not close");
    const real_t res = residual_of(inst, a);
    if (!(std::abs(res - res_clean) <= 1e-12)) {
      fail("residual differs from the clean run");
    }
  } catch (const std::exception& e) {
    fail(std::string("threw: ") + e.what());
  }
  return out;
}

TEST(CorruptionSoak, SeededCampaignsDetectRetryAndMatchCleanResidual) {
  std::uint64_t seed = 20260805;
  if (const char* env = std::getenv("TH_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  const Csr a = abft_matrix();
  const real_t res_clean = clean_residual(a);
  // Graph shape is identical across instances of the same matrix; borrow
  // one instance's graph to draw the campaigns.
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  const SolverInstance shape(a, io);

  const int scenarios = 6;
  for (int sc = 0; sc < scenarios; ++sc) {
    const FaultPlan plan =
        random_corruption_plan(seed + static_cast<std::uint64_t>(sc),
                               shape.graph(), 4);
    const SoakOutcome out = run_corruption_scenario(a, plan, res_clean);
    if (out.ok) continue;
    // Shrink to a 1-minimal failing plan and report a paste-ready repro.
    const FaultPlan minimal = shrink_fault_plan(
        plan,
        [&](const FaultPlan& p) {
          return !run_corruption_scenario(a, p, res_clean).ok;
        },
        60);
    ADD_FAILURE() << "seed " << (seed + static_cast<std::uint64_t>(sc))
                  << ": " << out.why << "\n  repro: thsolve_cli --gen banded "
                  << "--n 240 --block 16 --threads 3 --abft "
                  << "--validate --faults " << fault_plan_spec(minimal);
  }
}

// ---- Corruption-plan / spec plumbing -----------------------------------

TEST(CorruptionPlan, DrawsOnlySilentKindsAndRendersSpec) {
  const Csr a = abft_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  const SolverInstance inst(a, io);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FaultPlan plan = random_corruption_plan(seed, inst.graph(), 5);
    ASSERT_GE(plan.numeric_faults.size(), 1u);
    ASSERT_LE(plan.numeric_faults.size(), 5u);
    EXPECT_FALSE(plan.numeric_guards);
    EXPECT_FALSE(plan.has_transient());
    EXPECT_TRUE(plan.rank_failures.empty());
    for (const NumericFault& nf : plan.numeric_faults) {
      EXPECT_TRUE(silent_fault_kind(nf.kind));
      EXPECT_GE(nf.task_id, 0);
      EXPECT_LT(nf.task_id, inst.graph().size());
      const std::string spec = fault_plan_spec(plan);
      EXPECT_NE(spec.find(numeric_fault_name(nf.kind)), std::string::npos);
    }
  }
}

TEST(CorruptionPlan, GenericShrinkFindsTheOneGuiltyFault) {
  FaultPlan plan;
  for (index_t id = 3; id <= 9; id += 3) {
    NumericFault nf;
    nf.task_id = id;
    nf.kind = NumericFaultKind::kBitFlip;
    plan.numeric_faults.push_back(nf);
  }
  plan.set_transient_all(0.01);  // removable noise
  const FaultPlan minimal = shrink_fault_plan(plan, [](const FaultPlan& p) {
    for (const NumericFault& nf : p.numeric_faults) {
      if (nf.task_id == 6) return true;  // "fails" iff fault 6 survives
    }
    return false;
  });
  ASSERT_EQ(minimal.numeric_faults.size(), 1u);
  EXPECT_EQ(minimal.numeric_faults[0].task_id, 6);
  EXPECT_FALSE(minimal.has_transient());
}

}  // namespace
}  // namespace th
