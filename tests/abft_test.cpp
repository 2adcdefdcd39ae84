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
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
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
      t.data()[r + c * t.ld()] =
          rng.uniform(-1.0, 1.0) + (r == c ? n : 0.0);
    }
  }
  return t;
}

TEST(Checksum, RowColSums) {
  // 2x3 tile: [[1, 0, 2], [0, 3, 4]].
  Tile t(2, 3);
  real_t* d = t.data();
  d[0 + 0 * 2] = 1.0;
  d[1 + 1 * 2] = 3.0;
  d[0 + 2 * 2] = 2.0;
  d[1 + 2 * 2] = 4.0;
  const std::vector<real_t> rs = abft::row_sums(t);
  const std::vector<real_t> cs = abft::col_sums(t);
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_DOUBLE_EQ(rs[0], 3.0);
  EXPECT_DOUBLE_EQ(rs[1], 7.0);
  EXPECT_DOUBLE_EQ(cs[0], 1.0);
  EXPECT_DOUBLE_EQ(cs[1], 3.0);
  EXPECT_DOUBLE_EQ(cs[2], 6.0);
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
  t.data()[3 + 8 * 5] += 0.5;
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
    // Capture, run and verify share each target's lane, so the width must
    // not change what is detected: 1 and 4 lanes count alike.
    std::vector<abft::AbftStats> by_width;
    for (const int lanes : {1, 4}) {
      InstanceOptions io;
      io.core = SolverCore::kPlu;
      io.block = 16;
      SolverInstance inst(a, io);
      const index_t victim = last_task_of(inst.graph(), ty);
      ASSERT_GE(victim, 0) << "graph has no task of this type";
      ScheduleOptions so = abft_sched(true);
      so.exec.workers = lanes;
      NumericFault nf;
      nf.task_id = victim;
      nf.kind = NumericFaultKind::kBitFlip;
      so.faults.numeric_faults.push_back(nf);
      const ScheduleResult r = inst.run_numeric(so);
      const std::string at = "type " + std::to_string(static_cast<int>(ty)) +
                             " at " + std::to_string(lanes) + " lanes";
      EXPECT_EQ(r.stats().abft.silent_injected, 1) << at;
      EXPECT_GE(r.stats().abft.corrupt_detected, 1) << at;
      EXPECT_GE(r.stats().abft.retries, 1) << at;
      EXPECT_EQ(r.stats().abft.exhausted, 0) << at;
      EXPECT_FALSE(r.stats().faults.escalate_refinement) << at;
      EXPECT_TRUE(r.stats().faults.fully_accounted()) << at;
      // The retried factorisation is the clean one: rollback restored the
      // pre-batch tile and the re-run saw identical inputs.
      EXPECT_NEAR(residual_of(inst, a), res_clean, 1e-12) << at;
      by_width.push_back(r.stats().abft);
    }
    const abft::AbftStats& w1 = by_width[0];
    const abft::AbftStats& w4 = by_width[1];
    EXPECT_EQ(w1.tasks_verified, w4.tasks_verified);
    EXPECT_EQ(w1.corrupt_detected, w4.corrupt_detected);
    EXPECT_EQ(w1.retries, w4.retries);
    EXPECT_EQ(w1.exhausted, w4.exhausted);
    EXPECT_EQ(w1.silent_injected, w4.silent_injected);
  }
}

/// The first task of type `ty` (TSTRF or GEESM) whose output tile is an
/// operand of some SSSSM: L(i,k) for TSTRF, U(k,j) for GEESM.
index_t first_operand_producer(const TaskGraph& g, TaskType ty) {
  for (index_t id = 0; id < g.size(); ++id) {
    const Task& p = g.task(id);
    if (p.type != ty) continue;
    for (index_t c = 0; c < g.size(); ++c) {
      const Task& s = g.task(c);
      if (s.type != TaskType::kSsssm) continue;
      const bool reads = ty == TaskType::kTstrf
                             ? s.row == p.row && s.k == p.col
                             : s.k == p.row && s.col == p.col;
      if (reads) return id;
    }
  }
  return -1;
}

TEST(AbftEndToEnd, OperandSumBankFollowsTheOperandsVerdict) {
  // A clean TSTRF/GEESM banks the operand sums its SSSSM consumers fold.
  // Corrupt an early one whose output feeds SSSSM members: retried, the
  // consumers must see the re-run tile's sums; accepted (zero budget),
  // there are no banked sums and the consumers must sum the corrupt tile
  // themselves — stale or missing sums would flag them falsely.
  const Csr a = abft_matrix();
  const real_t res_clean = clean_residual(a);
  for (const TaskType ty : {TaskType::kTstrf, TaskType::kGeesm}) {
    for (const int budget : {-1, 0}) {
      InstanceOptions io;
      io.core = SolverCore::kPlu;
      io.block = 16;
      SolverInstance inst(a, io);
      const index_t victim = first_operand_producer(inst.graph(), ty);
      ASSERT_GE(victim, 0) << "no SSSSM operand of this type";
      ScheduleOptions so = abft_sched(true);
      so.abft.max_retries = budget;
      NumericFault nf;
      nf.task_id = victim;
      nf.kind = NumericFaultKind::kBitFlip;
      so.faults.numeric_faults.push_back(nf);
      const ScheduleResult r = inst.run_numeric(so);
      const std::string at = "type " + std::to_string(static_cast<int>(ty)) +
                             " budget " + std::to_string(budget);
      EXPECT_EQ(r.stats().abft.silent_injected, 1) << at;
      EXPECT_EQ(r.stats().abft.corrupt_detected, 1) << at;
      EXPECT_TRUE(r.stats().faults.fully_accounted()) << at;
      if (budget != 0) {
        EXPECT_EQ(r.stats().abft.retries, 1) << at;
        EXPECT_EQ(r.stats().abft.exhausted, 0) << at;
        EXPECT_NEAR(residual_of(inst, a), res_clean, 1e-12) << at;
      } else {
        EXPECT_EQ(r.stats().abft.retries, 0) << at;
        EXPECT_EQ(r.stats().abft.exhausted, 1) << at;
        EXPECT_TRUE(r.stats().faults.escalate_refinement) << at;
      }
    }
  }
}

TEST(AbftEndToEnd, EachBatchIsOneForkJoin) {
  // Capture and verify ride the kernels' fork-join: an observed run
  // records one "exec tasks" span per lane per batch and no separate
  // capture or verify spans.
  const Csr a = abft_matrix();
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  const obs::Session session(true);
  obs::Recorder& rec = obs::Recorder::global();
  SolverInstance inst(a, io);
  ScheduleOptions so = abft_sched(true);
  so.exec.workers = 4;
  const ScheduleResult r = inst.run_numeric(so);
  ASSERT_EQ(rec.dropped(), 0u);
  offset_t lane_spans = 0;
  offset_t abft_spans = 0;
  for (const obs::Event& e : rec.events()) {
    const std::string name = e.name;
    if (name == "exec tasks") ++lane_spans;
    if (name == "abft capture" || name == "abft verify") ++abft_spans;
  }
  EXPECT_GT(r.stats().abft.tasks_verified, 0);
  EXPECT_EQ(lane_spans, static_cast<offset_t>(r.stats().exec.batches) * 4);
  EXPECT_EQ(abft_spans, 0);
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
