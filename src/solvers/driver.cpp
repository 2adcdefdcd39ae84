#include "solvers/driver.hpp"

#include "obs/obs.hpp"
#include "solvers/refine.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace th {

const char* solver_core_name(SolverCore c) {
  switch (c) {
    case SolverCore::kSlu:
      return "SLU";
    case SolverCore::kPlu:
      return "PLU";
  }
  return "?";
}

SolverInstance::SolverInstance(const Csr& a, const InstanceOptions& opts)
    : opts_(opts), a_(a) {
  TH_CHECK_MSG(a.n_rows == a.n_cols, "solver requires a square matrix");

  Stopwatch sw;
  if (opts.preordered.has_value()) {
    perm_ = *opts.preordered;
    TH_CHECK_MSG(is_valid_permutation(perm_) &&
                     static_cast<index_t>(perm_.size()) == a.n_rows,
                 "preordered permutation does not match the matrix");
  } else {
    perm_ = compute_ordering(a_, opts.ordering);
  }
  reorder_s_ = sw.seconds();

  sw.reset();
  perm_a_ = apply_symmetric_permutation(a_, perm_);
  if (opts.core == SolverCore::kPlu) {
    PluOptions po;
    if (opts.block > 0) po.tile_size = opts.block;
    po.grid = opts.grid;
    plu_ = std::make_unique<PluFactorization>(perm_a_, po);
  } else {
    SluOptions so;
    if (opts.block > 0) so.max_supernode = opts.block;
    so.grid = opts.grid;
    slu_ = std::make_unique<SluFactorization>(perm_a_, so);
  }
  symbolic_s_ = sw.seconds();
}

SolverInstance::SolverInstance(const Csr& a, const InstanceOptions& opts,
                               const SolverInstance& donor)
    : opts_(opts), a_(a) {
  TH_CHECK_MSG(a.n_rows == a.n_cols, "solver requires a square matrix");
  TH_CHECK_MSG(donor.plu_ != nullptr,
               "symbolic reuse requires a PLU-core donor");
  TH_CHECK_MSG(a.n_rows == donor.a_.n_rows,
               "symbolic donor dimension mismatch: n=" << a.n_rows << " vs "
                                                       << donor.a_.n_rows);
  // The permutation is a pure function of the sparsity structure; reuse
  // the donor's instead of recomputing the ordering.
  perm_ = donor.perm_;
  reorder_s_ = 0;

  Stopwatch sw;
  perm_a_ = apply_symmetric_permutation(a_, perm_);
  // Same-structure check (O(nnz) pointer compares, no symbolic work): the
  // donor's DAG and tile pattern are only valid for this exact structure.
  // A hash collision in a caller's pattern cache must fail loudly here,
  // not as silent numeric corruption.
  TH_CHECK_MSG(perm_a_.row_ptr == donor.perm_a_.row_ptr &&
                   perm_a_.col_idx == donor.perm_a_.col_idx,
               "symbolic donor structure mismatch: the matrix does not have "
               "the donor's sparsity pattern");
  PluOptions po;
  if (opts.block > 0) po.tile_size = opts.block;
  po.grid = opts.grid;
  plu_ = std::make_unique<PluFactorization>(perm_a_, po, *donor.plu_);
  symbolic_s_ = sw.seconds();  // numeric assembly only — no symbolic pass
}

const TaskGraph& SolverInstance::graph() const {
  return plu_ ? plu_->graph() : slu_->graph();
}

offset_t SolverInstance::nnz_lu() const {
  if (plu_) {
    // Before the numeric phase the tiles only hold A's entries; report the
    // symbolic estimate instead (exact counts exist once numerics ran).
    return numeric_done_ ? plu_->nnz_lu()
                         : estimate_tile_nnz_lu(plu_->pattern());
  }
  return slu_->nnz_lu();
}

void SolverInstance::set_grid(const ProcessGrid& grid) {
  plu_ ? plu_->set_grid(grid) : slu_->set_grid(grid);
}

ScheduleResult SolverInstance::run_numeric(const ScheduleOptions& opt) {
  return run_numeric(opt, SchedulePlan{});  // not replayable: the live path
}

ScheduleResult SolverInstance::run_numeric(const ScheduleOptions& opt,
                                           const SchedulePlan& plan) {
  TH_CHECK_MSG(!numeric_done_,
               "run_numeric() may be called once per SolverInstance");
  NumericBackend* backend = plu_ ? &plu_->backend() : &slu_->backend();
  ScheduleResult r = replay(graph(), plan, opt, backend);
  numeric_done_ = true;
  return r;
}

ScheduleResult SolverInstance::run_timing(const ScheduleOptions& opt) const {
  return simulate(graph(), opt, nullptr);
}

SchedulePlan SolverInstance::record_plan(const ScheduleOptions& opt) const {
  SchedulePlan plan;
  simulate(graph(), opt, nullptr, &plan);
  return plan;
}

void SolverInstance::restore_numeric_done() {
  TH_CHECK_MSG(!numeric_done_,
               "restore_numeric_done() after numerics already ran");
  TH_CHECK_MSG(plu_ != nullptr,
               "restore_numeric_done() needs the PLU core (factor "
               "artifacts are tile-granular)");
  numeric_done_ = true;
}

std::vector<real_t> SolverInstance::solve(const std::vector<real_t>& b) const {
  TH_CHECK_MSG(numeric_done_, "solve() before numeric factorisation");
  // We factored P A P^T; solve P A P^T z = P b, then x = P^T z.
  const std::vector<real_t> pb = apply_permutation(b, perm_);
  const std::vector<real_t> z = plu_ ? plu_->solve(pb) : slu_->solve(pb);
  return apply_inverse_permutation(z, perm_);
}

DriverReport run_solver(const Csr& a, const DriverOptions& opt) {
  SolverInstance inst(a, opt.instance);

  DriverReport rep;
  rep.n = a.n_rows;
  rep.nnz = a.nnz();
  rep.reorder_s = inst.reorder_seconds();
  rep.symbolic_s = inst.symbolic_seconds();
  rep.task_count = inst.graph().size();
  rep.dag_levels = inst.graph().level_count();
  rep.numeric = inst.run_numeric(opt.sched);
  rep.nnz_lu = inst.nnz_lu();

  if (!opt.sched.faults.empty()) {
    // Price the fault-free baseline so the report can state the makespan
    // overhead the faults cost (timing-only replay, numerics untouched).
    ScheduleOptions clean = opt.sched;
    clean.faults = FaultPlan{};
    clean.checkpoint = CheckpointPolicy{};  // no write pauses in the baseline
    clean.resume.reset();
    // ABFT is already inert on timing-only replays (no backend to verify);
    // disable it explicitly so the baseline never depends on that detail.
    clean.abft = abft::AbftOptions{};
    // The baseline replay is an internal pricing detail: keep it out of the
    // metrics registry and the event recorder (it would double every
    // th.sched.* counter and interleave a second run's spans).
    const obs::ScopedDisable no_obs;
    rep.numeric.stats().faults.fault_free_makespan_s =
        inst.run_timing(clean).makespan_s;
  }

  if (opt.check_residual) {
    Rng rng(opt.rhs_seed);
    std::vector<real_t> x_true(static_cast<std::size_t>(a.n_rows));
    for (real_t& v : x_true) v = rng.uniform(-1.0, 1.0);
    const std::vector<real_t> b = spmv(a, x_true);
    if (rep.numeric.stats().faults.escalate_refinement) {
      // The factorisation is approximate: either the guards repaired the
      // factors in place (scrubbed NaN/Inf, perturbed tiny pivots) or ABFT
      // exhausted its retry budget and accepted a corrupt tile — polish the
      // solution with iterative refinement against the original matrix.
      RefineOptions ro;
      ro.max_iterations = opt.refine_max_iterations;
      ro.tolerance = opt.refine_tolerance;
      const RefineReport rr = iterative_refinement(inst, b, ro);
      rep.residual = rr.final_residual();
      rep.refine_iterations = rr.iterations();
    } else {
      const std::vector<real_t> x = inst.solve(b);
      rep.residual = scaled_residual(a, x, b);
    }
  }
  return rep;
}

}  // namespace th
