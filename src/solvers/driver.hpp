// Solver driver: the user-facing entry point.
//
// Wraps the full pipeline of Figure 1 — reordering, symbolic analysis,
// numeric factorisation (simulated on the modelled GPU/cluster, numerics
// executed on host), then triangular solve and residual check — for either
// solver core, under any scheduling policy.
//
// A SolverInstance can also be kept alive to replay *timing-only*
// simulations under different policies/rank counts/devices without
// re-running numerics — that is how the benchmark sweeps evaluate many
// solver variants per matrix cheaply.
#pragma once

#include <memory>
#include <optional>

#include "core/scheduler.hpp"
#include "order/reorder.hpp"
#include "solvers/plu.hpp"
#include "solvers/slu.hpp"

namespace th {

enum class SolverCore { kSlu, kPlu };

const char* solver_core_name(SolverCore c);

struct InstanceOptions {
  SolverCore core = SolverCore::kPlu;
  Ordering ordering = Ordering::kMinDegree;
  /// Tile size (PLU) or max supernode width (SLU); 0 = core default.
  index_t block = 0;
  ProcessGrid grid;  // initial block-cyclic ownership
  /// Reuse a precomputed fill-reducing permutation (benchmarks build one
  /// SolverInstance per core from the same ordering); overrides `ordering`.
  std::optional<Permutation> preordered;
};

/// One factorisation problem: permuted matrix + solver-core structures +
/// task DAG. Numerics may be executed at most once.
class SolverInstance {
 public:
  SolverInstance(const Csr& a, const InstanceOptions& opts);

  /// Symbolic-reuse construction (the serve layer's pattern-cache hit
  /// path, PLU core only): copy the donor's fill-reducing permutation and
  /// share its tile pattern and task DAG by pointer — all pure functions
  /// of `a`'s sparsity structure — then run only the numeric assembly.
  /// `a` must have exactly the donor's sparsity structure (verified
  /// against the permuted CSR structure) and `opts` its block and grid;
  /// throws th::Error on a mismatch. `opts.ordering`/`opts.preordered`
  /// are ignored in favour of the donor's permutation.
  SolverInstance(const Csr& a, const InstanceOptions& opts,
                 const SolverInstance& donor);

  const TaskGraph& graph() const;
  const Csr& matrix() const { return a_; }
  const Csr& permuted_matrix() const { return perm_a_; }
  const Permutation& permutation() const { return perm_; }

  double reorder_seconds() const { return reorder_s_; }
  double symbolic_seconds() const { return symbolic_s_; }
  offset_t nnz_lu() const;

  /// Re-map task ownership for a different rank count (2-D block-cyclic);
  /// PLU swaps in a re-owned copy of the DAG it may share with others.
  void set_grid(const ProcessGrid& grid);

  /// Simulate with numeric execution (allowed exactly once).
  ScheduleResult run_numeric(const ScheduleOptions& opt);
  /// The same, replaying `plan` — recorded by record_plan() on this
  /// pattern under the same scheduling options — instead of re-running
  /// the event loop, unless `opt` is not replay_eligible (core/scheduler.hpp).
  /// Factors and modelled fields equal run_numeric(opt)'s bit for bit.
  ScheduleResult run_numeric(const ScheduleOptions& opt,
                             const SchedulePlan& plan);
  /// Timing-only replay (any number of times, before or after numerics).
  ScheduleResult run_timing(const ScheduleOptions& opt) const;
  /// A timing-only run that records its SchedulePlan.
  SchedulePlan record_plan(const ScheduleOptions& opt) const;
  bool numeric_done() const { return numeric_done_; }

  /// Mark the numeric phase complete without running it — the durability
  /// layer's rehydration hook (src/serve/recovery): committed factor tiles
  /// are adopted bitwise from on-disk artifacts into plu_factorization()'s
  /// TileMatrix, then this seals the instance so solve() works and a later
  /// run_numeric() is refused exactly as if the factorization had run
  /// here. PLU core only; throws th::Error if numerics already ran.
  void restore_numeric_done();

  /// Solve A x = b using the computed factors (handles the permutation).
  /// Requires run_numeric() to have completed.
  std::vector<real_t> solve(const std::vector<real_t>& b) const;

  /// Access the PLU factorisation (null when the SLU core was selected);
  /// used by the SpTRSV extension (solvers/trisolve.hpp).
  PluFactorization* plu_factorization() { return plu_.get(); }
  const PluFactorization* plu_factorization() const { return plu_.get(); }
  /// The SLU factorisation (null when the PLU core was selected).
  SluFactorization* slu_factorization() { return slu_.get(); }
  const SluFactorization* slu_factorization() const { return slu_.get(); }

 private:
  InstanceOptions opts_;
  Csr a_;
  Permutation perm_;
  Csr perm_a_;
  double reorder_s_ = 0;
  double symbolic_s_ = 0;
  bool numeric_done_ = false;
  // Exactly one of the two cores is populated.
  std::unique_ptr<SluFactorization> slu_;
  std::unique_ptr<PluFactorization> plu_;
};

/// One-shot convenience driver.
struct DriverOptions {
  InstanceOptions instance;
  ScheduleOptions sched;
  bool check_residual = true;
  std::uint64_t rhs_seed = 1234;
  /// Iterative-refinement budget when the numeric phase escalates: the
  /// fault model's guards fired (NaN scrubs / pivot perturbations degrade
  /// the factors) or ABFT accepted a corrupt tile after exhausting its
  /// retry budget (solvers/refine.hpp).
  int refine_max_iterations = 8;
  real_t refine_tolerance = 1e-12;
};

struct DriverReport {
  index_t n = 0;
  offset_t nnz = 0;
  double reorder_s = 0;        // host wall time (Figure 2)
  double symbolic_s = 0;       // host wall time (Figure 2)
  ScheduleResult numeric;      // simulated numeric phase
  offset_t nnz_lu = 0;
  offset_t task_count = 0;
  index_t dag_levels = 0;
  real_t residual = -1;        // scaled residual; -1 if not checked
  /// Refinement iterations performed by guard escalation (0 = plain solve;
  /// `residual` is then the refined residual).
  int refine_iterations = 0;
};

DriverReport run_solver(const Csr& a, const DriverOptions& opt);

}  // namespace th
