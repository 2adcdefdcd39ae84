#include "solvers/plu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "abft/tile_guard.hpp"
#include "kernels/flops.hpp"
#include "solvers/trisolve.hpp"
#include "support/error.hpp"

namespace th {

namespace {

// Tiles whose scalar-fill density is below this are priced as "sparse"
// tasks (model only).
constexpr real_t kSparseDensityThreshold = 0.25;

// True when two sorted index lists share an entry.
bool lists_meet(std::span<const index_t> a, std::span<const index_t> b) {
  for (std::size_t p = 0, q = 0; p < a.size() && q < b.size();) {
    if (a[p] < b[q]) {
      ++p;
    } else if (b[q] < a[p]) {
      ++q;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

// ---- Numeric backend ------------------------------------------------------

class PluFactorization::Backend : public NumericBackend {
 public:
  explicit Backend(TileMatrix& tiles) : tiles_(tiles), abft_guard_(tiles) {}

  void run_task(const Task& t, bool) override {
    switch (t.type) {
      case TaskType::kGetrf:
        tile_getrf(*tiles_.tile(t.row, t.col));
        break;
      case TaskType::kTstrf:
        tile_tstrf(*tiles_.tile(t.row, t.col), *tiles_.tile(t.k, t.k));
        break;
      case TaskType::kGeesm:
        tile_geesm(*tiles_.tile(t.row, t.col), *tiles_.tile(t.k, t.k));
        break;
      case TaskType::kSsssm:
        tile_ssssm(*tiles_.tile(t.row, t.col), *tiles_.tile(t.row, t.k),
                   *tiles_.tile(t.k, t.col));
        break;
    }
  }

  bool inject_fault(const Task& t, NumericFaultKind kind) override {
    // Faults land on panel positions.
    Tile* tile = tiles_.tile(t.row, t.col);
    if (tile == nullptr) return false;
    real_t* d = tile->data();
    const auto ld = static_cast<offset_t>(tile->ld());
    if (silent_fault_kind(kind)) {
      // Silent corruption in the freshly written output (the runtime calls
      // this post-execution). Target the largest entry so the damage is
      // unambiguously above the checksum tolerance — an SDC in a tiny
      // mantissa bit is numerically indistinguishable from roundoff and
      // not worth a retry in the first place.
      const offset_t n = tile->panel_size();
      offset_t at = 0;
      real_t maxabs = 0;
      for (offset_t i = 0; i < n; ++i) {
        if (std::abs(d[i]) > maxabs) {
          maxabs = std::abs(d[i]);
          at = i;
        }
      }
      switch (kind) {
        case NumericFaultKind::kBitFlip: {
          if (maxabs == 0) {
            d[at] = 2.0;  // bit 62 of +0.0 flipped
            break;
          }
          std::uint64_t bits = 0;
          std::memcpy(&bits, &d[at], sizeof(bits));
          bits ^= (1ULL << 62);  // high exponent bit: a large, visible hit
          std::memcpy(&d[at], &bits, sizeof(bits));
          break;
        }
        case NumericFaultKind::kScaledEntry:
          d[at] = maxabs == 0 ? 1.0 : d[at] * 1024.0;
          break;
        default:  // kSilentNaN
          d[at] = std::numeric_limits<real_t>::quiet_NaN();
          break;
      }
      return true;
    }
    if (kind == NumericFaultKind::kTinyPivot) {
      // Sever the last panel row/column and leave a near-zero pivot.
      // Elimination keeps a zero column zero, so the tiny value survives
      // factorisation intact for the guard to find — without ever feeding
      // huge multipliers into the rest of the tile.
      const index_t p = std::min(tile->panel_rows(), tile->panel_cols()) - 1;
      for (index_t r = 0; r < tile->panel_rows(); ++r) d[r + p * ld] = 0.0;
      for (index_t c = 0; c < tile->panel_cols(); ++c) d[p + c * ld] = 0.0;
      d[p + p * ld] = 1e-30;
      return true;
    }
    // Plant off the tile diagonal: the guard scrubs the entry to zero, a
    // bounded single-entry perturbation (a zeroed *diagonal* entry would
    // leave a zero pivot behind for GETRF to trip over).
    const index_t r = tile->panel_rows() > 1 ? 1 : 0;
    d[r] = kind == NumericFaultKind::kInf
               ? std::numeric_limits<real_t>::infinity()
               : std::numeric_limits<real_t>::quiet_NaN();
    return true;
  }

  GuardReport guard_task(const Task& t, const GuardPolicy& policy) override {
    GuardReport g;
    Tile* tile = tiles_.tile(t.row, t.col);
    if (tile == nullptr) return g;
    real_t* d = tile->data();
    const auto ld = static_cast<offset_t>(tile->ld());
    real_t maxabs = 0;
    for (offset_t i = 0; i < tile->panel_size(); ++i) {
      real_t& v = d[i];
      if (!std::isfinite(v)) {
        v = 0.0;
        ++g.nonfinite_scrubbed;
      } else {
        maxabs = std::max(maxabs, std::abs(v));
      }
    }
    if (t.type == TaskType::kGetrf) {
      // SuperLU_DIST-style static pivoting: bump pivots that would blow up
      // the triangular solves to +/- the relative threshold. Diagonal
      // tiles are full, so panel and in-tile positions agree.
      const real_t thresh =
          policy.tiny_pivot_rel * (maxabs > 0 ? maxabs : 1.0);
      const index_t w = std::min(tile->rows(), tile->cols());
      for (index_t c = 0; c < w; ++c) {
        real_t& p = d[c + c * ld];
        if (std::abs(p) < thresh) {
          p = p < 0 ? -thresh : thresh;
          ++g.pivots_perturbed;
        }
      }
    }
    // The scrub rewrote tile entries behind the checksum carry's back;
    // drop any banked sums so the next capture re-derives them.
    if (g.nonfinite_scrubbed > 0 || g.pivots_perturbed > 0) {
      abft_guard_.invalidate(t);
    }
    return g;
  }

  // ---- ABFT hooks (src/abft/tile_guard.hpp) -----------------------------
  // Planning, rollback and reset are called serially by the runtime/
  // scheduler; capture jobs and verify run on the executor's lanes but
  // only ever concurrently for distinct targets, which is exactly the
  // TileGuard contract — so the guard needs no locking of its own.

  void abft_capture(const Task& t) override { abft_guard_.capture(t); }

  void abft_capture_plan(const Task& t) override {
    abft_guard_.capture_plan(t);
  }

  std::size_t abft_capture_jobs() override {
    return abft_guard_.capture_jobs();
  }

  void abft_capture_run(std::size_t job) override {
    abft_guard_.capture_run(job);
  }

  bool abft_verify(const Task& t, real_t rel_tol) override {
    return abft_guard_.verify(t, rel_tol);
  }

  void abft_rollback(const Task& t) override { abft_guard_.rollback(t); }

  void abft_reset() override { abft_guard_.reset(); }

  // ---- Out-of-core hooks (src/mem) --------------------------------------

  std::vector<real_t> extract_block(const Task& t) override {
    // The packed panel.
    const Tile* tile = tiles_.tile(t.row, t.col);
    if (tile == nullptr) return {};
    return std::vector<real_t>(tile->data(),
                               tile->data() + tile->panel_size());
  }

  void restore_block(const Task& t, const std::vector<real_t>& data) override {
    Tile* tile = tiles_.tile(t.row, t.col);
    if (tile == nullptr) return;
    tile->adopt_panel(data);  // byte-exact: the output is unchanged
  }

 private:
  TileMatrix& tiles_;
  abft::TileGuard abft_guard_;
};

// ---- Construction ---------------------------------------------------------

PluFactorization::~PluFactorization() = default;

NumericBackend& PluFactorization::backend() { return *backend_; }

PluFactorization::PluFactorization(const Csr& a, const PluOptions& opts)
    : opts_(opts),
      pattern_(tile_symbolic(a, opts.tile_size)),
      tiles_(std::make_unique<TileMatrix>(a, pattern_)),
      backend_(std::make_unique<Backend>(*tiles_)) {
  build_graph();
}

PluFactorization::PluFactorization(const Csr& a, const PluOptions& opts,
                                   const PluFactorization& donor)
    : opts_(opts),
      pattern_(donor.pattern_),
      tiles_(std::make_unique<TileMatrix>(a, pattern_)),
      backend_(std::make_unique<Backend>(*tiles_)),
      graph_(donor.graph_) {
  // Structure is borrowed wholesale: neither tile_symbolic() nor
  // build_graph() runs. Only the numeric assembly above (scattering A's
  // values into fresh tiles) is new work, so `a` must tile to the donor's
  // pattern — the serve layer guarantees this via its pattern-hash cache
  // key and SolverInstance re-checks the CSR structure before getting here.
  TH_CHECK_MSG(a.n_rows == pattern_.n,
               "symbolic donor dimension mismatch: matrix n=" << a.n_rows
                                                              << ", pattern n="
                                                              << pattern_.n);
  TH_CHECK_MSG(opts.tile_size == donor.opts_.tile_size,
               "symbolic donor tile size mismatch");
}

void PluFactorization::build_graph() {
  const index_t nt = pattern_.nt;

  // Device footprint helpers. One CUDA block per column (GETRF/GEESM/SSSSM)
  // or per row (TSTRF), as in Figure 7 of the paper.
  // Tile density from the exact scalar fill prices the modelled kernels:
  // their flops (PanguLU's kernels skip zeros) and the sparse/dense
  // efficiency flag. The host kernels run on the envelope panels.
  auto tile_density = [&](index_t i, index_t j) {
    const offset_t nz =
        pattern_.fill_nnz[static_cast<std::size_t>(i) * nt + j];
    const real_t area = static_cast<real_t>(pattern_.rows_in_tile(i)) *
                        static_cast<real_t>(pattern_.rows_in_tile(j));
    return std::min<real_t>(1.0, static_cast<real_t>(nz) / area);
  };
  auto is_sparse = [&](index_t i, index_t j) {
    return tile_density(i, j) < kSparseDensityThreshold;
  };

  // Task ids for the final (consumer) task of each tile, so SSSSM
  // producers can attach dependencies: for tile (i,j), the consumer is
  // GETRF (i==j), TSTRF (i>j, step j) or GEESM (i<j, step i).
  std::vector<index_t> consumer(
      static_cast<std::size_t>(nt) * static_cast<std::size_t>(nt), -1);
  auto cons = [&](index_t i, index_t j) -> index_t& {
    return consumer[static_cast<std::size_t>(i) * nt + j];
  };

  // Pass 1: create GETRF / TSTRF / GEESM tasks (the per-tile consumers).
  for (index_t k = 0; k < nt; ++k) {
    const index_t bk = pattern_.rows_in_tile(k);
    {
      Task t;
      t.type = TaskType::kGetrf;
      t.k = k;
      t.row = t.col = k;
      t.cost.flops = std::max<offset_t>(
          1, static_cast<offset_t>(static_cast<real_t>(getrf_flops(bk)) *
                                   tile_density(k, k)));
      t.cost.bytes = words_to_bytes(2 * static_cast<offset_t>(bk) * bk);
      t.cost.cuda_blocks = bk;
      t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
      t.cost.sparse = false;  // diagonal tiles fill in
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * bk);
      t.owner_rank = opts_.grid.owner(k, k);
      cons(k, k) = graph_.add_task(t);
    }
    for (const index_t i : pattern_.col_tiles_below(k)) {
      const index_t bi = pattern_.rows_in_tile(i);
      Task t;
      t.type = TaskType::kTstrf;
      t.k = k;
      t.row = i;
      t.col = k;
      t.cost.flops = std::max<offset_t>(
          1, static_cast<offset_t>(static_cast<real_t>(trsm_flops(bk, bi)) *
                                   tile_density(i, k)));
      t.cost.bytes =
          words_to_bytes(2 * static_cast<offset_t>(bi) * bk +
                         static_cast<offset_t>(bk) * bk);
      t.cost.cuda_blocks = bi;  // one block per row of the target
      t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
      t.cost.sparse = is_sparse(i, k);
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bi) * bk);
      t.owner_rank = opts_.grid.owner(i, k);
      cons(i, k) = graph_.add_task(t);
    }
    for (const index_t j : pattern_.row_tiles_right(k)) {
      const index_t bj = pattern_.rows_in_tile(j);
      Task t;
      t.type = TaskType::kGeesm;
      t.k = k;
      t.row = k;
      t.col = j;
      t.cost.flops = std::max<offset_t>(
          1, static_cast<offset_t>(static_cast<real_t>(trsm_flops(bk, bj)) *
                                   tile_density(k, j)));
      t.cost.bytes =
          words_to_bytes(2 * static_cast<offset_t>(bk) * bj +
                         static_cast<offset_t>(bk) * bk);
      t.cost.cuda_blocks = bj;  // one block per column of the target
      t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
      t.cost.sparse = is_sparse(k, j);
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * bj);
      t.owner_rank = opts_.grid.owner(k, j);
      cons(k, j) = graph_.add_task(t);
    }
  }

  // Pass 2: SSSSM tasks + all dependencies. SSSSM (i,k,j) exists iff
  // L(i,k)'s envelope columns meet U(k,j)'s envelope rows: otherwise every
  // product term multiplies a structural zero.
  for (index_t k = 0; k < nt; ++k) {
    const index_t f_k = cons(k, k);
    const std::vector<index_t> col = pattern_.col_tiles_below(k);
    const std::vector<index_t> row = pattern_.row_tiles_right(k);
    for (const index_t i : col) graph_.add_dependency(f_k, cons(i, k));
    for (const index_t j : row) graph_.add_dependency(f_k, cons(k, j));

    const index_t bk = pattern_.rows_in_tile(k);
    for (const index_t i : col) {
      const index_t bi = pattern_.rows_in_tile(i);
      const auto inner = pattern_.env_cols(i, k);
      for (const index_t j : row) {
        if (!lists_meet(inner, pattern_.env_rows(k, j))) continue;
        const index_t bj = pattern_.rows_in_tile(j);
        // A shared inner index c gives L(r,c) != 0 and U(c,s) != 0 with
        // c < r, s, so the scalar fill holds (r,s): C(i,j) is present.
        TH_ASSERT(pattern_.has(i, j));
        Task t;
        t.type = TaskType::kSsssm;
        t.k = k;
        t.row = i;
        t.col = j;
        // Column-column SSSSM: every nonzero of L(i,k) multiplies the
        // dense columns of U(k,j) — flops scale with both densities.
        const real_t ldens = std::max<real_t>(tile_density(i, k), 0.01);
        const real_t udens = std::max<real_t>(tile_density(k, j), 0.01);
        t.cost.flops = std::max<offset_t>(
            1, gemm_flops(bi, bj, bk, ldens * udens));
        t.cost.bytes = words_to_bytes(static_cast<offset_t>(bi) * bk +
                                      static_cast<offset_t>(bk) * bj +
                                      2 * static_cast<offset_t>(bi) * bj);
        t.cost.cuda_blocks = bj;
        t.cost.shmem_per_block = static_cast<offset_t>(bi) * 8;
        t.cost.sparse = is_sparse(i, k);
        t.out_bytes = words_to_bytes(static_cast<offset_t>(bi) * bj);
        t.atomic_ok = true;
        t.owner_rank = opts_.grid.owner(i, j);
        const index_t s = graph_.add_task(t);
        graph_.add_dependency(cons(i, k), s);
        graph_.add_dependency(cons(k, j), s);
        // The Schur result must land before the tile's own consumer runs.
        graph_.add_dependency(s, cons(i, j));
      }
    }
  }

  graph_.finalize();
}

std::vector<real_t> PluFactorization::solve(
    const std::vector<real_t>& b) const {
  TH_CHECK(static_cast<index_t>(b.size()) == pattern_.n);
  std::vector<real_t> x = b;
  tri_solve_in_order(*this, x.data(), 1);
  return x;
}

std::vector<real_t> PluFactorization::solve_transpose(
    const std::vector<real_t>& c) const {
  const index_t n = pattern_.n;
  TH_CHECK(static_cast<index_t>(c.size()) == n);
  const index_t nt = pattern_.nt;
  const index_t bs = pattern_.tile_size;
  std::vector<real_t> x = c;

  // x_dst[cols[q]] -= (T^T x_src)[q] over an off-diagonal panel T: its
  // columns dot the source entries its rows select.
  auto sub_transposed = [](const Tile& t, const real_t* src, real_t* dst) {
    const auto rows = t.row_idx();
    const auto cols = t.col_idx();
    for (index_t q = 0; q < t.panel_cols(); ++q) {
      const real_t* tc = t.data() + static_cast<offset_t>(q) * t.ld();
      real_t acc = 0;
      for (index_t p = 0; p < t.panel_rows(); ++p) acc += tc[p] * src[rows[p]];
      dst[cols[q]] -= acc;
    }
  };

  // Forward: U^T y = c. U^T is lower triangular (non-unit); iterate block
  // rows ascending, using U tiles (J, K) with K > J transposed.
  for (index_t J = 0; J < nt; ++J) {
    const Tile* diag = tiles_->tile(J, J);
    TH_ASSERT(diag != nullptr);
    const index_t w = diag->cols();
    real_t* xj = x.data() + static_cast<offset_t>(J) * bs;
    const real_t* d = diag->data();
    // Within-tile: solve U(J,J)^T y_J = rhs (lower, non-unit).
    for (index_t r = 0; r < w; ++r) {
      real_t acc = xj[r];
      for (index_t k = 0; k < r; ++k) {
        // (U^T)(r,k) = U(k,r)
        acc -= d[k + static_cast<offset_t>(r) * diag->ld()] * xj[k];
      }
      xj[r] = acc / d[r + static_cast<offset_t>(r) * diag->ld()];
    }
    // Propagate to later block rows: x_K -= U(J,K)^T y_J for K > J.
    for (index_t K = J + 1; K < nt; ++K) {
      const Tile* ut = tiles_->tile(J, K);
      if (ut == nullptr) continue;
      sub_transposed(*ut, xj, x.data() + static_cast<offset_t>(K) * bs);
    }
  }

  // Backward: L^T z = y. L^T is upper triangular (unit); iterate block rows
  // descending, using L tiles (I, J) with I > J transposed.
  for (index_t J = nt - 1; J >= 0; --J) {
    real_t* xj = x.data() + static_cast<offset_t>(J) * bs;
    // Gather contributions from later block rows: x_J -= L(I,J)^T z_I.
    for (index_t I = J + 1; I < nt; ++I) {
      const Tile* lt = tiles_->tile(I, J);
      if (lt == nullptr) continue;
      sub_transposed(*lt, x.data() + static_cast<offset_t>(I) * bs, xj);
    }
    // Within-tile: solve L(J,J)^T z_J = rhs (upper, unit diagonal).
    const Tile* diag = tiles_->tile(J, J);
    const index_t w = diag->cols();
    const real_t* d = diag->data();
    for (index_t r = w - 1; r >= 0; --r) {
      real_t acc = xj[r];
      for (index_t k = r + 1; k < w; ++k) {
        // (L^T)(r,k) = L(k,r), strictly lower entries of the diag tile.
        acc -= d[k + static_cast<offset_t>(r) * diag->ld()] * xj[k];
      }
      xj[r] = acc;
    }
  }
  return x;
}

}  // namespace th
