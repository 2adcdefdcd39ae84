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

// True when a sorted index list shares an entry with the list whose
// position map is `pos`.
bool lists_meet(std::span<const index_t> a,
                std::span<const std::int16_t> pos) {
  return std::ranges::any_of(a, [&](index_t x) { return pos[x] >= 0; });
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
  // Capture and verify run on the executor's lanes, concurrently only for
  // distinct targets, which is exactly the TileGuard contract; rollback
  // and reset are serial.

  void abft_capture(const Task& t) override { abft_guard_.capture(t); }

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
      pattern_(std::make_shared<const TilePattern>(
          tile_symbolic(a, opts.tile_size))),
      tiles_(std::make_unique<TileMatrix>(a, pattern_)),
      backend_(std::make_unique<Backend>(*tiles_)),
      graph_(std::make_shared<const TaskGraph>(build_graph())) {}

PluFactorization::PluFactorization(const Csr& a, const PluOptions& opts,
                                   const PluFactorization& donor)
    : opts_(opts),
      pattern_(donor.pattern_),
      tiles_(std::make_unique<TileMatrix>(a, pattern_)),
      backend_(std::make_unique<Backend>(*tiles_)),
      graph_(donor.graph_) {
  // Structure is shared wholesale: neither tile_symbolic() nor
  // build_graph() runs. Only the numeric assembly above (scattering A's
  // values into fresh tiles) is new work, so `a` must tile to the donor's
  // pattern — the serve layer guarantees this via its pattern-hash cache
  // key and SolverInstance re-checks the CSR structure before getting here.
  // The shared DAG carries the donor's owner ranks, hence the grid check.
  TH_CHECK_MSG(a.n_rows == pattern_->n,
               "symbolic donor dimension mismatch: matrix n="
                   << a.n_rows << ", pattern n=" << pattern_->n);
  TH_CHECK_MSG(opts.tile_size == donor.opts_.tile_size,
               "symbolic donor tile size mismatch");
  TH_CHECK_MSG(opts.grid == donor.opts_.grid,
               "symbolic donor grid mismatch");
}

void PluFactorization::set_grid(const ProcessGrid& grid) {
  if (grid == opts_.grid) return;
  graph_ = std::make_shared<const TaskGraph>(with_owners(*graph_, grid));
  opts_.grid = grid;
}

TaskGraph PluFactorization::build_graph() const {
  const TilePattern& p = *pattern_;
  const index_t nt = p.nt;
  const offset_t n_lower = p.col_ptr[nt];

  // Device footprint helpers. One CUDA block per column (GETRF/GEESM/SSSSM)
  // or per row (TSTRF), as in Figure 7 of the paper.
  // Tile density from the exact scalar fill prices the modelled kernels:
  // their flops (PanguLU's kernels skip zeros) and the sparse/dense
  // efficiency flag. The host kernels run on the envelope panels. A lower
  // tile at position q and its mirror both hold tile_fill[q].
  auto density = [&](offset_t fill, index_t i, index_t j) {
    const real_t area = static_cast<real_t>(p.rows_in_tile(i)) *
                        static_cast<real_t>(p.rows_in_tile(j));
    return std::min<real_t>(1.0, static_cast<real_t>(fill) / area);
  };

  // SSSSM (i,k,j) exists iff L(i,k)'s envelope columns meet U(k,j)'s
  // envelope rows: otherwise every product term multiplies a structural
  // zero. U(k,j)'s rows are its mirror L(j,k)'s columns, so the relation
  // is symmetric in i and j, and it always holds for i == j. Calls
  // f(a, b) for each meeting pair a < b of positions in below(k).
  auto for_each_meeting_pair = [&](index_t k, auto&& f) {
    const offset_t q0 = p.col_ptr[k];
    const auto m = static_cast<index_t>(p.col_ptr[k + 1] - q0);
    for (index_t a = 0; a < m; ++a) {
      const auto inner = tiles_->lower(k, q0 + a).col_idx();
      for (index_t b = a + 1; b < m; ++b) {
        if (lists_meet(inner, tiles_->upper(k, q0 + b).row_pos())) f(a, b);
      }
    }
  };

  // Every task and edge is counted before any is added.
  offset_t ssssm = 0;
  for (index_t k = 0; k < nt; ++k) {
    ssssm += p.col_ptr[k + 1] - p.col_ptr[k];
    for_each_meeting_pair(k, [&](index_t, index_t) { ssssm += 2; });
  }
  TaskGraph graph;
  graph.reserve(static_cast<index_t>(nt + 2 * n_lower + ssssm),
                2 * n_lower + 3 * ssssm);

  // Each tile's final (consumer) task, by pattern position, so SSSSM
  // producers can attach dependencies: GETRF on the diagonal, TSTRF below
  // it (step j), GEESM above it (step i).
  std::vector<index_t> diag_id(static_cast<std::size_t>(nt));
  std::vector<index_t> lower_id(static_cast<std::size_t>(n_lower));
  std::vector<index_t> upper_id(static_cast<std::size_t>(n_lower));

  // Pass 1: create GETRF / TSTRF / GEESM tasks (the per-tile consumers).
  for (index_t k = 0; k < nt; ++k) {
    const index_t bk = p.rows_in_tile(k);
    {
      Task t;
      t.type = TaskType::kGetrf;
      t.k = k;
      t.row = t.col = k;
      t.cost.flops = std::max<offset_t>(
          1, static_cast<offset_t>(static_cast<real_t>(getrf_flops(bk)) *
                                   density(p.diag_fill[k], k, k)));
      t.cost.bytes = words_to_bytes(2 * static_cast<offset_t>(bk) * bk);
      t.cost.cuda_blocks = bk;
      t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
      t.cost.sparse = false;  // diagonal tiles fill in
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * bk);
      t.owner_rank = opts_.grid.owner(k, k);
      diag_id[k] = graph.add_task(t);
    }
    for (offset_t q = p.col_ptr[k]; q < p.col_ptr[k + 1]; ++q) {
      const index_t i = p.tile_row[q];
      const index_t bi = p.rows_in_tile(i);
      const real_t dens = density(p.tile_fill[q], i, k);
      Task t;
      t.type = TaskType::kTstrf;
      t.k = k;
      t.row = i;
      t.col = k;
      t.cost.flops = std::max<offset_t>(
          1, static_cast<offset_t>(static_cast<real_t>(trsm_flops(bk, bi)) *
                                   dens));
      t.cost.bytes =
          words_to_bytes(2 * static_cast<offset_t>(bi) * bk +
                         static_cast<offset_t>(bk) * bk);
      t.cost.cuda_blocks = bi;  // one block per row of the target
      t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
      t.cost.sparse = dens < kSparseDensityThreshold;
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bi) * bk);
      t.owner_rank = opts_.grid.owner(i, k);
      lower_id[q] = graph.add_task(t);
    }
    for (offset_t q = p.col_ptr[k]; q < p.col_ptr[k + 1]; ++q) {
      const index_t j = p.tile_row[q];
      const index_t bj = p.rows_in_tile(j);
      const real_t dens = density(p.tile_fill[q], k, j);
      Task t;
      t.type = TaskType::kGeesm;
      t.k = k;
      t.row = k;
      t.col = j;
      t.cost.flops = std::max<offset_t>(
          1, static_cast<offset_t>(static_cast<real_t>(trsm_flops(bk, bj)) *
                                   dens));
      t.cost.bytes =
          words_to_bytes(2 * static_cast<offset_t>(bk) * bj +
                         static_cast<offset_t>(bk) * bk);
      t.cost.cuda_blocks = bj;  // one block per column of the target
      t.cost.shmem_per_block = static_cast<offset_t>(bk) * 8;
      t.cost.sparse = dens < kSparseDensityThreshold;
      t.out_bytes = words_to_bytes(static_cast<offset_t>(bk) * bj);
      t.owner_rank = opts_.grid.owner(k, j);
      upper_id[q] = graph.add_task(t);
    }
  }

  // Pass 2: SSSSM tasks + all dependencies. Block row k's tiles right of
  // the diagonal are the mirrors of block column k's below it. For a
  // meeting pair a < b, the target tiles (i, j) and (j, i) are the pair
  // whose lower tile sits in block column i = below(k)[a]: pos[a * m + b]
  // holds its position, found by one forward search along below(i).
  std::vector<offset_t> pos;
  for (index_t k = 0; k < nt; ++k) {
    const offset_t q0 = p.col_ptr[k];
    const auto m = static_cast<index_t>(p.col_ptr[k + 1] - q0);
    const index_t f_k = diag_id[k];
    for (offset_t q = q0; q < q0 + m; ++q) {
      graph.add_dependency(f_k, lower_id[q]);
    }
    for (offset_t q = q0; q < q0 + m; ++q) {
      graph.add_dependency(f_k, upper_id[q]);
    }

    pos.assign(static_cast<std::size_t>(m) * m, -1);
    index_t a_prev = -1;
    auto hint = p.tile_row.begin();
    for_each_meeting_pair(k, [&](index_t a, index_t b) {
      const index_t i = p.tile_row[q0 + a];
      if (a != a_prev) {
        a_prev = a;
        hint = p.tile_row.begin() + p.col_ptr[i];
      }
      const auto last = p.tile_row.begin() + p.col_ptr[i + 1];
      hint = std::lower_bound(hint, last, p.tile_row[q0 + b]);
      // A shared inner index c gives L(r,c) != 0 and U(c,s) != 0 with
      // c < r, s, so the scalar fill holds (r,s): the target is present.
      TH_ASSERT(hint != last && *hint == p.tile_row[q0 + b]);
      pos[static_cast<std::size_t>(a) * m + b] = hint - p.tile_row.begin();
    });

    const index_t bk = p.rows_in_tile(k);
    for (index_t a = 0; a < m; ++a) {
      const index_t i = p.tile_row[q0 + a];
      const index_t bi = p.rows_in_tile(i);
      const index_t l_cons = lower_id[q0 + a];
      const real_t l_dens = density(p.tile_fill[q0 + a], i, k);
      for (index_t b = 0; b < m; ++b) {
        const offset_t at =
            a < b ? pos[static_cast<std::size_t>(a) * m + b]
                  : pos[static_cast<std::size_t>(b) * m + a];
        if (a != b && at < 0) continue;
        const index_t j = p.tile_row[q0 + b];
        const index_t bj = p.rows_in_tile(j);
        const index_t target =
            a == b ? diag_id[i] : (a < b ? upper_id[at] : lower_id[at]);
        Task t;
        t.type = TaskType::kSsssm;
        t.k = k;
        t.row = i;
        t.col = j;
        // Column-column SSSSM: every nonzero of L(i,k) multiplies the
        // dense columns of U(k,j) — flops scale with both densities.
        const real_t ldens = std::max<real_t>(l_dens, 0.01);
        const real_t udens =
            std::max<real_t>(density(p.tile_fill[q0 + b], k, j), 0.01);
        t.cost.flops = std::max<offset_t>(
            1, gemm_flops(bi, bj, bk, ldens * udens));
        t.cost.bytes = words_to_bytes(static_cast<offset_t>(bi) * bk +
                                      static_cast<offset_t>(bk) * bj +
                                      2 * static_cast<offset_t>(bi) * bj);
        t.cost.cuda_blocks = bj;
        t.cost.shmem_per_block = static_cast<offset_t>(bi) * 8;
        t.cost.sparse = l_dens < kSparseDensityThreshold;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(bi) * bj);
        t.atomic_ok = true;
        t.owner_rank = opts_.grid.owner(i, j);
        const index_t s = graph.add_task(t);
        graph.add_dependency(l_cons, s);
        graph.add_dependency(upper_id[q0 + b], s);
        // The Schur result must land before the tile's own consumer runs.
        graph.add_dependency(s, target);
      }
    }
  }

  graph.finalize();
  return graph;
}

std::vector<real_t> PluFactorization::solve(
    const std::vector<real_t>& b) const {
  TH_CHECK(static_cast<index_t>(b.size()) == pattern_->n);
  std::vector<real_t> x = b;
  tri_solve_in_order(*this, x.data(), 1);
  return x;
}

std::vector<real_t> PluFactorization::solve_transpose(
    const std::vector<real_t>& c) const {
  const TilePattern& p = *pattern_;
  TH_CHECK(static_cast<index_t>(c.size()) == p.n);
  const index_t nt = p.nt;
  const index_t bs = p.tile_size;
  std::vector<real_t> x = c;

  // x_dst[cols[q]] -= (T^T x_src)[q] over an off-diagonal panel T: its
  // columns dot the source entries its rows select.
  auto sub_transposed = [](const Tile& t, const real_t* src, real_t* dst) {
    const auto rows = t.row_idx();
    const auto cols = t.col_idx();
    for (index_t q = 0; q < t.panel_cols(); ++q) {
      const real_t* tc = t.data() + static_cast<offset_t>(q) * t.ld();
      real_t acc = 0;
      for (index_t r = 0; r < t.panel_rows(); ++r) acc += tc[r] * src[rows[r]];
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
    for (offset_t q = p.col_ptr[J]; q < p.col_ptr[J + 1]; ++q) {
      sub_transposed(tiles_->upper(J, q), xj,
                     x.data() + static_cast<offset_t>(p.tile_row[q]) * bs);
    }
  }

  // Backward: L^T z = y. L^T is upper triangular (unit); iterate block rows
  // descending, using L tiles (I, J) with I > J transposed.
  for (index_t J = nt - 1; J >= 0; --J) {
    real_t* xj = x.data() + static_cast<offset_t>(J) * bs;
    // Gather contributions from later block rows: x_J -= L(I,J)^T z_I.
    for (offset_t q = p.col_ptr[J]; q < p.col_ptr[J + 1]; ++q) {
      sub_transposed(tiles_->lower(J, q),
                     x.data() + static_cast<offset_t>(p.tile_row[q]) * bs, xj);
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
