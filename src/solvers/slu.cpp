#include "solvers/slu.hpp"

#include <algorithm>

#include "kernels/dense.hpp"
#include "kernels/flops.hpp"
#include "support/error.hpp"

namespace th {

namespace {
std::uint64_t block_key(index_t i, index_t j) {
  return (static_cast<std::uint64_t>(i) << 32) |
         static_cast<std::uint32_t>(j);
}
}  // namespace

// ---- Numeric backend ------------------------------------------------------

class SluFactorization::Backend : public NumericBackend {
 public:
  explicit Backend(SluFactorization& f) : f_(f) {}

  void run_task(const Task& t, bool) override {
    switch (t.type) {
      case TaskType::kGetrf: {
        Supernode& s = f_.sn_[t.k];
        getrf_nopiv(s.width(), s.diag.data(), s.width());
        break;
      }
      case TaskType::kTstrf: {
        Supernode& s = f_.sn_[t.k];
        const Segment& seg = find_segment(s, t.row);
        // L(seg, s) := A(seg, s) * U(ss)^{-1}; the segment's rows are a
        // contiguous strip of the (column-major) L panel.
        trsm_upper_right(seg.size(), s.width(), s.diag.data(), s.width(),
                         s.lpan.data() + seg.pos0, s.m());
        break;
      }
      case TaskType::kGeesm: {
        Supernode& s = f_.sn_[t.k];
        const Segment& seg = find_segment(s, t.col);
        trsm_lower_left_unit(
            s.width(), seg.size(), s.diag.data(), s.width(),
            s.upan.data() + static_cast<offset_t>(seg.pos0) * s.width(),
            s.width());
        break;
      }
      case TaskType::kSsssm:
        run_ssssm(t);
        break;
    }
  }

 private:
  const Segment& find_segment(const Supernode& s, index_t target) const {
    const auto it = std::lower_bound(
        s.segments.begin(), s.segments.end(), target,
        [](const Segment& a, index_t v) { return a.target_sn < v; });
    TH_CHECK_MSG(it != s.segments.end() && it->target_sn == target,
                 "missing segment for supernode " << target);
    return *it;
  }

  // Write-conflicting members never run concurrently: the runtime runs a
  // target's members in batch order on one lane.
  void run_ssssm(const Task& t) {
    Supernode& s = f_.sn_[t.k];
    const Segment& li = find_segment(s, t.row);
    const Segment& uj = find_segment(s, t.col);
    const index_t mi = li.size();
    const index_t mj = uj.size();
    const index_t w = s.width();

    // W := - L(seg_i, s) * U(s, seg_j), computed into thread-local scratch.
    thread_local std::vector<real_t> scratch;
    scratch.assign(static_cast<std::size_t>(mi) * mj, 0.0);
    gemm_minus(mi, mj, w, s.lpan.data() + li.pos0, s.m(),
               s.upan.data() + static_cast<offset_t>(uj.pos0) * w, w,
               scratch.data(), mi);

    // Scatter-add W into the destination supernode block (t.row, t.col).
    // Each element is written once, so only its one `+=` sets its bits;
    // a destination position is looked up once per source row (L target)
    // or column (U target), never per element.
    Supernode& dst_i = f_.sn_[t.row];
    Supernode& dst_j = f_.sn_[t.col];
    const real_t* wk = scratch.data();
    const index_t* rows = s.below.data() + li.pos0;  // global rows
    const index_t* cols = s.below.data() + uj.pos0;  // global columns
    const index_t c0 = dst_i.c0;  // the target block's first row
    if (t.row == t.col) {
      for (index_t b = 0; b < mj; ++b) {
        real_t* dcol = dst_i.diag.data() +
                       static_cast<offset_t>(cols[b] - c0) * dst_i.width();
        const real_t* wcol = wk + static_cast<offset_t>(b) * mi;
        for (index_t a = 0; a < mi; ++a) dcol[rows[a] - c0] += wcol[a];
      }
    } else if (t.row > t.col) {
      // L target: row gr lands at lpan position below_pos(t.col, gr).
      thread_local std::vector<index_t> pos;
      pos.resize(static_cast<std::size_t>(mi));
      for (index_t a = 0; a < mi; ++a) {
        pos[a] = f_.below_pos(t.col, rows[a]);
        // Relaxed-supernode padding: the source row is an explicit zero,
        // so its contributions are exactly 0 and may be skipped.
        if (pos[a] < 0) TH_ASSERT(row_is_zero(wk, mi, mj, a));
      }
      for (index_t b = 0; b < mj; ++b) {
        real_t* dcol = dst_j.lpan.data() +
                       static_cast<offset_t>(cols[b] - dst_j.c0) * dst_j.m();
        const real_t* wcol = wk + static_cast<offset_t>(b) * mi;
        for (index_t a = 0; a < mi; ++a) {
          if (pos[a] >= 0) dcol[pos[a]] += wcol[a];
        }
      }
    } else {
      // U target: column gc lands at upan column below_pos(t.row, gc).
      for (index_t b = 0; b < mj; ++b) {
        const index_t p = f_.below_pos(t.row, cols[b]);
        const real_t* wcol = wk + static_cast<offset_t>(b) * mi;
        if (p < 0) {
          TH_ASSERT(std::all_of(wcol, wcol + mi,
                                [](real_t v) { return v == 0.0; }));
          continue;
        }
        real_t* dcol =
            dst_i.upan.data() + static_cast<offset_t>(p) * dst_i.width();
        for (index_t a = 0; a < mi; ++a) dcol[rows[a] - c0] += wcol[a];
      }
    }
  }

  // Whether row a of the column-major mi x mj block w is all zero.
  static bool row_is_zero(const real_t* w, index_t mi, index_t mj,
                          index_t a) {
    for (index_t b = 0; b < mj; ++b) {
      if (w[a + static_cast<offset_t>(b) * mi] != 0.0) return false;
    }
    return true;
  }

  SluFactorization& f_;
};

// ---- Construction ---------------------------------------------------------

SluFactorization::~SluFactorization() = default;

NumericBackend& SluFactorization::backend() { return *backend_; }

SluFactorization::SluFactorization(const Csr& a, const SluOptions& opts)
    : opts_(opts) {
  const AdjacencyGraph g = build_adjacency(a);
  const EliminationTree etree = elimination_tree(g);
  const SupernodalStructure sym = supernodal_symbolic(g, etree);
  part_ = find_supernodes(sym, etree, opts.max_supernode, opts.relax_slack);

  // Build supernode skeletons from the fundamental supernodes' row sets.
  const index_t ns = part_.count();
  sn_.resize(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s) {
    Supernode& sn = sn_[s];
    sn.c0 = part_.start[s];
    sn.c1 = part_.start[s + 1];
    const std::vector<index_t> rows = supernode_rows(sym, part_, s);
    const index_t w = sn.width();
    TH_CHECK_MSG(static_cast<index_t>(rows.size()) >= w,
                 "supernode pattern shorter than its width");
    for (index_t c = 0; c < w; ++c) {
      TH_CHECK_MSG(rows[c] == sn.c0 + c,
                   "supernode " << s << " panel misses its own column");
    }
    sn.below.assign(rows.begin() + w, rows.end());
    // Group `below` by owning supernode: rows are sorted, supernodes are
    // contiguous column ranges, so each group is a contiguous strip.
    index_t pos = 0;
    while (pos < sn.m()) {
      const index_t target = part_.sn_of_col[sn.below[pos]];
      index_t end = pos + 1;
      while (end < sn.m() && part_.sn_of_col[sn.below[end]] == target) {
        ++end;
      }
      sn.segments.push_back({target, pos, end});
      pos = end;
    }
    sn.diag.assign(static_cast<std::size_t>(w) * w, 0.0);
    sn.lpan.assign(static_cast<std::size_t>(sn.m()) * w, 0.0);
    sn.upan.assign(static_cast<std::size_t>(w) * sn.m(), 0.0);
  }

  assemble(a);
  backend_ = std::make_unique<Backend>(*this);
  build_graph();
}

std::vector<real_t> SluFactorization::values() const {
  std::vector<real_t> v;
  for (const Supernode& s : sn_) {
    v.insert(v.end(), s.diag.begin(), s.diag.end());
    v.insert(v.end(), s.lpan.begin(), s.lpan.end());
    v.insert(v.end(), s.upan.begin(), s.upan.end());
  }
  return v;
}

index_t SluFactorization::below_pos(index_t s, index_t r) const {
  const auto& below = sn_[s].below;
  const auto it = std::lower_bound(below.begin(), below.end(), r);
  if (it == below.end() || *it != r) return -1;
  return static_cast<index_t>(it - below.begin());
}

void SluFactorization::assemble(const Csr& a) {
  // Entry (i, j) lands in the supernode of column min(i, j): in its
  // diagonal block, its L panel (i below it) or its U panel (j right of it).
  for (index_t i = 0; i < a.n_rows; ++i) {
    for (offset_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const index_t j = a.col_idx[p];
      const index_t s = part_.sn_of_col[std::min(i, j)];
      Supernode& sn = sn_[s];
      const index_t w = sn.width();
      if (std::max(i, j) < sn.c1) {
        sn.diag[(i - sn.c0) + static_cast<offset_t>(j - sn.c0) * w] =
            a.values[p];
      } else if (i > j) {
        const index_t pos = below_pos(s, i);
        TH_CHECK_MSG(pos >= 0, "A entry outside symbolic L pattern");
        sn.lpan[pos + static_cast<offset_t>(j - sn.c0) * sn.m()] =
            a.values[p];
      } else {
        const index_t pos = below_pos(s, j);
        TH_CHECK_MSG(pos >= 0, "A entry outside symbolic U pattern");
        sn.upan[(i - sn.c0) + static_cast<offset_t>(pos) * w] = a.values[p];
      }
    }
  }
}

void SluFactorization::build_graph() {
  const index_t ns = part_.count();
  std::unordered_map<std::uint64_t, index_t> consumer;

  // Pass 1: GETRF / TSTRF / GEESM tasks (consumers of their blocks).
  for (index_t s = 0; s < ns; ++s) {
    const Supernode& sn = sn_[s];
    const index_t w = sn.width();
    {
      Task t;
      t.type = TaskType::kGetrf;
      t.k = s;
      t.row = t.col = s;
      t.cost.flops = getrf_flops(w);
      t.cost.bytes = words_to_bytes(2 * static_cast<offset_t>(w) * w);
      t.cost.cuda_blocks = w;
      t.cost.shmem_per_block = static_cast<offset_t>(w) * 8;
      t.out_bytes = words_to_bytes(static_cast<offset_t>(w) * w);
      t.owner_rank = opts_.grid.owner(s, s);
      consumer[block_key(s, s)] = graph_.add_task(t);
    }
    for (const Segment& seg : sn.segments) {
      {
        Task t;
        t.type = TaskType::kTstrf;
        t.k = s;
        t.row = seg.target_sn;
        t.col = s;
        t.cost.flops = trsm_flops(w, seg.size());
        t.cost.bytes = words_to_bytes(
            2 * static_cast<offset_t>(seg.size()) * w +
            static_cast<offset_t>(w) * w);
        t.cost.cuda_blocks = seg.size();
        t.cost.shmem_per_block = static_cast<offset_t>(w) * 8;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(seg.size()) * w);
        t.owner_rank = opts_.grid.owner(seg.target_sn, s);
        consumer[block_key(seg.target_sn, s)] = graph_.add_task(t);
      }
      {
        Task t;
        t.type = TaskType::kGeesm;
        t.k = s;
        t.row = s;
        t.col = seg.target_sn;
        t.cost.flops = trsm_flops(w, seg.size());
        t.cost.bytes = words_to_bytes(
            2 * static_cast<offset_t>(seg.size()) * w +
            static_cast<offset_t>(w) * w);
        t.cost.cuda_blocks = seg.size();
        t.cost.shmem_per_block = static_cast<offset_t>(w) * 8;
        t.out_bytes = words_to_bytes(static_cast<offset_t>(seg.size()) * w);
        t.owner_rank = opts_.grid.owner(s, seg.target_sn);
        consumer[block_key(s, seg.target_sn)] = graph_.add_task(t);
      }
    }
  }

  // Pass 2: SSSSM tasks and dependencies.
  for (index_t s = 0; s < ns; ++s) {
    const Supernode& sn = sn_[s];
    const index_t w = sn.width();
    const index_t f_s = consumer.at(block_key(s, s));
    for (const Segment& seg : sn.segments) {
      graph_.add_dependency(f_s, consumer.at(block_key(seg.target_sn, s)));
      graph_.add_dependency(f_s, consumer.at(block_key(s, seg.target_sn)));
    }
    for (const Segment& li : sn.segments) {
      const index_t t_li = consumer.at(block_key(li.target_sn, s));
      for (const Segment& uj : sn.segments) {
        const index_t e_uj = consumer.at(block_key(s, uj.target_sn));
        Task t;
        t.type = TaskType::kSsssm;
        t.k = s;
        t.row = li.target_sn;
        t.col = uj.target_sn;
        t.cost.flops = gemm_flops(li.size(), uj.size(), w);
        t.cost.bytes = words_to_bytes(
            static_cast<offset_t>(li.size()) * w +
            static_cast<offset_t>(w) * uj.size() +
            2 * static_cast<offset_t>(li.size()) * uj.size());
        t.cost.cuda_blocks = uj.size();
        t.cost.shmem_per_block = static_cast<offset_t>(li.size()) * 8;
        t.out_bytes =
            words_to_bytes(static_cast<offset_t>(li.size()) * uj.size());
        t.atomic_ok = true;
        t.owner_rank = opts_.grid.owner(li.target_sn, uj.target_sn);
        const index_t id = graph_.add_task(t);
        graph_.add_dependency(t_li, id);
        graph_.add_dependency(e_uj, id);
        const auto it = consumer.find(block_key(li.target_sn, uj.target_sn));
        TH_CHECK_MSG(it != consumer.end(),
                     "Schur destination (" << li.target_sn << ","
                                           << uj.target_sn
                                           << ") has no consumer task");
        graph_.add_dependency(id, it->second);
      }
    }
  }

  graph_.finalize();
}

offset_t SluFactorization::nnz_lu() const {
  offset_t total = 0;
  for (const Supernode& sn : sn_) {
    const offset_t w = sn.width();
    const offset_t m = sn.m();
    total += w * w + 2 * m * w;
  }
  return total;
}

std::vector<real_t> SluFactorization::solve(
    const std::vector<real_t>& b) const {
  const index_t ns = part_.count();
  std::vector<real_t> x = b;

  // Forward: L y = b.
  for (index_t s = 0; s < ns; ++s) {
    const Supernode& sn = sn_[s];
    const index_t w = sn.width();
    real_t* xs = x.data() + sn.c0;
    // Unit-lower substitution within the diagonal block.
    for (index_t c = 0; c < w; ++c) {
      const real_t xc = xs[c];
      if (xc == 0.0) continue;
      for (index_t r = c + 1; r < w; ++r) {
        xs[r] -= sn.diag[r + static_cast<offset_t>(c) * w] * xc;
      }
    }
    // Panel update: x[below] -= L * x[cols].
    for (index_t c = 0; c < w; ++c) {
      const real_t xc = xs[c];
      if (xc == 0.0) continue;
      for (index_t a = 0; a < sn.m(); ++a) {
        x[sn.below[a]] -= sn.lpan[a + static_cast<offset_t>(c) * sn.m()] * xc;
      }
    }
  }

  // Backward: U x = y.
  for (index_t s = ns - 1; s >= 0; --s) {
    const Supernode& sn = sn_[s];
    const index_t w = sn.width();
    real_t* xs = x.data() + sn.c0;
    // x[cols] -= U * x[below].
    for (index_t bpos = 0; bpos < sn.m(); ++bpos) {
      const real_t xb = x[sn.below[bpos]];
      if (xb == 0.0) continue;
      for (index_t r = 0; r < w; ++r) {
        xs[r] -= sn.upan[r + static_cast<offset_t>(bpos) * w] * xb;
      }
    }
    // Upper substitution within the diagonal block.
    for (index_t c = w - 1; c >= 0; --c) {
      real_t acc = xs[c];
      for (index_t r = c + 1; r < w; ++r) {
        acc -= sn.diag[c + static_cast<offset_t>(r) * w] * xs[r];
      }
      xs[c] = acc / sn.diag[c + static_cast<offset_t>(c) * w];
    }
  }
  return x;
}

}  // namespace th
