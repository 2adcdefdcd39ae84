#include "abft/tile_guard.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace th::abft {

void TileGuard::capture(const Task& t) {
  Tile* target = tiles_.tile(t.row, t.col);
  TH_CHECK_MSG(target != nullptr, "abft capture on absent tile");
  const offset_t s = tiles_.slot(t.row, t.col);
  Ctx* ctx = nullptr;
  bool fresh = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (sums_.empty()) sums_.resize(static_cast<std::size_t>(tiles_.size()));
    auto [it, inserted] = ctx_.try_emplace(s);
    if (inserted && !free_.empty()) {
      it->second = std::move(free_.back());
      free_.pop_back();
    }
    ctx = &it->second;
    fresh = inserted;
  }
  if (fresh) {
    ctx->type = t.type;
    ctx->verdict = -1;
    ctx->rolled_back = false;
    ctx->snapshot.assign(target->data(),
                         target->data() + target->panel_size());
    // A clean verification (or a rollback) last batch left the tile's
    // sums behind; adopt them and skip the O(b^2) recompute.
    Sums& known = sums_[static_cast<std::size_t>(s)];
    if (!known.row.empty() && !known.col.empty()) {
      ctx->pre_row = std::move(known.row);
      ctx->pre_col = std::move(known.col);
    } else {
      row_sums_into(*target, ctx->pre_row);
      col_sums_into(*target, ctx->pre_col);
    }
    known = {};
    if (t.type == TaskType::kSsssm) {
      ctx->exp_row.assign(ctx->pre_row.size(), real_t{0});
      ctx->exp_col.assign(ctx->pre_col.size(), real_t{0});
    }
  }
  TH_CHECK_MSG(ctx->type == t.type,
               "abft: one target updated by two kernel types in a batch");
  if (t.type != TaskType::kSsssm) return;
  // Expected delta: C -= L*U moves the row sums by -L*(U*e) and the column
  // sums by -(e^T*L)*U. The operands' sums come from the bank their clean
  // TSTRF/GEESM filled; an operand whose corrupt output was accepted (or
  // whose sums a guard invalidated) has none, so sum it here.
  const Tile* l = tiles_.tile(t.row, t.k);
  const Tile* u = tiles_.tile(t.k, t.col);
  TH_CHECK_MSG(l != nullptr && u != nullptr, "abft: ssssm input missing");
  const std::vector<real_t>& ur =
      sums_[static_cast<std::size_t>(tiles_.slot(t.k, t.col))].row;
  const std::vector<real_t>& lc =
      sums_[static_cast<std::size_t>(tiles_.slot(t.row, t.k))].col;
  if (ur.empty()) row_sums_into(*u, ctx->op_row);
  if (lc.empty()) col_sums_into(*l, ctx->op_col);
  add_matvec(*l, (ur.empty() ? ctx->op_row : ur).data(), ctx->exp_row.data(),
             real_t{-1});
  add_vecmat(*u, (lc.empty() ? ctx->op_col : lc).data(), ctx->exp_col.data(),
             real_t{-1});
}

bool TileGuard::verify_ctx(const Task& t, Ctx& ctx, real_t rel_tol) {
  const Tile* target = tiles_.tile(t.row, t.col);
  TH_CHECK(target != nullptr);
  Sums& known = sums_[static_cast<std::size_t>(tiles_.slot(t.row, t.col))];
  switch (t.type) {
    case TaskType::kGetrf: {
      // A = L*U, so L*(U*e) and (e^T*L)*U must reproduce A's sums.
      const std::vector<real_t> z =
          unit_lower_matvec(*target, upper_row_sums(*target));
      if (!checksums_match(z, ctx.pre_row, rel_tol)) return false;
      const std::vector<real_t> w =
          upper_vecmat(*target, unit_lower_col_sums(*target));
      return checksums_match(w, ctx.pre_col, rel_tol);
    }
    case TaskType::kTstrf: {
      // T*U_kk = A, so T*(U_kk*e) must equal A*e (and e^T T through U_kk).
      const Tile* diag = tiles_.tile(t.k, t.k);
      TH_CHECK(diag != nullptr);
      const std::vector<real_t> ur = upper_row_sums(*diag);
      std::vector<real_t> z(static_cast<std::size_t>(target->rows()),
                            real_t{0});
      add_matvec(*target, ur.data(), z.data(), real_t{1});
      if (!checksums_match(z, ctx.pre_row, rel_tol)) return false;
      std::vector<real_t> lc = col_sums(*target);
      if (!checksums_match(upper_vecmat(*diag, lc), ctx.pre_col, rel_tol))
        return false;
      known.col = std::move(lc);  // L's column sums: the SSSSM operand sums
      return true;
    }
    case TaskType::kGeesm: {
      // L_kk*G = A, mirrored.
      const Tile* diag = tiles_.tile(t.k, t.k);
      TH_CHECK(diag != nullptr);
      std::vector<real_t> ur = row_sums(*target);
      if (!checksums_match(unit_lower_matvec(*diag, ur), ctx.pre_row,
                           rel_tol))
        return false;
      const std::vector<real_t> lc = unit_lower_col_sums(*diag);
      std::vector<real_t> w(static_cast<std::size_t>(target->cols()),
                            real_t{0});
      add_vecmat(*target, lc.data(), w.data(), real_t{1});
      if (!checksums_match(w, ctx.pre_col, rel_tol)) return false;
      known.row = std::move(ur);  // U's row sums: the SSSSM operand sums
      return true;
    }
    case TaskType::kSsssm: {
      // Post sums must equal pre sums plus every member's expected delta.
      // The actual post sums are kept: a clean verdict lets reset() bank
      // them as the target's next pre sums. The expectation folds the pre
      // sums into exp_* in place — verify_ctx runs at most once per
      // context, so exp_* is not needed again.
      row_sums_into(*target, ctx.post_row);
      for (std::size_t i = 0; i < ctx.exp_row.size(); ++i)
        ctx.exp_row[i] += ctx.pre_row[i];
      if (!checksums_match(ctx.post_row, ctx.exp_row, rel_tol)) return false;
      col_sums_into(*target, ctx.post_col);
      for (std::size_t i = 0; i < ctx.exp_col.size(); ++i)
        ctx.exp_col[i] += ctx.pre_col[i];
      return checksums_match(ctx.post_col, ctx.exp_col, rel_tol);
    }
  }
  return true;
}

TileGuard::Ctx* TileGuard::find(offset_t s) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = ctx_.find(s);
  return it == ctx_.end() ? nullptr : &it->second;
}

bool TileGuard::verify(const Task& t, real_t rel_tol) {
  Ctx* ctx = find(tiles_.slot(t.row, t.col));
  if (ctx == nullptr) return true;  // never captured: nothing to check
  if (ctx->verdict < 0) ctx->verdict = verify_ctx(t, *ctx, rel_tol) ? 0 : 1;
  return ctx->verdict == 0;
}

void TileGuard::rollback(const Task& t) {
  Ctx* ctx = find(tiles_.slot(t.row, t.col));
  TH_CHECK_MSG(ctx != nullptr, "abft rollback without capture");
  if (ctx->rolled_back) return;  // shared SSSSM target: restore once
  Tile* target = tiles_.tile(t.row, t.col);
  TH_CHECK(target != nullptr);
  std::copy_n(ctx->snapshot.data(), ctx->snapshot.size(), target->data());
  ctx->rolled_back = true;
}

void TileGuard::invalidate(const Task& t) {
  const offset_t s = tiles_.slot(t.row, t.col);
  if (sums_.empty() || s < 0) return;
  sums_[static_cast<std::size_t>(s)] = {};
  // A context captured this batch must not bank its pre-scrub post sums.
  if (Ctx* ctx = find(s)) ctx->post_row.clear();
}

void TileGuard::reset() {
  for (auto& [s, ctx] : ctx_) {
    // Bank the sums of the tile's final state for its next capture: after
    // a rollback the tile is the snapshot again (sums = pre), after a clean
    // SSSSM verdict it is the verified post state. A clean TSTRF/GEESM
    // already banked its operand sums; anything else (corrupt-but-accepted,
    // never verified, a finished diagonal tile) keeps none.
    Sums& known = sums_[static_cast<std::size_t>(s)];
    if (ctx.rolled_back) {
      known = {std::move(ctx.pre_row), std::move(ctx.pre_col)};
    } else if (ctx.verdict == 0 && ctx.type == TaskType::kSsssm &&
               !ctx.post_row.empty()) {
      known = {std::move(ctx.post_row), std::move(ctx.post_col)};
    } else if (ctx.verdict != 0) {
      known = {};
    }
    free_.push_back(std::move(ctx));
  }
  ctx_.clear();
}

}  // namespace th::abft
