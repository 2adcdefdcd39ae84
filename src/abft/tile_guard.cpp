#include "abft/tile_guard.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace th::abft {

void TileGuard::capture_plan(const Task& t) {
  Tile* target = tiles_.tile(t.row, t.col);
  TH_CHECK_MSG(target != nullptr, "abft capture on absent tile");
  const std::uint64_t k = t.target_key();
  auto it = ctx_.find(k);
  if (it == ctx_.end()) {
    Ctx ctx;
    if (!free_.empty()) {
      ctx = std::move(free_.back());
      free_.pop_back();
    }
    ctx.type = t.type;
    ctx.verdict = -1;
    ctx.rolled_back = false;
    ctx.fresh = true;
    ctx.carried = false;
    ctx.pending.clear();
    ctx.post_row.clear();
    ctx.post_col.clear();
    // A target verified clean last batch left its actual post sums behind;
    // adopt them as this batch's pre sums and skip the O(b^2) recompute.
    auto cit = carry_.find(k);
    if (cit != carry_.end()) {
      ctx.pre_row = std::move(cit->second.first);
      ctx.pre_col = std::move(cit->second.second);
      ctx.carried = true;
      carry_.erase(cit);
    }
    it = ctx_.emplace(k, std::move(ctx)).first;
    jobs_.push_back(k);
  } else if (it->second.pending.empty() && !it->second.fresh) {
    // Serial capture() already drained this target once; re-queue it for
    // the new member's fold.
    jobs_.push_back(k);
  }
  TH_CHECK_MSG(it->second.type == t.type,
               "abft: one target updated by two kernel types in a batch");
  if (t.type == TaskType::kSsssm) {
    it->second.pending.push_back(&t);
    // Warm the per-batch input-sum cache serially: a panel's members share
    // their L column / U row inputs, so each distinct input is summed once.
    const Tile* l = tiles_.tile(t.row, t.k);
    const Tile* u = tiles_.tile(t.k, t.col);
    TH_CHECK_MSG(l != nullptr && u != nullptr, "abft: ssssm input missing");
    auto ur = u_row_sums_.try_emplace(u);
    if (ur.second) row_sums_into(*u, ur.first->second);
    auto lc = l_col_sums_.try_emplace(l);
    if (lc.second) col_sums_into(*l, lc.first->second);
  }
}

void TileGuard::capture_run(std::size_t job) {
  const std::uint64_t k = jobs_[job];
  Ctx& ctx = ctx_.at(k);
  Tile* target = tiles_.tile(static_cast<index_t>(k >> 32),
                             static_cast<index_t>(k & 0xffffffffu));
  TH_CHECK(target != nullptr);
  if (ctx.fresh) {
    ctx.snapshot.resize(static_cast<std::size_t>(target->panel_size()));
    std::copy_n(target->data(), target->panel_size(), ctx.snapshot.data());
    if (!ctx.carried) {
      row_sums_into(*target, ctx.pre_row);
      col_sums_into(*target, ctx.pre_col);
    }
    if (ctx.type == TaskType::kSsssm) {
      ctx.exp_row.assign(ctx.pre_row.size(), real_t{0});
      ctx.exp_col.assign(ctx.pre_col.size(), real_t{0});
    }
    ctx.fresh = false;
  }
  // Expected delta of each pending member: C -= L*U moves the row sums by
  // -L*(U*e) and the column sums by -(e^T*L)*U. Input sums come from the
  // plan-phase cache (read-only here).
  for (const Task* m : ctx.pending) {
    const Tile* l = tiles_.tile(m->row, m->k);
    const Tile* u = tiles_.tile(m->k, m->col);
    add_matvec(*l, u_row_sums_.at(u).data(), ctx.exp_row.data(), real_t{-1});
    add_vecmat(*u, l_col_sums_.at(l).data(), ctx.exp_col.data(), real_t{-1});
  }
  ctx.pending.clear();
}

void TileGuard::capture(const Task& t) {
  capture_plan(t);
  for (std::size_t j = 0; j < jobs_.size(); ++j) capture_run(j);
  jobs_.clear();
}

bool TileGuard::verify_ctx(const Task& t, Ctx& ctx, real_t rel_tol) {
  const Tile* target = tiles_.tile(t.row, t.col);
  TH_CHECK(target != nullptr);
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
      const std::vector<real_t> w = upper_vecmat(*diag, col_sums(*target));
      return checksums_match(w, ctx.pre_col, rel_tol);
    }
    case TaskType::kGeesm: {
      // L_kk*G = A, mirrored.
      const Tile* diag = tiles_.tile(t.k, t.k);
      TH_CHECK(diag != nullptr);
      const std::vector<real_t> z =
          unit_lower_matvec(*diag, row_sums(*target));
      if (!checksums_match(z, ctx.pre_row, rel_tol)) return false;
      const std::vector<real_t> lc = unit_lower_col_sums(*diag);
      std::vector<real_t> w(static_cast<std::size_t>(target->cols()),
                            real_t{0});
      add_vecmat(*target, lc.data(), w.data(), real_t{1});
      return checksums_match(w, ctx.pre_col, rel_tol);
    }
    case TaskType::kSsssm: {
      // Post sums must equal pre sums plus every member's expected delta.
      // The actual post sums are kept: a clean verdict lets reset() carry
      // them into the target's next capture as ready-made pre sums. The
      // expectation folds the pre sums into exp_* in place — verify_ctx
      // runs at most once per context, so exp_* is not needed again.
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

bool TileGuard::verify(const Task& t, real_t rel_tol) {
  auto it = ctx_.find(t.target_key());
  if (it == ctx_.end()) return true;  // never captured: nothing to check
  Ctx& ctx = it->second;
  if (ctx.verdict < 0) ctx.verdict = verify_ctx(t, ctx, rel_tol) ? 0 : 1;
  return ctx.verdict == 0;
}

void TileGuard::rollback(const Task& t) {
  auto it = ctx_.find(t.target_key());
  TH_CHECK_MSG(it != ctx_.end(), "abft rollback without capture");
  Ctx& ctx = it->second;
  if (ctx.rolled_back) return;  // shared SSSSM target: restore once
  Tile* target = tiles_.tile(t.row, t.col);
  TH_CHECK(target != nullptr);
  std::copy_n(ctx.snapshot.data(), ctx.snapshot.size(), target->data());
  ctx.rolled_back = true;
}

void TileGuard::reset() {
  for (auto& [k, ctx] : ctx_) {
    // Bank actual sums of the tile's final state for the next capture:
    // after a rollback the tile is the snapshot again (sums = pre), after
    // a clean SSSSM verdict it is the verified post state. Anything else
    // (corrupt-but-accepted, never verified, or a finished factor tile
    // that will not be captured again) drops its carry entry.
    if (ctx.rolled_back) {
      carry_[k] = {std::move(ctx.pre_row), std::move(ctx.pre_col)};
    } else if (ctx.verdict == 0 && ctx.type == TaskType::kSsssm &&
               !ctx.post_row.empty()) {
      carry_[k] = {std::move(ctx.post_row), std::move(ctx.post_col)};
    } else {
      carry_.erase(k);
    }
    free_.push_back(std::move(ctx));
  }
  ctx_.clear();
  jobs_.clear();
  u_row_sums_.clear();
  l_col_sums_.clear();
}

}  // namespace th::abft
