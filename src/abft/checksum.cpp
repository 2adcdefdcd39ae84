#include "abft/checksum.hpp"

#include <cmath>

#include "support/error.hpp"

namespace th::abft {

// The general-tile sums walk the panel and land in in-tile coordinates:
// vectors are rows()/cols() long and entries outside the envelope are 0.

// The row-direction loops scatter through row_idx, which keeps them
// scalar. A panel with every row (diagonal and dense tiles) has the
// identity for row_idx, so they run contiguous there and vectorise: the
// sums are the same, element for element.

void add_matvec(const Tile& a, const real_t* x, real_t* y, real_t alpha) {
  const auto rows = a.row_idx();
  const auto cols = a.col_idx();
  const real_t* d = a.data();
  const bool all_rows = a.panel_rows() == a.rows();
  for (index_t j = 0; j < a.panel_cols(); ++j) {
    const real_t ax = alpha * x[cols[j]];
    const real_t* dc = d + static_cast<offset_t>(j) * a.ld();
    if (all_rows) {
      for (index_t i = 0; i < a.panel_rows(); ++i) y[i] += dc[i] * ax;
    } else {
      for (index_t i = 0; i < a.panel_rows(); ++i) y[rows[i]] += dc[i] * ax;
    }
  }
}

void add_vecmat(const Tile& a, const real_t* x, real_t* y, real_t alpha) {
  const auto rows = a.row_idx();
  const auto cols = a.col_idx();
  const real_t* d = a.data();
  for (index_t j = 0; j < a.panel_cols(); ++j) {
    const real_t* dc = d + static_cast<offset_t>(j) * a.ld();
    real_t s = 0;
    for (index_t i = 0; i < a.panel_rows(); ++i) s += x[rows[i]] * dc[i];
    y[cols[j]] += alpha * s;
  }
}

void row_sums_into(const Tile& a, std::vector<real_t>& out) {
  out.assign(static_cast<std::size_t>(a.rows()), real_t{0});
  const auto rows = a.row_idx();
  const real_t* d = a.data();
  const bool all_rows = a.panel_rows() == a.rows();
  real_t* o = out.data();
  for (index_t j = 0; j < a.panel_cols(); ++j) {
    const real_t* dc = d + static_cast<offset_t>(j) * a.ld();
    if (all_rows) {
      for (index_t i = 0; i < a.panel_rows(); ++i) o[i] += dc[i];
    } else {
      for (index_t i = 0; i < a.panel_rows(); ++i) o[rows[i]] += dc[i];
    }
  }
}

void col_sums_into(const Tile& a, std::vector<real_t>& out) {
  out.assign(static_cast<std::size_t>(a.cols()), real_t{0});
  const auto cols = a.col_idx();
  const real_t* d = a.data();
  for (index_t j = 0; j < a.panel_cols(); ++j) {
    const real_t* dc = d + static_cast<offset_t>(j) * a.ld();
    real_t s = 0;
    for (index_t i = 0; i < a.panel_rows(); ++i) s += dc[i];
    out[cols[j]] = s;
  }
}

std::vector<real_t> row_sums(const Tile& a) {
  std::vector<real_t> r;
  row_sums_into(a, r);
  return r;
}

std::vector<real_t> col_sums(const Tile& a) {
  std::vector<real_t> c;
  col_sums_into(a, c);
  return c;
}

// The packed-LU helpers read a factored diagonal tile, which is full.

std::vector<real_t> upper_row_sums(const Tile& lu) {
  TH_CHECK(lu.full());
  const index_t n = lu.rows();
  const index_t cols = lu.cols();
  const real_t* d = lu.data();
  std::vector<real_t> u(n, real_t{0});
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i <= j && i < n; ++i) u[i] += d[i + j * n];
  return u;
}

std::vector<real_t> unit_lower_col_sums(const Tile& lu) {
  TH_CHECK(lu.full());
  const index_t n = lu.rows();
  const index_t cols = lu.cols();
  std::vector<real_t> v(n, real_t{1});
  const real_t* d = lu.data();
  for (index_t j = 0; j < cols && j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) v[j] += d[i + j * n];
  return v;
}

std::vector<real_t> unit_lower_matvec(const Tile& lu,
                                      const std::vector<real_t>& x) {
  TH_CHECK(lu.full());
  const index_t n = lu.rows();
  const real_t* d = lu.data();
  std::vector<real_t> y(x);  // unit diagonal
  for (index_t j = 0; j + 1 < n && j < lu.cols(); ++j) {
    const real_t xj = x[j];
    for (index_t i = j + 1; i < n; ++i) y[i] += d[i + j * n] * xj;
  }
  return y;
}

std::vector<real_t> upper_vecmat(const Tile& lu, const std::vector<real_t>& x) {
  TH_CHECK(lu.full());
  const index_t n = lu.rows();
  const index_t cols = lu.cols();
  const real_t* d = lu.data();
  std::vector<real_t> y(cols, real_t{0});
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i <= j && i < n; ++i) y[j] += x[i] * d[i + j * n];
  return y;
}

bool checksums_match(const std::vector<real_t>& a, const std::vector<real_t>& b,
                     real_t tol) {
  TH_CHECK(a.size() == b.size());
  real_t scale = 1;
  for (const real_t v : a)
    if (std::abs(v) > scale) scale = std::abs(v);
  for (const real_t v : b)
    if (std::abs(v) > scale) scale = std::abs(v);
  // An overflowed sum makes scale (and hence tol * scale) infinite, and
  // |diff| <= inf accepts everything — exactly the corruption a bit flip in
  // the exponent produces. No finite factorization yields infinite
  // checksums, so treat any non-finite entry as a mismatch outright.
  if (!std::isfinite(scale)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const real_t diff = std::abs(a[i] - b[i]);
    // A NaN planted by corruption poisons the sums; NaN comparisons are
    // false, so test the match direction and fail on anything non-finite.
    if (!(diff <= tol * scale)) return false;
  }
  return true;
}

}  // namespace th::abft
