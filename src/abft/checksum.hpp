// Huang–Abraham checksum primitives over tiles.
//
// Everything here is O(b^2) per tile against the kernels' O(b^3): the sums
// are formed once per target per batch and the invariant verification is a
// handful of matrix-vector products against the tile the kernel just
// wrote.
#pragma once

#include <vector>

#include "kernels/tile.hpp"

namespace th::abft {

/// y += alpha * A * x  (x has cols(A) entries, y has rows(A)).
void add_matvec(const Tile& a, const real_t* x, real_t* y, real_t alpha);

/// y += alpha * x^T * A  (x has rows(A) entries, y has cols(A)).
void add_vecmat(const Tile& a, const real_t* x, real_t* y, real_t alpha);

/// Row sums A*e (length rows) and column sums e^T*A (length cols).
std::vector<real_t> row_sums(const Tile& a);
std::vector<real_t> col_sums(const Tile& a);

/// Allocation-free variants: resize `out` and overwrite it with the sums.
/// The hot ABFT paths call these once per batch member, so reusing the
/// caller's buffer keeps the checksum pass off the allocator.
void row_sums_into(const Tile& a, std::vector<real_t>& out);
void col_sums_into(const Tile& a, std::vector<real_t>& out);

// ---- Packed-LU sum helpers (factored diagonal tile, L unit-lower) -------

/// Row sums of the upper factor U (diagonal included): u[i] = sum_{j>=i}
/// U(i,j).
std::vector<real_t> upper_row_sums(const Tile& lu);

/// Column sums of the unit-lower factor L: v[j] = 1 + sum_{i>j} L(i,j).
std::vector<real_t> unit_lower_col_sums(const Tile& lu);

/// y = L * x with L the packed unit-lower factor of `lu`.
std::vector<real_t> unit_lower_matvec(const Tile& lu, const std::vector<real_t>& x);

/// y = x^T * U with U the packed upper factor of `lu`.
std::vector<real_t> upper_vecmat(const Tile& lu, const std::vector<real_t>& x);

/// Entry-wise |a[i] - b[i]| <= tol * max(1, linf(a), linf(b)). Vectors must
/// have equal length.
bool checksums_match(const std::vector<real_t>& a, const std::vector<real_t>& b,
                     real_t tol);

}  // namespace th::abft
