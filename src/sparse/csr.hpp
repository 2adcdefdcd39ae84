// Compressed sparse row container.
#pragma once

#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"

namespace th {

/// Compressed sparse row matrix. Column indices within each row are sorted
/// and unique once produced by the converters in convert.hpp.
struct Csr {
  index_t n_rows = 0;
  index_t n_cols = 0;
  std::vector<offset_t> row_ptr;  // size n_rows + 1
  std::vector<index_t> col_idx;   // size nnz
  std::vector<real_t> values;     // size nnz

  offset_t nnz() const { return static_cast<offset_t>(col_idx.size()); }

  /// Validate structural invariants (monotone pointers, in-range indices,
  /// sorted rows). Intended for tests and after deserialization.
  void check() const;
};

}  // namespace th
