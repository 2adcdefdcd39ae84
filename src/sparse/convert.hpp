// Format conversions. All converters produce sorted, duplicate-free output
// (duplicates in COO input are summed).
#pragma once

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace th {

/// COO -> CSR with duplicate summation and per-row column sorting.
Csr coo_to_csr(const Coo& a);

/// Explicit transpose: returns B = A^T in CSR form.
Csr transpose(const Csr& a);

/// Symmetrize the *pattern*: returns the pattern of A + A^T with values from
/// A where present and 0 where only the transpose contributes. Used before
/// symbolic analysis, which assumes a structurally symmetric input (both
/// SuperLU_DIST and PanguLU symmetrize similarly after static pivoting).
Csr symmetrize_pattern(const Csr& a);

}  // namespace th
