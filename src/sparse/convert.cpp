#include "sparse/convert.hpp"

#include <algorithm>
#include <numeric>

namespace th {

void Csr::check() const {
  TH_CHECK(n_rows >= 0 && n_cols >= 0);
  TH_CHECK(static_cast<index_t>(row_ptr.size()) == n_rows + 1);
  TH_CHECK(row_ptr.front() == 0);
  TH_CHECK(row_ptr.back() == nnz());
  TH_CHECK(col_idx.size() == values.size());
  for (index_t r = 0; r < n_rows; ++r) {
    TH_CHECK(row_ptr[r] <= row_ptr[r + 1]);
    for (offset_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
      TH_CHECK(col_idx[p] >= 0 && col_idx[p] < n_cols);
      if (p > row_ptr[r]) TH_CHECK(col_idx[p - 1] < col_idx[p]);
    }
  }
}

Csr coo_to_csr(const Coo& a) {
  for (const Triplet& t : a.entries) {
    TH_CHECK_MSG(t.row >= 0 && t.row < a.n_rows && t.col >= 0 &&
                     t.col < a.n_cols,
                 "COO entry (" << t.row << "," << t.col << ") out of range");
  }
  Csr out;
  out.n_rows = a.n_rows;
  out.n_cols = a.n_cols;
  std::vector<offset_t>& ptr = out.row_ptr;
  std::vector<index_t>& idx = out.col_idx;
  std::vector<real_t>& val = out.values;
  // Count per row.
  ptr.assign(static_cast<std::size_t>(a.n_rows) + 1, 0);
  for (const Triplet& t : a.entries) ++ptr[static_cast<std::size_t>(t.row) + 1];
  std::partial_sum(ptr.begin(), ptr.end(), ptr.begin());

  // Scatter.
  std::vector<offset_t> cursor(ptr.begin(), ptr.end() - 1);
  idx.resize(a.entries.size());
  val.resize(a.entries.size());
  for (const Triplet& t : a.entries) {
    const offset_t p = cursor[static_cast<std::size_t>(t.row)]++;
    idx[static_cast<std::size_t>(p)] = t.col;
    val[static_cast<std::size_t>(p)] = t.value;
  }

  // Sort each row by column and sum duplicates in place.
  std::vector<offset_t> perm;
  std::vector<index_t> tmp_idx;
  std::vector<real_t> tmp_val;
  offset_t write = 0;
  std::vector<offset_t> new_ptr(ptr.size());
  new_ptr[0] = 0;
  for (index_t m = 0; m < a.n_rows; ++m) {
    const offset_t lo = ptr[static_cast<std::size_t>(m)];
    const offset_t hi = ptr[static_cast<std::size_t>(m) + 1];
    const std::size_t len = static_cast<std::size_t>(hi - lo);
    perm.resize(len);
    std::iota(perm.begin(), perm.end(), lo);
    std::sort(perm.begin(), perm.end(), [&](offset_t x, offset_t y) {
      return idx[static_cast<std::size_t>(x)] < idx[static_cast<std::size_t>(y)];
    });
    tmp_idx.resize(len);
    tmp_val.resize(len);
    for (std::size_t k = 0; k < len; ++k) {
      tmp_idx[k] = idx[static_cast<std::size_t>(perm[k])];
      tmp_val[k] = val[static_cast<std::size_t>(perm[k])];
    }
    for (std::size_t k = 0; k < len; ++k) {
      if (k > 0 && tmp_idx[k] == tmp_idx[k - 1]) {
        // Duplicate within this row: accumulate into the last written slot.
        val[static_cast<std::size_t>(write - 1)] += tmp_val[k];
      } else {
        idx[static_cast<std::size_t>(write)] = tmp_idx[k];
        val[static_cast<std::size_t>(write)] = tmp_val[k];
        ++write;
      }
    }
    new_ptr[static_cast<std::size_t>(m) + 1] = write;
  }
  ptr = std::move(new_ptr);
  idx.resize(static_cast<std::size_t>(write));
  val.resize(static_cast<std::size_t>(write));
  return out;
}

namespace {

// Transpose the storage of a compressed triple into the opposite compression.
void transpose_storage(index_t n_major, index_t n_minor,
                       const std::vector<offset_t>& ptr,
                       const std::vector<index_t>& idx,
                       const std::vector<real_t>& val,
                       std::vector<offset_t>& tptr, std::vector<index_t>& tidx,
                       std::vector<real_t>& tval) {
  tptr.assign(static_cast<std::size_t>(n_minor) + 1, 0);
  for (index_t i : idx) ++tptr[static_cast<std::size_t>(i) + 1];
  std::partial_sum(tptr.begin(), tptr.end(), tptr.begin());
  std::vector<offset_t> cursor(tptr.begin(), tptr.end() - 1);
  tidx.resize(idx.size());
  tval.resize(val.size());
  for (index_t m = 0; m < n_major; ++m) {
    for (offset_t p = ptr[static_cast<std::size_t>(m)];
         p < ptr[static_cast<std::size_t>(m) + 1]; ++p) {
      const index_t i = idx[static_cast<std::size_t>(p)];
      const offset_t q = cursor[static_cast<std::size_t>(i)]++;
      tidx[static_cast<std::size_t>(q)] = m;
      tval[static_cast<std::size_t>(q)] = val[static_cast<std::size_t>(p)];
    }
  }
}

}  // namespace

Csr transpose(const Csr& a) {
  Csr out;
  out.n_rows = a.n_cols;
  out.n_cols = a.n_rows;
  transpose_storage(a.n_rows, a.n_cols, a.row_ptr, a.col_idx, a.values,
                    out.row_ptr, out.col_idx, out.values);
  return out;
}

Csr symmetrize_pattern(const Csr& a) {
  TH_CHECK_MSG(a.n_rows == a.n_cols, "symmetrize_pattern requires square A");
  const Csr at = transpose(a);
  Csr out;
  out.n_rows = a.n_rows;
  out.n_cols = a.n_cols;
  out.row_ptr.assign(static_cast<std::size_t>(a.n_rows) + 1, 0);
  // Merge row r of A with row r of A^T; values come from A, transpose-only
  // positions get explicit zeros (pattern entries).
  for (index_t r = 0; r < a.n_rows; ++r) {
    offset_t pa = a.row_ptr[static_cast<std::size_t>(r)];
    const offset_t ea = a.row_ptr[static_cast<std::size_t>(r) + 1];
    offset_t pt = at.row_ptr[static_cast<std::size_t>(r)];
    const offset_t et = at.row_ptr[static_cast<std::size_t>(r) + 1];
    while (pa < ea || pt < et) {
      index_t ca = pa < ea ? a.col_idx[static_cast<std::size_t>(pa)]
                           : a.n_cols;
      index_t ct = pt < et ? at.col_idx[static_cast<std::size_t>(pt)]
                           : a.n_cols;
      if (ca == ct) {
        out.col_idx.push_back(ca);
        out.values.push_back(a.values[static_cast<std::size_t>(pa)]);
        ++pa;
        ++pt;
      } else if (ca < ct) {
        out.col_idx.push_back(ca);
        out.values.push_back(a.values[static_cast<std::size_t>(pa)]);
        ++pa;
      } else {
        out.col_idx.push_back(ct);
        out.values.push_back(0.0);
        ++pt;
      }
    }
    out.row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<offset_t>(out.col_idx.size());
  }
  return out;
}

}  // namespace th
