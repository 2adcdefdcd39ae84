#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sparse/adjacency.hpp"
#include "sparse/convert.hpp"
#include "sparse/io.hpp"
#include "sparse/ops.hpp"

namespace th {
namespace {

Coo small_coo() {
  Coo a;
  a.n_rows = a.n_cols = 3;
  a.add(0, 0, 1.0);
  a.add(0, 2, 2.0);
  a.add(1, 1, 3.0);
  a.add(2, 0, 4.0);
  a.add(2, 2, 5.0);
  return a;
}

TEST(Convert, CooToCsrBasic) {
  const Csr a = coo_to_csr(small_coo());
  a.check();
  EXPECT_EQ(a.nnz(), 5);
  EXPECT_EQ(a.row_ptr, (std::vector<offset_t>{0, 2, 3, 5}));
  EXPECT_EQ(a.col_idx, (std::vector<index_t>{0, 2, 1, 0, 2}));
}

TEST(Convert, DuplicatesAreSummed) {
  Coo c;
  c.n_rows = c.n_cols = 2;
  c.add(0, 1, 1.5);
  c.add(0, 1, 2.5);
  c.add(1, 0, 1.0);
  const Csr a = coo_to_csr(c);
  a.check();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.values[0], 4.0);
}

TEST(Convert, TransposeTwiceIsIdentity) {
  const Csr a = coo_to_csr(small_coo());
  const Csr att = transpose(transpose(a));
  EXPECT_EQ(att.row_ptr, a.row_ptr);
  EXPECT_EQ(att.col_idx, a.col_idx);
  EXPECT_EQ(att.values, a.values);
}

TEST(Convert, SymmetrizePatternIsSymmetric) {
  const Csr a = coo_to_csr(small_coo());
  const Csr s = symmetrize_pattern(a);
  s.check();
  EXPECT_TRUE(is_pattern_symmetric(s));
  // Values of A survive.
  const auto dense_a = to_dense(a);
  const auto dense_s = to_dense(s);
  for (std::size_t i = 0; i < dense_a.size(); ++i) {
    if (dense_a[i] != 0.0) {
      EXPECT_DOUBLE_EQ(dense_s[i], dense_a[i]);
    }
  }
}

TEST(Adjacency, IsTheSymmetrizedPatternWithoutItsDiagonal) {
  // One-sided couplings in both triangles, a row with only transposed
  // entries, a missing diagonal and an isolated vertex.
  Coo c;
  c.n_rows = c.n_cols = 7;
  c.add(0, 0, 1.0);
  c.add(0, 3, 2.0);
  c.add(1, 1, 3.0);
  c.add(1, 0, 4.0);
  c.add(2, 5, 5.0);
  c.add(2, 6, 6.0);
  c.add(3, 0, 7.0);
  c.add(3, 3, 8.0);
  c.add(4, 1, 9.0);
  c.add(4, 2, 1.5);
  c.add(6, 6, 2.5);
  const Csr a = coo_to_csr(c);
  ASSERT_FALSE(is_pattern_symmetric(a));
  const Csr s = symmetrize_pattern(a);
  AdjacencyGraph want;
  want.n = s.n_rows;
  want.ptr.push_back(0);
  for (index_t r = 0; r < s.n_rows; ++r) {
    for (offset_t p = s.row_ptr[r]; p < s.row_ptr[r + 1]; ++p) {
      if (s.col_idx[p] != r) want.adj.push_back(s.col_idx[p]);
    }
    want.ptr.push_back(static_cast<offset_t>(want.adj.size()));
  }
  const AdjacencyGraph g = build_adjacency(a);
  EXPECT_EQ(g.n, want.n);
  EXPECT_EQ(g.ptr, want.ptr);
  EXPECT_EQ(g.adj, want.adj);
  EXPECT_EQ(g.degree(0), 2);  // 1 only through A^T, 3 both ways
  EXPECT_EQ(g.degree(5), 1);  // no row of its own
}

TEST(Convert, OutOfRangeEntryThrows) {
  Coo c;
  c.n_rows = c.n_cols = 2;
  c.add(0, 0, 1.0);
  c.entries.push_back({5, 0, 1.0});
  EXPECT_THROW(coo_to_csr(c), Error);
}

TEST(Ops, SpmvKnownResult) {
  const Csr a = coo_to_csr(small_coo());
  const std::vector<real_t> y = spmv(a, {1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 9.0);
}

TEST(Ops, InfNorms) {
  const Csr a = coo_to_csr(small_coo());
  EXPECT_DOUBLE_EQ(inf_norm(a), 9.0);  // row 2: |4| + |5|
  EXPECT_DOUBLE_EQ(inf_norm(std::vector<real_t>{-3, 2}), 3.0);
}

TEST(Ops, ScaledResidualZeroForExactSolve) {
  Coo c;
  c.n_rows = c.n_cols = 2;
  c.add(0, 0, 2.0);
  c.add(1, 1, 4.0);
  const Csr a = coo_to_csr(c);
  const std::vector<real_t> x{1.0, 2.0};
  const std::vector<real_t> b = spmv(a, x);
  EXPECT_NEAR(scaled_residual(a, x, b), 0.0, 1e-16);
}

TEST(Ops, MakeDiagDominantHolds) {
  Coo c;
  c.n_rows = c.n_cols = 3;
  c.add(0, 1, -10.0);
  c.add(1, 0, 6.0);
  c.add(1, 2, 7.0);
  c.add(2, 2, 0.5);
  const Csr a = make_diag_dominant(coo_to_csr(c));
  a.check();
  const auto d = to_dense(a);
  for (index_t r = 0; r < 3; ++r) {
    real_t diag = 0, off = 0;
    for (index_t cc = 0; cc < 3; ++cc) {
      const real_t v = d[static_cast<std::size_t>(r) * 3 + cc];
      if (r == cc) {
        diag = std::fabs(v);
      } else {
        off += std::fabs(v);
      }
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(Io, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "2 2 3\n"
      "1 1 1.5\n"
      "2 1 -2\n"
      "2 2 3\n");
  const Coo c = read_matrix_market(in);
  EXPECT_EQ(c.n_rows, 2);
  EXPECT_EQ(c.nnz(), 3);
  const Csr a = coo_to_csr(c);
  EXPECT_DOUBLE_EQ(to_dense(a)[0], 1.5);
}

TEST(Io, SymmetricExpansion) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 1\n"
      "2 1 5\n");
  const Coo c = read_matrix_market(in);
  EXPECT_EQ(c.nnz(), 3);  // off-diagonal mirrored
  const auto d = to_dense(coo_to_csr(c));
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
}

TEST(Io, PatternGetsUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "1 1 1\n"
      "1 1\n");
  const Coo c = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(c.entries[0].value, 1.0);
}

TEST(Io, RoundTrip) {
  const Coo c0 = small_coo();
  std::ostringstream out;
  write_matrix_market(out, c0);
  std::istringstream in(out.str());
  const Coo c1 = read_matrix_market(in);
  const auto d0 = to_dense(coo_to_csr(c0));
  const auto d1 = to_dense(coo_to_csr(c1));
  EXPECT_EQ(d0, d1);
}

TEST(Io, MalformedInputsThrow) {
  std::istringstream bad_banner("%%NotMM matrix coordinate real general\n");
  EXPECT_THROW(read_matrix_market(bad_banner), Error);
  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1\n");
  EXPECT_THROW(read_matrix_market(truncated), Error);
  std::istringstream range(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1\n");
  EXPECT_THROW(read_matrix_market(range), Error);
}

// Every corruption yields a descriptive th::Error naming the offending
// line — never a silent zero-filled matrix or an allocation blow-up.
TEST(Io, CorruptFixturesThrowDescriptiveErrors) {
  auto expect_error_containing = [](const std::string& text,
                                    const std::string& needle) {
    std::istringstream in(text);
    try {
      read_matrix_market(in);
      FAIL() << "expected th::Error mentioning '" << needle << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };

  expect_error_containing("", "empty Matrix Market stream");
  expect_error_containing("%%MatrixMarket tensor coordinate real general\n",
                          "unsupported object");
  expect_error_containing("%%MatrixMarket matrix array real general\n",
                          "coordinate");
  expect_error_containing(
      "%%MatrixMarket matrix coordinate complex general\n", "field");
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real hermitian\n", "symmetry");
  // Header only; the size line never arrives.
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "% just comments\n",
      "missing size line");
  // Size line that is not three integers.
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 banana 3\n",
      "malformed size line");
  // Negative / zero dimensions.
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "-4 2 1\n",
      "bad size line");
  // Dimensions that overflow index_t must be rejected, not truncated.
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "80000000000 80000000000 1\n",
      "overflow index_t");
  // An absurd entry count with no data reports truncation (and must not
  // try to reserve 9e18 triplets first).
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 9000000000000000000\n",
      "truncated");
  // Entry line that is not parseable.
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 x 1.0\n",
      "malformed entry");
  // Real matrix with a missing value field.
  expect_error_containing(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1\n",
      "malformed entry");

  // Stray blank lines inside the entry list are tolerated, not fatal.
  std::istringstream blanks(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "\n"
      "2 2 4.0\n");
  EXPECT_EQ(read_matrix_market(blanks).nnz(), 2);
}

}  // namespace
}  // namespace th
