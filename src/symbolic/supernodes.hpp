// Supernodal symbolic analysis: the fundamental supernodes of L and their
// row sets, from one pass over the adjacency graph and its etree, plus the
// (relaxed, width-capped) supernode partition the SuperLU-like solver core
// factors by. A supernode is a range of consecutive columns whose L
// patterns are (nearly) nested, so the panel can be stored dense and
// updated with level-3 kernels. Both solver cores read their structure
// from here; neither ever forms the scalar pattern of L.
#pragma once

#include <span>
#include <vector>

#include "symbolic/etree.hpp"

namespace th {

struct SupernodePartition {
  /// start[s]..start[s+1]-1 are the columns of supernode s.
  std::vector<index_t> start;       // size n_supernodes + 1
  std::vector<index_t> sn_of_col;   // size n

  index_t count() const { return static_cast<index_t>(start.size()) - 1; }
  index_t width(index_t s) const { return start[s + 1] - start[s]; }
};

/// L's structure as fundamental supernodes: column j shares the supernode
/// of column j-1 iff parent(j-1) == j and column j adds no row, so every
/// column j of supernode s has the structure rows(s) ∩ [j, n). rows(s)
/// lists s's own columns first, then the rows below them, ascending. This
/// is the structure of A's symmetrized pattern, as symbolic_fill gives it
/// column by column, in a fraction of the memory.
struct SupernodalStructure {
  SupernodePartition part;        // the fundamental supernodes
  std::vector<offset_t> row_ptr;  // rows(s) = rows[row_ptr[s], row_ptr[s+1])
  std::vector<index_t> rows;

  index_t n() const { return static_cast<index_t>(part.sn_of_col.size()); }
  std::span<const index_t> rows_of(index_t s) const {
    return {rows.data() + row_ptr[s],
            static_cast<std::size_t>(row_ptr[s + 1] - row_ptr[s])};
  }
  /// L's column j, diagonal first: the suffix of its supernode's rows.
  std::span<const index_t> column(index_t j) const {
    const index_t s = part.sn_of_col[j];
    return rows_of(s).subspan(static_cast<std::size_t>(j - part.start[s]));
  }
  offset_t col_count(index_t j) const {
    return static_cast<offset_t>(column(j).size());
  }
};

/// One pass over g (the adjacency of P A P^T) and its etree t. A column
/// that opens a supernode merges its adjacency with its child supernodes'
/// row sets, never with per-column lists: O(|A| + Σ|rows(s)| log) time.
SupernodalStructure supernodal_symbolic(const AdjacencyGraph& g,
                                        const EliminationTree& t);

/// (Relaxed) supernodes with a maximum width cap (the paper tunes
/// SuperLU's max supernode size to 256). Column j joins the supernode of
/// j-1 iff parent(j-1) == j in the etree, column j has at most relax_slack
/// rows that column j-1 lacks (col_count(j) <= col_count(j-1) - 1 +
/// relax_slack; exact pattern nesting when relax_slack == 0), and the cap
/// is not exceeded. Relaxation (amalgamation) trades a small amount of
/// explicit-zero padding for wider panels — exactly SuperLU's "relaxed
/// supernodes". Padded entries remain exact zeros through factorisation,
/// so numerics are unaffected.
SupernodePartition find_supernodes(const SupernodalStructure& sym,
                                   const EliminationTree& etree,
                                   index_t max_size = 256,
                                   index_t relax_slack = 0);

/// Row structure of a supernode panel: the sorted union of its member
/// columns' patterns. For fundamental (slack 0) supernodes this equals
/// the first column's pattern; relaxed supernodes may add padding rows.
/// The first width(s) entries are always the supernode's own columns.
std::vector<index_t> supernode_rows(const SupernodalStructure& sym,
                                    const SupernodePartition& part,
                                    index_t s);

}  // namespace th
