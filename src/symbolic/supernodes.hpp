// Supernode detection over the fill pattern — the structural grouping the
// SuperLU-like solver core factors by. A (relaxed) supernode is a range of
// consecutive columns whose L patterns are (nearly) nested, so the panel
// can be stored dense and updated with level-3 kernels.
#pragma once

#include <vector>

#include "symbolic/fill.hpp"

namespace th {

struct SupernodePartition {
  /// start[s]..start[s+1]-1 are the columns of supernode s.
  std::vector<index_t> start;       // size n_supernodes + 1
  std::vector<index_t> sn_of_col;   // size n

  index_t count() const { return static_cast<index_t>(start.size()) - 1; }
  index_t width(index_t s) const { return start[s + 1] - start[s]; }
};

/// (Relaxed) supernodes with a maximum width cap (the paper tunes
/// SuperLU's max supernode size to 256). Column j joins the supernode of
/// j-1 iff parent(j-1) == j in the etree, column j has at most relax_slack
/// rows that column j-1 lacks (col_count(j) <= col_count(j-1) - 1 +
/// relax_slack; exact pattern nesting when relax_slack == 0), and the cap
/// is not exceeded. Relaxation (amalgamation) trades a small amount of
/// explicit-zero padding for wider panels — exactly SuperLU's "relaxed
/// supernodes". Padded entries remain exact zeros through factorisation,
/// so numerics are unaffected.
SupernodePartition find_supernodes(const FillPattern& fill,
                                   const EliminationTree& etree,
                                   index_t max_size = 256,
                                   index_t relax_slack = 0);

/// Row structure of a supernode panel: the sorted union of its member
/// columns' fill patterns. For fundamental (slack 0) supernodes this equals
/// the first column's pattern; relaxed supernodes may add padding rows.
/// The first width(s) entries are always the supernode's own columns.
std::vector<index_t> supernode_rows(const FillPattern& fill,
                                    const SupernodePartition& part,
                                    index_t s);

}  // namespace th
