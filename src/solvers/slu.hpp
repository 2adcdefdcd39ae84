// SLU — the SuperLU_DIST-style supernodal solver core.
//
// Columns with nested fill patterns are merged into supernodes (capped
// width, as SuperLU's maxsup tuning in the paper). Each supernode owns
// three dense panels assembled from the reordered matrix:
//
//     diag   (w x w)   pivot block,
//     L      (m x w)   rows below the supernode (fill pattern of its first
//                      column), grouped into *segments* by the supernode
//                      each row belongs to,
//     U      (w x m)   columns right of the supernode — by structural
//                      symmetry of the (symmetrized) fill, the U column set
//                      equals the L row set.
//
// Tasks are per segment: GETRF on diag, one TSTRF per L segment, one GEESM
// per U segment, and one SSSSM per (L segment, U segment) pair that
// scatter-adds into the destination supernode — the classic right-looking
// supernodal update, which is exactly SuperLU's fine-grained task soup the
// Trojan Horse aggregates (the paper reports 12.9M kernels for c-71).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/scheduler.hpp"
#include "solvers/block_cyclic.hpp"
#include "symbolic/supernodes.hpp"

namespace th {

struct SluOptions {
  index_t max_supernode = 32;  // paper uses 256 at SuiteSparse scale; our
                               // stand-ins are ~50x smaller
  index_t relax_slack = 3;     // relaxed-supernode amalgamation slack
  ProcessGrid grid;
};

class SluFactorization {
 public:
  SluFactorization(const Csr& a, const SluOptions& opts);
  ~SluFactorization();

  const TaskGraph& graph() const { return graph_; }
  /// Re-map task ownership to `grid` (no other instance shares this DAG).
  void set_grid(const ProcessGrid& grid) {
    graph_ = with_owners(std::move(graph_), grid);
  }
  NumericBackend& backend();
  const SupernodePartition& supernodes() const { return part_; }

  /// A run of supernode s's `below` rows owned by one target supernode.
  struct Segment {
    index_t target_sn;  // supernode the rows belong to
    index_t pos0;       // first position within below_rows
    index_t pos1;       // one past last position
    index_t size() const { return pos1 - pos0; }
  };
  /// Supernode s's rows below its columns, sorted, and their segments.
  const std::vector<index_t>& below(index_t s) const { return sn_[s].below; }
  const std::vector<Segment>& segments(index_t s) const {
    return sn_[s].segments;
  }

  /// Exact nnz(L+U) of the supernodal data structure (panel entries,
  /// diagonal counted once).
  offset_t nnz_lu() const;

  /// Triangular solves with the computed factors (permuted ordering).
  std::vector<real_t> solve(const std::vector<real_t>& b) const;

  /// Every stored factor value, supernode by supernode (diagonal block,
  /// L panel, U panel) — for bitwise comparisons across runs.
  std::vector<real_t> values() const;

 private:
  class Backend;
  friend class Backend;

  struct Supernode {
    index_t c0, c1;                 // column range [c0, c1)
    std::vector<index_t> below;     // rows below the supernode, sorted
    std::vector<Segment> segments;  // grouping of `below` by supernode
    // Dense column-major panels.
    std::vector<real_t> diag;  // w x w
    std::vector<real_t> lpan;  // m x w
    std::vector<real_t> upan;  // w x m

    index_t width() const { return c1 - c0; }
    index_t m() const { return static_cast<index_t>(below.size()); }
  };

  SluOptions opts_;
  SupernodePartition part_;
  std::vector<Supernode> sn_;
  std::unique_ptr<Backend> backend_;
  TaskGraph graph_;

  // Locate position of global row r in supernode s's `below` list; -1 if
  // absent.
  index_t below_pos(index_t s, index_t r) const;

  void assemble(const Csr& a);
  void build_graph();
};

}  // namespace th
