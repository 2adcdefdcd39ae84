// RhsBatcher — the admission/coalescing queue of the batched multi-RHS
// SpTRSV engine (`th::rhs`, DESIGN.md §15).
//
// Many pending right-hand sides — across requests and tenants sharing one
// factorization — are fused into a single block solve of configurable
// width. The close policy mirrors the paper's Collector: a batch closes
// when it reaches the configured width (kWidth), when its oldest entry has
// waited the configured timeout (kTimeout — latency protection for a
// trickle of arrivals), or when the caller flushes the queue (kFlush).
// Entries keep admission order inside a batch, and every entry carries its
// own deadline and a borrowed CancelToken so the executing engine can shed
// members at the batch boundary without running them.
//
// The width/timeout/flush close policy itself is the shared
// core::CoalesceQueue (`core/coalesce.hpp`); this class only adds the
// RHS-specific ticketing and arrival stamping on top.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/coalesce.hpp"
#include "rhs/solve_dag.hpp"
#include "support/cancel.hpp"

namespace th::rhs {

/// Engine/batcher configuration. The serve layer nests one of these on
/// ServeOptions (`--rhs-batch` on the CLI, spec::RhsSpec on the wire).
struct RhsOptions {
  /// Block-solve width cap: a batch closes as soon as this many right-hand
  /// sides are pending.
  index_t max_width = 16;
  /// Oldest-entry wait bound in virtual seconds before a partial batch
  /// closes anyway; 0 closes only on width or flush.
  real_t max_wait_s = 0;
  /// kPriorityDag (aggregate-and-batch) or kLevelSet (per-task baseline).
  SolveSchedule schedule = SolveSchedule::kPriorityDag;
  /// Inert: block solves are always bit-identical across worker counts
  /// and batch widths (tri_solve_in_order). Kept because the frozen
  /// perfbench harness still sets it.
  bool det = true;

  /// Throws th::Error on nonsensical configurations.
  void validate() const;
};

/// The close vocabulary is the shared one; rhs::CloseReason stays a valid
/// spelling for existing call sites.
using CloseReason = th::CloseReason;

const char* close_reason_name(CloseReason r);

/// One queued right-hand side.
struct RhsEntry {
  std::int64_t id = -1;   // batcher ticket (assigned by submit)
  std::uint64_t tag = 0;  // caller correlation (e.g. a serve RequestId)
  real_t arrival_s = 0;
  real_t deadline_s = CancelToken::kNoDeadline;
  /// Borrowed; may be null. Checked at the batch boundary only.
  const CancelToken* token = nullptr;
  /// The right-hand side in the factorization's permuted ordering (n).
  std::vector<real_t> b;
};

struct RhsBatch {
  std::vector<RhsEntry> members;  // admission order
  CloseReason reason = CloseReason::kFlush;
  real_t closed_s = 0;
};

class RhsBatcher {
 public:
  explicit RhsBatcher(const RhsOptions& opt);

  /// Enqueue an entry; returns its ticket id. `now_s` stamps the arrival
  /// when the entry carries none.
  std::int64_t submit(RhsEntry e, real_t now_s);

  bool empty() const { return cq_.empty(); }
  int depth() const { return static_cast<int>(cq_.depth()); }
  /// Arrival time of the oldest pending entry; kNoDeadline when empty.
  real_t oldest_arrival_s() const {
    return cq_.oldest_arrival_s(CancelToken::kNoDeadline);
  }

  /// Close policy: returns the next batch when `max_width` entries are
  /// pending (kWidth) or the oldest has waited `max_wait_s` (kTimeout);
  /// std::nullopt while the queue should keep coalescing.
  std::optional<RhsBatch> poll(real_t now_s);

  /// Close whatever is pending as a final (possibly narrow) batch.
  std::optional<RhsBatch> flush(real_t now_s);

 private:
  RhsOptions opt_;
  std::int64_t next_id_ = 0;
  CoalesceQueue<RhsEntry> cq_;
};

}  // namespace th::rhs
