// Schedule validator (`th::resilience` piece 2): post-hoc invariant
// checking over a simulated timeline.
//
// Aggressive scheduling (and aggressive fault recovery) is only safe to
// iterate on when every emitted schedule can be proven legal, independent
// of how it was produced. Given the TaskGraph, the options that produced a
// ScheduleResult and the result itself (with per-batch membership), the
// validator re-checks, from first principles:
//
//   * structure      — batch records and member/status arrays agree;
//   * completion     — every task completes exactly once; extra
//                      appearances are exactly the retried (transient
//                      fault) and restarted (lost-to-rank-death) ones the
//                      FaultReport claims;
//   * precedence     — every DAG predecessor's completing kernel ends at
//                      or before its consumer's start;
//   * communication  — a cross-rank dependency additionally waits out the
//                      alpha-beta link cost (with the fault plan's
//                      bandwidth derate applied);
//   * exclusivity    — kernels on one rank never overlap (at most
//                      n_streams overlap under the multi-stream policy);
//   * rank death     — a dead rank launches nothing after its failure;
//   * conflicts      — a batch's had_conflict flag is set exactly when two
//                      SSSSM members write one tile, never with atomic
//                      batching off (outside CPU mode), and the conflicting
//                      members sum to atomic_tasks;
//   * accounting     — injected == handled + fatal, and the per-kind
//                      counters match the timeline evidence.
//
// The checks are schedule-invariant: they hold for every policy, fault
// plan and checkpoint configuration, so the chaos harness can hammer
// randomized scenarios against one oracle.
#pragma once

#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace th {

struct ValidationReport {
  std::vector<std::string> issues;
  offset_t checked_batches = 0;
  offset_t checked_edges = 0;

  bool ok() const { return issues.empty(); }
  /// One line per issue (capped), prefixed with the issue count.
  std::string summary() const;
};

/// Validate a simulated timeline. Requires the result to carry batch
/// membership (ScheduleOptions::validate or collect_batches force this).
ValidationReport validate_schedule(const TaskGraph& graph,
                                   const ScheduleOptions& opt,
                                   const ScheduleResult& result);

/// Validate and throw th::Error with the summary when any invariant fails
/// (the `ScheduleOptions::validate` hook the scheduler calls).
void check_schedule(const TaskGraph& graph, const ScheduleOptions& opt,
                    const ScheduleResult& result);

}  // namespace th
