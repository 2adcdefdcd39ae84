// Checkpoint/restart for the schedule simulator (`th::resilience` piece 1).
//
// Long factorisations on real clusters survive rank loss by periodically
// writing the factorisation frontier to durable storage; task-based solver
// runtimes (PaStiX/StarPU lineage) treat exactly this restartable state as
// first-class. This header defines:
//
//   * CheckpointPolicy — when to checkpoint: a fixed interval, or an auto
//     mode that picks the interval from the Young/Daly first-order
//     approximation  T_opt = sqrt(2 * C * MTBF)  given the FaultPlan's
//     failure rate. Write and restore pauses are priced into the simulated
//     timeline and accounted in FaultReport.
//   * CheckpointState — a coordinated snapshot of scheduler progress (the
//     completed-task frontier with finish times, the effective owner map,
//     per-rank clocks and pending arrivals). simulate() captures one at
//     every checkpoint instant; RankRecovery::kRestartFromCheckpoint
//     resumes a dead rank from the latest snapshot, and
//     ScheduleOptions::resume restarts a whole run from one so the
//     remaining schedule replays bit-identically.
//   * A binary on-disk format for CheckpointState and FaultReport, built
//     on the same framing helpers as solvers/serialize.* (support/binio).
//
// Layering note: this header is include-only from th_core (the scheduler
// embeds the types); the save/load bodies live in th_resilience, which is
// linked cyclically with th_core (static libraries, CMake repeats them).
#pragma once

#include <cmath>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "support/types.hpp"

namespace th {

/// First-order optimal checkpoint interval (Young 1974 / Daly 2006):
/// sqrt(2 * write_cost * MTBF). Returns 0 (checkpointing off) when either
/// input is non-positive.
inline real_t young_daly_interval(real_t write_cost_s, real_t mtbf_s) {
  if (write_cost_s <= 0 || mtbf_s <= 0) return 0;
  return std::sqrt(2.0 * write_cost_s * mtbf_s);
}

struct CheckpointPolicy {
  enum class Mode : std::uint8_t {
    kOff,       // never checkpoint (the default; zero-overhead path)
    kInterval,  // coordinated checkpoint every interval_s of simulated time
    kAuto,      // interval from young_daly_interval(write_cost_s, MTBF)
  };
  Mode mode = Mode::kOff;
  real_t interval_s = 0;        // kInterval: checkpoint cadence
  real_t write_cost_s = 100e-6; // simulated pause per alive rank per write
  real_t restore_cost_s = 500e-6;  // restart: reload the last snapshot
  /// kAuto: overrides the FaultPlan-derived MTBF estimate when positive.
  real_t mtbf_hint_s = 0;

  bool enabled() const { return mode != Mode::kOff; }

  /// The effective cadence for a plan (0 = checkpointing stays off).
  real_t effective_interval_s(const FaultPlan& plan) const {
    switch (mode) {
      case Mode::kOff:
        return 0;
      case Mode::kInterval:
        return interval_s;
      case Mode::kAuto:
        return young_daly_interval(
            write_cost_s,
            mtbf_hint_s > 0 ? mtbf_hint_s : plan.estimated_mtbf_s());
    }
    return 0;
  }

  /// Throws th::Error on nonsensical configurations.
  void validate() const;
};

/// A coordinated snapshot of simulate() progress, captured at the first
/// quiescent scheduling point at or after each checkpoint instant. Enough
/// state that a resumed simulation replays the remaining schedule
/// bit-identically (heap container discipline; see DESIGN.md §9).
struct CheckpointState {
  real_t time_s = 0;    // checkpoint instant (k * interval)
  index_t n_tasks = 0;
  int n_ranks = 0;
  int n_streams = 0;    // stream lanes per rank (kMultiStream)

  std::vector<char> done;          // [n_tasks] completed-task frontier
  std::vector<real_t> finish_time; // [n_tasks] finish of completed tasks
  std::vector<int> attempts;       // [n_tasks] failed transient attempts
  std::vector<int> owner;          // [n_tasks] effective owner map

  struct Pending {
    index_t id = -1;
    real_t arrival_s = 0;  // when the task becomes launchable on its owner
  };
  std::vector<Pending> pending;    // ready-but-incomplete tasks

  std::vector<real_t> rank_free;   // [n_ranks] device busy-until clocks
  std::vector<real_t> stream_free; // [n_ranks * n_streams] lane clocks
  std::vector<char> rank_dead;     // [n_ranks]
  std::vector<char> rank_cpu;      // [n_ranks]

  index_t failures_applied = 0;    // rank failures already processed
  std::vector<char> numeric_pending;  // planted corruptions not yet fired

  /// Fault accounting up to the checkpoint; a resumed run continues from
  /// these counters so full-run and resumed reports agree.
  FaultReport report;

  bool empty() const { return n_tasks == 0; }
};

// ---- On-disk formats ------------------------------------------------------

/// Checkpoint format "THCK" version 3: one CRC32C-framed record
/// (bin::RecordWriter layout) holding the schedule state, immediately
/// followed by a framed "THFR" record with the fault report. Every field
/// is written explicitly (no struct padding), so one logical state always
/// saves to the same bytes; version 2 files fail the load. Bit rot
/// anywhere in either record fails the load as bin::IoError with the
/// record's byte offset and the failing field's name.
void save_checkpoint(std::ostream& out, const CheckpointState& s);
/// Crash-safe file write: temp file + fsync + atomic rename + directory
/// fsync (fsio::atomic_write_file), so an interrupted write can never
/// leave a half-written checkpoint a later --resume trusts.
void save_checkpoint_file(const std::string& path, const CheckpointState& s);
/// Throws bin::IoError on truncation, bad magic, a version mismatch or a
/// CRC32C failure; th::Error on semantically inconsistent state.
CheckpointState load_checkpoint(std::istream& in);
CheckpointState load_checkpoint_file(const std::string& path);

/// FaultReport format "THFR" version 2 (CRC32C-framed; appended to
/// checkpoints and usable standalone for archiving bench/chaos results).
void save_fault_report(std::ostream& out, const FaultReport& r);
FaultReport load_fault_report(std::istream& in);

}  // namespace th
