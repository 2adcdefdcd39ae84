#include "resilience/checkpoint.hpp"

#include <fstream>
#include <limits>

#include "support/binio.hpp"
#include "support/error.hpp"
#include "support/fsio.hpp"

namespace th {

namespace {

constexpr char kCkptMagic[4] = {'T', 'H', 'C', 'K'};
constexpr std::uint32_t kCkptVersion = 3;
constexpr char kReportMagic[4] = {'T', 'H', 'F', 'R'};
constexpr std::uint32_t kReportVersion = 2;
// Plausibility bound on a whole checkpoint payload: far beyond any
// simulated schedule, small enough to refuse a multi-GiB allocation from a
// corrupt length prefix.
constexpr std::uint64_t kMaxCkptPayload = 1ULL << 32;
constexpr std::uint64_t kMaxReportPayload = 1ULL << 16;

}  // namespace

void CheckpointPolicy::validate() const {
  if (!enabled()) return;
  TH_CHECK_MSG(write_cost_s >= 0,
               "checkpoint write cost must be >= 0, got " << write_cost_s);
  TH_CHECK_MSG(restore_cost_s >= 0,
               "checkpoint restore cost must be >= 0, got " << restore_cost_s);
  if (mode == Mode::kInterval) {
    TH_CHECK_MSG(interval_s > 0,
                 "interval checkpointing needs interval_s > 0, got "
                     << interval_s);
  }
  TH_CHECK_MSG(mtbf_hint_s >= 0,
               "mtbf_hint_s must be >= 0, got " << mtbf_hint_s);
}

void save_fault_report(std::ostream& out, const FaultReport& r) {
  bin::RecordWriter rec(kReportMagic, kReportVersion);
  rec.put(r.transient_faults);
  rec.put(r.retries);
  rec.put(r.backoff_delay_s);
  rec.put(r.ranks_failed);
  rec.put(r.tasks_migrated);
  rec.put(r.cpu_fallback_tasks);
  rec.put(r.numeric_faults_injected);
  rec.put(r.guards.nonfinite_scrubbed);
  rec.put(r.guards.pivots_perturbed);
  rec.put(r.guards.tasks_fired);
  rec.put<char>(r.escalate_refinement ? 1 : 0);
  rec.put(r.fault_free_makespan_s);
  rec.put(r.checkpoints_taken);
  rec.put(r.checkpoint_write_s);
  rec.put(r.restore_s);
  rec.put(r.ranks_restarted);
  rec.put(r.tasks_restarted);
  rec.put(r.fatal_faults);
  rec.finish(out);
}

FaultReport load_fault_report(std::istream& in) {
  bin::RecordReader rec(in, kReportMagic, kReportVersion, "fault report",
                        kMaxReportPayload);
  FaultReport r;
  r.transient_faults = rec.get<offset_t>("transient faults");
  r.retries = rec.get<offset_t>("retries");
  r.backoff_delay_s = rec.get<real_t>("backoff delay");
  r.ranks_failed = rec.get<int>("ranks failed");
  r.tasks_migrated = rec.get<offset_t>("tasks migrated");
  r.cpu_fallback_tasks = rec.get<offset_t>("cpu fallback tasks");
  r.numeric_faults_injected = rec.get<offset_t>("numeric faults");
  r.guards.nonfinite_scrubbed = rec.get<offset_t>("nonfinite scrubbed");
  r.guards.pivots_perturbed = rec.get<offset_t>("pivots perturbed");
  r.guards.tasks_fired = rec.get<offset_t>("guard tasks fired");
  r.escalate_refinement = rec.get<char>("escalate refinement") != 0;
  r.fault_free_makespan_s = rec.get<real_t>("fault-free makespan");
  r.checkpoints_taken = rec.get<int>("checkpoints taken");
  r.checkpoint_write_s = rec.get<real_t>("checkpoint write time");
  r.restore_s = rec.get<real_t>("restore time");
  r.ranks_restarted = rec.get<int>("ranks restarted");
  r.tasks_restarted = rec.get<offset_t>("tasks restarted");
  r.fatal_faults = rec.get<offset_t>("fatal faults");
  rec.finish();
  return r;
}

void save_checkpoint(std::ostream& out, const CheckpointState& s) {
  TH_CHECK_MSG(!s.empty(), "refusing to save an empty checkpoint");
  bin::RecordWriter rec(kCkptMagic, kCkptVersion);
  rec.put(s.time_s);
  rec.put(s.n_tasks);
  rec.put(s.n_ranks);
  rec.put(s.n_streams);
  rec.put_vector(s.done);
  rec.put_vector(s.finish_time);
  rec.put_vector(s.attempts);
  rec.put_vector(s.owner);
  // Pending entries go out field by field, never as raw structs: the
  // struct's padding bytes would carry stale heap contents into the file.
  std::vector<index_t> pending_id;
  std::vector<real_t> pending_arrival;
  for (const CheckpointState::Pending& p : s.pending) {
    pending_id.push_back(p.id);
    pending_arrival.push_back(p.arrival_s);
  }
  rec.put_vector(pending_id);
  rec.put_vector(pending_arrival);
  rec.put_vector(s.rank_free);
  rec.put_vector(s.stream_free);
  rec.put_vector(s.rank_dead);
  rec.put_vector(s.rank_cpu);
  rec.put(s.failures_applied);
  rec.put_vector(s.numeric_pending);
  rec.finish(out);
  save_fault_report(out, s.report);
  TH_CHECK_MSG(out.good(), "checkpoint write failed");
}

CheckpointState load_checkpoint(std::istream& in) {
  CheckpointState s;
  {
    bin::RecordReader rec(in, kCkptMagic, kCkptVersion, "checkpoint",
                          kMaxCkptPayload);
    s.time_s = rec.get<real_t>("time");
    s.n_tasks = rec.get<index_t>("task count");
    s.n_ranks = rec.get<int>("rank count");
    s.n_streams = rec.get<int>("stream count");
    TH_CHECK_MSG(s.n_tasks > 0 && s.n_ranks > 0 && s.n_streams > 0 &&
                     s.time_s >= 0,
                 "inconsistent checkpoint header (n_tasks=" << s.n_tasks
                     << ", n_ranks=" << s.n_ranks << ")");
    const auto nt = static_cast<std::uint64_t>(s.n_tasks);
    const auto nr = static_cast<std::uint64_t>(s.n_ranks);
    s.done = rec.get_vector<char>(nt, "done frontier");
    s.finish_time = rec.get_vector<real_t>(nt, "finish times");
    s.attempts = rec.get_vector<int>(nt, "attempts");
    s.owner = rec.get_vector<int>(nt, "owner map");
    const auto pending_id = rec.get_vector<index_t>(nt, "pending ids");
    const auto pending_arrival =
        rec.get_vector<real_t>(nt, "pending arrivals");
    TH_CHECK_MSG(pending_id.size() == pending_arrival.size(),
                 "checkpoint pending ids and arrivals differ in length");
    for (std::size_t i = 0; i < pending_id.size(); ++i) {
      s.pending.push_back({pending_id[i], pending_arrival[i]});
    }
    s.rank_free = rec.get_vector<real_t>(nr, "rank clocks");
    s.stream_free = rec.get_vector<real_t>(
        nr * static_cast<std::uint64_t>(s.n_streams), "stream clocks");
    s.rank_dead = rec.get_vector<char>(nr, "dead ranks");
    s.rank_cpu = rec.get_vector<char>(nr, "cpu ranks");
    s.failures_applied = rec.get<index_t>("failures applied");
    s.numeric_pending = rec.get_vector<char>(
        std::numeric_limits<std::uint32_t>::max(), "numeric pending");
    rec.finish();
  }
  s.report = load_fault_report(in);

  const auto nt = static_cast<std::uint64_t>(s.n_tasks);
  const auto nr = static_cast<std::uint64_t>(s.n_ranks);
  TH_CHECK_MSG(s.done.size() == nt && s.finish_time.size() == nt &&
                   s.attempts.size() == nt && s.owner.size() == nt,
               "checkpoint task arrays do not match n_tasks=" << s.n_tasks);
  TH_CHECK_MSG(s.rank_free.size() == nr && s.rank_dead.size() == nr &&
                   s.rank_cpu.size() == nr,
               "checkpoint rank arrays do not match n_ranks=" << s.n_ranks);
  for (const CheckpointState::Pending& p : s.pending) {
    TH_CHECK_MSG(p.id >= 0 && p.id < s.n_tasks && p.arrival_s >= 0,
                 "corrupt checkpoint pending entry (task " << p.id << ")");
    TH_CHECK_MSG(!s.done[static_cast<std::size_t>(p.id)],
                 "checkpoint lists completed task " << p.id << " as pending");
  }
  for (int o : s.owner) {
    TH_CHECK_MSG(o >= 0 && o < s.n_ranks,
                 "checkpoint owner " << o << " out of range");
  }
  return s;
}

void save_checkpoint_file(const std::string& path, const CheckpointState& s) {
  fsio::atomic_write_file(
      path, [&s](std::ostream& out) { save_checkpoint(out, s); });
}

CheckpointState load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TH_CHECK_MSG(in.good(), "cannot open " << path);
  return load_checkpoint(in);
}

}  // namespace th
