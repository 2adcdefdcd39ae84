#include "resilience/validate.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "support/error.hpp"

namespace th {

namespace {

// Keep reports bounded under chaos soak; the count in summary() still
// reflects every violation found.
constexpr std::size_t kMaxIssues = 64;

// Slack for recomputed time comparisons. The validator re-prices
// communication with the exact code path the scheduler used, so
// comparisons are bit-identical in practice; the epsilon only guards
// against summation-order drift if the scheduler evolves.
constexpr real_t kEps = 1e-12;

#define TH_VALIDATE_ISSUE(rep, msg)                 \
  do {                                              \
    if ((rep).issues.size() < kMaxIssues) {         \
      std::ostringstream os_;                       \
      os_ << msg;                                   \
      (rep).issues.push_back(os_.str());            \
    }                                               \
  } while (0)

// One task execution attempt in the trace: record index + outcome status.
struct Appearance {
  index_t record = 0;
  char status = 0;  // 0 completed, 1 transient fault, 2 lost to restart,
                    // 3 corrupt output (ABFT) — rolled back, retried later
};

}  // namespace

std::string ValidationReport::summary() const {
  std::ostringstream os;
  os << issues.size() << " schedule invariant violation(s)";
  for (const std::string& s : issues) os << "\n  - " << s;
  if (issues.size() == kMaxIssues) os << "\n  - ... (list capped)";
  return os.str();
}

ValidationReport validate_schedule(const TaskGraph& graph,
                                   const ScheduleOptions& opt,
                                   const ScheduleResult& result) {
  ValidationReport rep;
  const auto& recs = result.trace.records();
  const index_t n = graph.size();
  const std::size_t nrec = recs.size();
  rep.checked_batches = static_cast<offset_t>(nrec);

  // ---- Structure: trace and batch log must agree -----------------------
  const ScheduleStats& stats = result.stats();
  const BatchLog& blog = stats.batches;
  if (blog.size() != nrec) {
    TH_VALIDATE_ISSUE(
        rep, "batch log does not match the trace ("
                 << nrec << " kernels, " << blog.size()
                 << " logged batches) — was the schedule produced with "
                    "collect_batches/validate on?");
    return rep;  // everything below keys off batch membership
  }

  const CheckpointState* base = opt.resume ? &*opt.resume : nullptr;
  if (base != nullptr && base->n_tasks != n) {
    TH_VALIDATE_ISSUE(rep, "resume snapshot is for " << base->n_tasks
                                                     << " tasks, graph has "
                                                     << n);
    return rep;
  }

  // Communication lower bound, priced exactly as the scheduler does
  // (alpha-beta link model with the fault plan's per-node-pair derate).
  const FaultPlan& plan = opt.faults;
  auto comm_lb = [&](int src, int dst, offset_t bytes) -> real_t {
    if (src == dst) return 0;
    const real_t derate =
        plan.empty() ? 1.0
                     : plan.link_bw_factor(opt.cluster.node_of(src),
                                           opt.cluster.node_of(dst));
    return opt.cluster.comm_seconds(src, dst, bytes, derate);
  };

  std::vector<std::vector<Appearance>> apps(static_cast<std::size_t>(n));
  std::vector<index_t> batch_stamp(static_cast<std::size_t>(n), -1);
  offset_t status1 = 0, status2 = 0, status3 = 0;

  for (std::size_t k = 0; k < nrec; ++k) {
    const KernelRecord& r = recs[k];
    const auto& members = blog[k].members;
    const auto& status = blog[k].status;
    if (r.rank < 0 || r.rank >= opt.n_ranks) {
      TH_VALIDATE_ISSUE(rep, "kernel " << k << " on out-of-range rank "
                                       << r.rank);
      continue;
    }
    if (!(r.start_s >= 0) || !(r.end_s >= r.start_s)) {
      TH_VALIDATE_ISSUE(rep, "kernel " << k << " has a malformed interval ["
                                       << r.start_s << ", " << r.end_s
                                       << ")");
    }
    if (members.empty() ||
        members.size() != status.size() ||
        static_cast<int>(members.size()) != r.tasks) {
      TH_VALIDATE_ISSUE(rep, "kernel " << k << " claims " << r.tasks
                                       << " tasks but lists "
                                       << members.size() << " members / "
                                       << status.size() << " statuses");
      continue;
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      const index_t id = members[i];
      if (id < 0 || id >= n) {
        TH_VALIDATE_ISSUE(rep,
                          "kernel " << k << " member " << id << " out of range");
        continue;
      }
      if (batch_stamp[id] == static_cast<index_t>(k)) {
        TH_VALIDATE_ISSUE(rep, "task " << id << " appears twice in kernel "
                                       << k);
        continue;
      }
      batch_stamp[id] = static_cast<index_t>(k);
      if (status[i] < 0 || status[i] > 3) {
        TH_VALIDATE_ISSUE(rep, "kernel " << k << " member " << id
                                         << " has unknown status "
                                         << static_cast<int>(status[i]));
        continue;
      }
      status1 += (status[i] == 1);
      status2 += (status[i] == 2);
      status3 += (status[i] == 3);
      apps[id].push_back({static_cast<index_t>(k), status[i]});
    }
  }

  // ---- Completion: every task completes exactly once -------------------
  // (pre-completed tasks of a resumed run complete zero times; extra
  // appearances are exactly the retried / lost-and-re-executed ones).
  for (index_t id = 0; id < n; ++id) {
    const bool pre_done = base != nullptr && base->done[id] != 0;
    if (pre_done) {
      if (!apps[id].empty()) {
        TH_VALIDATE_ISSUE(rep, "task " << id
                                       << " was complete in the resume "
                                          "snapshot but re-executed");
      }
      continue;
    }
    int completions = 0;
    // Status 1 (faulted) and status 3 (corrupt, rolled back) attempts are
    // non-completions — their output never survived.
    for (const Appearance& a : apps[id])
      completions += (a.status != 1 && a.status != 3);
    if (completions == 0) {
      TH_VALIDATE_ISSUE(rep, "task " << id << " never completed");
      continue;
    }
    // Appearances are pushed in event order; the last one must be the
    // surviving completion (status 0), everything before it a retry or
    // lost execution.
    if (apps[id].back().status != 0) {
      TH_VALIDATE_ISSUE(rep,
                        "task " << id
                                << "'s final appearance has status "
                                << static_cast<int>(apps[id].back().status)
                                << " (expected a surviving completion)");
    }
    int finals = 0;
    for (const Appearance& a : apps[id]) finals += (a.status == 0);
    if (finals != 1) {
      TH_VALIDATE_ISSUE(rep, "task " << id << " has " << finals
                                     << " surviving completions");
    }
  }

  // ---- Precedence + communication --------------------------------------
  // Every execution attempt of a task (including the ones that later
  // fault or are lost) must start after each DAG predecessor had, at that
  // point, some completed execution — plus the link cost if that
  // execution ran on a different rank. "Some" matters: work lost to a
  // rank restart legitimately fed consumers that ran before the loss.
  for (index_t id = 0; id < n; ++id) {
    if (apps[id].empty()) continue;
    auto [pb, pe] = graph.predecessors(id);
    for (const Appearance& a : apps[id]) {
      const KernelRecord& ar = recs[a.record];
      for (const index_t* pp = pb; pp != pe; ++pp) {
        const index_t p = *pp;
        const offset_t bytes = graph.task(p).out_bytes;
        ++rep.checked_edges;
        bool satisfied = false;
        if (base != nullptr && base->done[p] != 0) {
          const real_t f = base->finish_time[p];
          satisfied = f + comm_lb(base->owner[p], ar.rank, bytes) <=
                      ar.start_s + kEps;
        }
        for (std::size_t j = 0; !satisfied && j < apps[p].size(); ++j) {
          if (apps[p][j].status == 1 || apps[p][j].status == 3)
            continue;  // faulted / rolled-back attempt: no surviving output
          const KernelRecord& prr = recs[apps[p][j].record];
          satisfied = prr.end_s + comm_lb(prr.rank, ar.rank, bytes) <=
                      ar.start_s + kEps;
        }
        if (!satisfied) {
          TH_VALIDATE_ISSUE(
              rep, "task " << id << " (kernel " << a.record << ", rank "
                           << ar.rank << ", start " << ar.start_s
                           << ") ran before predecessor " << p
                           << " finished + shipped its block");
        }
      }
    }
  }

  // ---- Resource exclusivity --------------------------------------------
  // Kernels on one rank never overlap; the multi-stream policy may keep up
  // to n_streams kernels in flight per rank (host launches still ordered).
  {
    const int lanes = opt.policy == Policy::kMultiStream
                          ? std::max(1, opt.n_streams)
                          : 1;
    std::vector<std::vector<index_t>> by_rank(
        static_cast<std::size_t>(opt.n_ranks));
    for (std::size_t k = 0; k < nrec; ++k) {
      if (recs[k].rank >= 0 && recs[k].rank < opt.n_ranks) {
        by_rank[static_cast<std::size_t>(recs[k].rank)].push_back(
            static_cast<index_t>(k));
      }
    }
    for (int r = 0; r < opt.n_ranks; ++r) {
      auto& ks = by_rank[static_cast<std::size_t>(r)];
      std::sort(ks.begin(), ks.end(), [&](index_t a, index_t b) {
        if (recs[a].start_s != recs[b].start_s) {
          return recs[a].start_s < recs[b].start_s;
        }
        return a < b;
      });
      std::priority_queue<real_t, std::vector<real_t>, std::greater<>>
          in_flight;  // end times of kernels still running
      for (index_t k : ks) {
        while (!in_flight.empty() &&
               in_flight.top() <= recs[k].start_s + kEps) {
          in_flight.pop();
        }
        if (static_cast<int>(in_flight.size()) >= lanes) {
          TH_VALIDATE_ISSUE(rep, "rank " << r << " runs more than " << lanes
                                         << " concurrent kernel(s) at t="
                                         << recs[k].start_s << " (kernel "
                                         << k << ")");
        }
        in_flight.push(recs[k].end_s);
      }
    }
  }

  // ---- Rank death: a migrated-away rank launches nothing afterwards ----
  // (kCpuFallback ranks keep launching; kRestartFromCheckpoint ranks come
  // back after their restore, so only permanent kMigrate deaths are
  // checkable. The multi-stream policy records kernel *start*, which can
  // legitimately trail a pre-death launch, so it is exempt.)
  if (!plan.rank_failures.empty() && opt.policy != Policy::kMultiStream) {
    std::vector<RankFailure> failures = plan.rank_failures;
    std::stable_sort(failures.begin(), failures.end(), fault_order_less);
    std::vector<char> degraded(static_cast<std::size_t>(opt.n_ranks), 0);
    std::vector<real_t> dead_at(static_cast<std::size_t>(opt.n_ranks),
                                -1.0);
    for (const RankFailure& f : failures) {
      if (f.rank < 0 || f.rank >= opt.n_ranks) continue;
      const auto fr = static_cast<std::size_t>(f.rank);
      if (degraded[fr]) continue;
      degraded[fr] = 1;
      if (f.recovery == RankRecovery::kMigrate) dead_at[fr] = f.time_s;
    }
    for (std::size_t k = 0; k < nrec; ++k) {
      const KernelRecord& r = recs[k];
      if (r.rank < 0 || r.rank >= opt.n_ranks) continue;
      const real_t death = dead_at[static_cast<std::size_t>(r.rank)];
      if (death >= 0 && r.start_s >= death) {
        TH_VALIDATE_ISSUE(rep, "rank " << r.rank << " died at t=" << death
                                       << " but launched kernel " << k
                                       << " at t=" << r.start_s);
      }
    }
  }

  // ---- Result aggregates match the trace --------------------------------
  if (result.makespan_s != result.trace.makespan_seconds()) {
    TH_VALIDATE_ISSUE(rep, "makespan_s " << result.makespan_s
                                         << " != trace makespan "
                                         << result.trace.makespan_seconds());
  }
  if (result.kernel_count != static_cast<offset_t>(nrec)) {
    TH_VALIDATE_ISSUE(rep, "kernel_count " << result.kernel_count << " != "
                                           << nrec << " trace records");
  }
  if (stats.ranks.size() == static_cast<std::size_t>(opt.n_ranks)) {
    std::vector<offset_t> kernels(static_cast<std::size_t>(opt.n_ranks), 0);
    for (const KernelRecord& r : recs) {
      if (r.rank >= 0 && r.rank < opt.n_ranks) {
        ++kernels[static_cast<std::size_t>(r.rank)];
      }
    }
    for (int r = 0; r < opt.n_ranks; ++r) {
      if (stats.ranks[static_cast<std::size_t>(r)].kernels !=
          kernels[static_cast<std::size_t>(r)]) {
        TH_VALIDATE_ISSUE(
            rep, "rank " << r << " stats claim "
                         << stats.ranks[static_cast<std::size_t>(r)].kernels
                         << " kernels, trace has "
                         << kernels[static_cast<std::size_t>(r)]);
      }
    }
  } else {
    TH_VALIDATE_ISSUE(rep, "per-rank stats sized " << stats.ranks.size()
                                                   << ", expected "
                                                   << opt.n_ranks);
  }

  // ---- Write conflicts match the batch members --------------------------
  // A batch conflicts exactly when two or more SSSSM members update one
  // (row, col) tile, and every such member counts toward atomic_tasks.
  // With atomic batching off the Trojan Horse defers the second update
  // instead; the CPU model's bulk steps still take every ready task.
  {
    offset_t conflicting = 0;
    std::unordered_map<std::uint64_t, offset_t> writers;  // tile -> members
    for (std::size_t k = 0; k < nrec; ++k) {
      writers.clear();
      for (const index_t id : blog[k].members) {
        if (id < 0 || id >= n) continue;
        const Task& t = graph.task(id);
        if (t.type != TaskType::kSsssm) continue;
        ++writers[t.target_key()];
      }
      offset_t in_batch = 0;
      for (const auto& [tile, members] : writers) {
        if (members > 1) in_batch += members;
      }
      conflicting += in_batch;
      if ((in_batch > 0) != blog[k].had_conflict) {
        TH_VALIDATE_ISSUE(rep, "kernel " << k << " has " << in_batch
                                         << " write-conflicting SSSSM "
                                            "member(s) but had_conflict is "
                                         << blog[k].had_conflict);
      }
      if (in_batch > 0 && !opt.allow_atomic_batching && !opt.cpu_mode) {
        TH_VALIDATE_ISSUE(rep, "kernel " << k << " batches " << in_batch
                                         << " write-conflicting SSSSM "
                                            "member(s) with atomic batching "
                                            "off");
      }
    }
    if (conflicting != result.atomic_tasks) {
      TH_VALIDATE_ISSUE(rep, "atomic_tasks " << result.atomic_tasks
                                             << " != " << conflicting
                                             << " write-conflicting members "
                                                "in the batch log");
    }
  }

  // ---- Fault accounting balances ----------------------------------------
  const FaultReport& fr = stats.faults;
  const FaultReport zero;
  const FaultReport& b = base != nullptr ? base->report : zero;
  // Guards also catch *genuine* numerical breakdowns (not just planted
  // corruptions), so handled() may legitimately exceed injected(); only an
  // injected fault nothing absorbed is an invariant violation.
  if (fr.injected() > fr.handled() + fr.fatal_faults) {
    TH_VALIDATE_ISSUE(rep, "fault accounting out of balance: injected "
                               << fr.injected() << " > handled "
                               << fr.handled() << " + fatal "
                               << fr.fatal_faults);
  }
  if (fr.transient_faults - b.transient_faults != status1) {
    TH_VALIDATE_ISSUE(rep, "report claims "
                               << fr.transient_faults - b.transient_faults
                               << " transient faults, trace shows "
                               << status1);
  }
  if (fr.retries - b.retries != status1) {
    TH_VALIDATE_ISSUE(rep, "report claims " << fr.retries - b.retries
                                            << " retries for " << status1
                                            << " faulted attempts");
  }
  if (fr.tasks_restarted - b.tasks_restarted != status2) {
    TH_VALIDATE_ISSUE(rep, "report claims "
                               << fr.tasks_restarted - b.tasks_restarted
                               << " restarted tasks, trace shows "
                               << status2 << " lost executions");
  }
  // ABFT balance: every status-3 appearance is a rolled-back-and-retried
  // corrupt member, and vice versa (resumed runs replay timing only, so no
  // base offset exists — status3 is 0 there).
  if (stats.abft.retries != status3) {
    TH_VALIDATE_ISSUE(rep, "report claims " << stats.abft.retries
                                            << " abft retries, trace shows "
                                            << status3
                                            << " corrupt-retried members");
  }
  if (stats.abft.corrupt_detected <
      stats.abft.retries + stats.abft.exhausted) {
    TH_VALIDATE_ISSUE(rep,
                      "abft accounting out of balance: detected "
                          << stats.abft.corrupt_detected << " < retried "
                          << stats.abft.retries << " + exhausted "
                          << stats.abft.exhausted);
  }
  if (fr.checkpoints_taken - b.checkpoints_taken > 0 &&
      !opt.checkpoint.enabled()) {
    TH_VALIDATE_ISSUE(rep,
                      "report claims "
                          << fr.checkpoints_taken - b.checkpoints_taken
                          << " new checkpoints with checkpointing disabled");
  }
  if (fr.ranks_failed >
      b.ranks_failed + static_cast<int>(plan.rank_failures.size())) {
    TH_VALIDATE_ISSUE(rep, "report claims " << fr.ranks_failed
                                            << " rank failures, plan holds "
                                            << plan.rank_failures.size());
  }

  return rep;
}

void check_schedule(const TaskGraph& graph, const ScheduleOptions& opt,
                    const ScheduleResult& result) {
  const ValidationReport rep = validate_schedule(graph, opt, result);
  TH_CHECK_MSG(rep.ok(), "invalid schedule: " << rep.summary());
}

#undef TH_VALIDATE_ISSUE

}  // namespace th
