#include "serve/crash_soak.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#ifndef _WIN32
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "exec/backend.hpp"
#include "mem/tile_store.hpp"
#include "resilience/chaos_rng.hpp"
#include "serve/trace.hpp"
#include "support/binio.hpp"

namespace th::serve {

using chaos_rng::below;
using chaos_rng::mix64;

namespace {

/// Pattern geometry for the soak's matrices: small grids so a full
/// crash-at-every-append sweep stays in test budgets.
TraceOptions soak_trace_options() {
  TraceOptions topt;
  topt.base_n = 7;  // pattern k is a (7+k)^2 grid Laplacian
  return topt;
}

// ---- Script replay -------------------------------------------------------

struct ScriptResult {
  bool crashed = false;  // CrashError unwound out of the service
  std::string error;     // any other finding; empty = clean run
};

/// Replay the script against a live service, draining after every
/// submission so journal appends are strictly ordered by script position
/// (the property that makes `crash=append@N` enumerate every boundary).
ScriptResult run_script(SolverService& svc, const TraceOptions& topt,
                        const std::vector<CrashOp>& ops) {
  ScriptResult out;
  std::map<int, SessionId> sids;
  std::vector<Completion> done;
  try {
    for (const CrashOp& op : ops) {
      switch (op.kind) {
        case CrashOp::Kind::kOpen:
          sids[op.session] =
              svc.open_session(trace_tenant_name(op.tenant),
                               trace_pattern_matrix(topt, op.pattern));
          break;
        case CrashOp::Kind::kFactor:
        case CrashOp::Kind::kRefactor: {
          Request r;
          r.kind = op.kind == CrashOp::Kind::kFactor ? RequestKind::kFactor
                                                     : RequestKind::kRefactor;
          r.value_seed = op.value_seed == 0 ? 1 : op.value_seed;
          r.idem_key = op.idem_key;
          svc.submit(sids.at(op.session), r);
          break;
        }
        case CrashOp::Kind::kSolve: {
          Request r;
          r.kind = RequestKind::kSolve;
          r.value_seed = op.value_seed == 0 ? 1 : op.value_seed;
          svc.submit(sids.at(op.session), r);
          break;
        }
        case CrashOp::Kind::kRetire:
          svc.retire_session(sids.at(op.session));
          continue;  // nothing queued to drain
      }
      for (Completion& c : svc.drain()) done.push_back(std::move(c));
    }
    for (Completion& c : svc.drain()) done.push_back(std::move(c));

    if (svc.queue_depth() != 0) {
      out.error = "script left the queue non-empty";
      return out;
    }
    for (const Completion& c : done) {
      if (!c.ok()) {
        std::ostringstream os;
        os << "request " << c.id << " (" << request_kind_name(c.kind)
           << ") ended " << completion_status_name(c.status) << ": "
           << c.detail;
        out.error = os.str();
        return out;
      }
      if (c.kind == RequestKind::kSolve && c.residual > 1e-8) {
        std::ostringstream os;
        os << "solve " << c.id << " has residual " << c.residual;
        out.error = os.str();
        return out;
      }
    }
  } catch (const CrashError&) {
    out.crashed = true;
  } catch (const std::exception& e) {
    out.error = std::string("escaped exception: ") + e.what();
  }
  return out;
}

// ---- Journal auditing ----------------------------------------------------

struct FoldedWal {
  struct Sess {
    std::string tenant;
    std::uint64_t pattern_hash = 0;
    bool retired = false;
    std::vector<JournalRecord> commits;  // seq order
  };
  std::map<std::int32_t, Sess> sessions;
  std::size_t n_records = 0;
  std::size_t n_quarantined = 0;
  offset_t tmp_ignored = 0;
};

FoldedWal fold_wal(SessionJournal& j) {
  FoldedWal w;
  SessionJournal::Replay rep = j.replay();
  w.n_records = rep.records.size();
  w.n_quarantined = rep.quarantined.size();
  w.tmp_ignored = rep.tmp_ignored;
  for (JournalRecord& r : rep.records) {
    FoldedWal::Sess& s = w.sessions[r.session];
    switch (r.event) {
      case JournalEvent::kOpen:
        s.tenant = r.tenant;
        s.pattern_hash = r.pattern_hash;
        break;
      case JournalEvent::kCommit:
        s.commits.push_back(std::move(r));
        break;
      case JournalEvent::kRetire:
        s.retired = true;
        break;
    }
  }
  return w;
}

/// Total committed idempotency keys across live (unretired) sessions —
/// the exact dedup count a full client replay must produce.
offset_t live_committed_keys(const FoldedWal& w) {
  offset_t n = 0;
  for (const auto& [sid, s] : w.sessions) {
    if (s.retired) continue;
    for (const JournalRecord& c : s.commits) {
      if (c.idem_key != 0) ++n;
    }
  }
  return n;
}

int live_sessions(const FoldedWal& w) {
  int n = 0;
  for (const auto& [sid, s] : w.sessions) {
    if (!s.retired && !s.tenant.empty()) ++n;
  }
  return n;
}

int live_committed_sessions(const FoldedWal& w) {
  int n = 0;
  for (const auto& [sid, s] : w.sessions) {
    if (!s.retired && !s.tenant.empty() && !s.commits.empty()) ++n;
  }
  return n;
}

/// Zero-committed-work-lost audit: every commit record's artifact set must
/// load and verify (manifest present, every tile reloads, payload CRC
/// matches the manifest row). Returns the finding, empty on success.
std::string verify_commit_artifacts(SessionJournal& j,
                                    const JournalRecord& c) {
  mem::TileStore store(j.factor_dir(c.session, c.generation));
  std::vector<mem::TileManifestEntry> entries;
  try {
    entries =
        mem::TileStore::load_manifest_file(store.manifest_path()).entries;
  } catch (const Error& e) {
    std::ostringstream os;
    os << "committed work lost: session " << c.session << " gen "
       << c.generation << " manifest: " << e.what();
    return os.str();
  }
  if (entries.empty()) {
    return "committed work lost: empty manifest";
  }
  for (const mem::TileManifestEntry& e : entries) {
    std::vector<real_t> payload;
    try {
      payload = store.reload(e.tile_id);
    } catch (const Error& err) {
      std::ostringstream os;
      os << "committed work lost: session " << c.session << " gen "
         << c.generation << " tile " << e.tile_id << ": " << err.what();
      return os.str();
    }
    const std::uint32_t crc =
        bin::crc32c(payload.data(), payload.size() * sizeof(real_t));
    if (payload.size() != e.payload_len || crc != e.payload_crc) {
      std::ostringstream os;
      os << "committed tile " << e.tile_id << " of session " << c.session
         << " gen " << c.generation << " does not match its manifest row";
      return os.str();
    }
  }
  return "";
}

std::string audit_all_commits(SessionJournal& j, const FoldedWal& w) {
  for (const auto& [sid, s] : w.sessions) {
    if (s.retired) continue;  // retired artifacts may be garbage-collected
    for (const JournalRecord& c : s.commits) {
      std::string err = verify_commit_artifacts(j, c);
      if (!err.empty()) return err;
    }
  }
  return "";
}

// ---- Final-state snapshots -----------------------------------------------

/// Tile payloads of the *last* committed generation per live session,
/// keyed by (tenant, pattern hash) so the key survives session-id drift
/// between the reference and the recovered run.
using TilePayloads = std::map<index_t, std::vector<real_t>>;
using Snapshot = std::map<std::string, TilePayloads>;

std::string snapshot_key(const FoldedWal::Sess& s) {
  return s.tenant + "#" + std::to_string(s.pattern_hash);
}

std::string snapshot_last_commits(SessionJournal& j, const FoldedWal& w,
                                  Snapshot& out) {
  out.clear();
  for (const auto& [sid, s] : w.sessions) {
    if (s.retired || s.tenant.empty() || s.commits.empty()) continue;
    const JournalRecord& last = s.commits.back();
    mem::TileStore store(j.factor_dir(last.session, last.generation));
    std::vector<mem::TileManifestEntry> entries;
    try {
      entries =
          mem::TileStore::load_manifest_file(store.manifest_path()).entries;
      TilePayloads& tiles = out[snapshot_key(s)];
      for (const mem::TileManifestEntry& e : entries) {
        tiles[e.tile_id] = store.reload(e.tile_id);
      }
    } catch (const Error& e) {
      return std::string("final artifact set unreadable: ") + e.what();
    }
  }
  return "";
}

std::string compare_snapshots(const Snapshot& ref, const Snapshot& got) {
  if (ref.size() != got.size()) {
    std::ostringstream os;
    os << "final state has " << got.size() << " committed session(s), "
       << "reference has " << ref.size();
    return os.str();
  }
  for (const auto& [key, tiles] : ref) {
    const auto it = got.find(key);
    if (it == got.end()) {
      return "session '" + key + "' missing from the recovered final state";
    }
    if (it->second.size() != tiles.size()) {
      return "session '" + key + "' tile count diverged";
    }
    for (const auto& [id, payload] : tiles) {
      const auto tit = it->second.find(id);
      if (tit == it->second.end() ||
          tit->second.size() != payload.size() ||
          std::memcmp(tit->second.data(), payload.data(),
                      payload.size() * sizeof(real_t)) != 0) {
        std::ostringstream os;
        os << "session '" << key << "' tile " << id
           << " is not bitwise identical to the reference";
        return os.str();
      }
    }
  }
  return "";
}

// ---- Crashed-run execution -----------------------------------------------

ServeOptions durable_config(const ServeOptions& base, const std::string& dir,
                            bool recover,
                            std::vector<DurabilityCrash> crashes) {
  ServeOptions so = base;
  so.durable = DurableOptions{};
  so.durable.journal_dir = dir;
  so.durable.recover = recover;
  so.durable.fsync = false;  // soak measures logic, not storage latency
  so.durable.crashes = std::move(crashes);
  return so;
}

/// Run the script with `crash=append@N` armed and make sure the process
/// "died" at the boundary. Empty return = crashed as expected.
std::string run_crashed(const ServeOptions& base, const std::string& dir,
                        const TraceOptions& topt,
                        const std::vector<CrashOp>& ops, offset_t n,
                        bool kill) {
  ServeOptions so =
      durable_config(base, dir, false, {DurabilityCrash{"append", n}});
  if (!kill) {
    SolverService svc(so);
    ScriptResult r = run_script(svc, topt, ops);
    if (!r.error.empty()) return r.error;
    if (!r.crashed) return "crash point never fired";
    return "";
  }
#ifdef _WIN32
  return "SIGKILL mode is POSIX-only";
#else
  so.durable.crash_kill = true;
  const pid_t pid = fork();
  if (pid < 0) return "fork() failed";
  if (pid == 0) {
    // Child: run until maybe_crash() SIGKILLs us. Reaching the end means
    // the crash point never fired — report it via a distinct exit code.
    // _exit skips atexit/static destructors: nothing here may "clean up".
    try {
      SolverService svc(so);
      ScriptResult r = run_script(svc, topt, ops);
      _exit(r.error.empty() ? 42 : 43);
    } catch (...) {
      _exit(44);
    }
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return "waitpid() failed";
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return "";
  std::ostringstream os;
  os << "child did not die by SIGKILL (exit status " << status << ")";
  return os.str();
#endif
}

/// The full crash -> audit -> recover -> replay -> compare cycle for one
/// kill point. Empty return = every gate held.
std::string run_kill_point(const ServeOptions& base, const std::string& dir,
                           const TraceOptions& topt,
                           const std::vector<CrashOp>& ops, offset_t n,
                           bool kill, const Snapshot& ref) {
  std::string err = run_crashed(base, dir, topt, ops, n, kill);
  if (!err.empty()) return err;

  // Audit the dying run's journal before anyone recovers from it.
  offset_t pre_records = 0;
  offset_t expect_dedups = 0;
  int expect_sessions = 0;
  int expect_factored = 0;
  {
    SessionJournal j(dir, false);
    const FoldedWal pre = fold_wal(j);
    if (pre.n_quarantined != 0) {
      return "uncorrupted WAL had records quarantined";
    }
    if (pre.tmp_ignored < 1) {
      return "torn *.tmp residue missing (crash injection should leave it)";
    }
    err = audit_all_commits(j, pre);
    if (!err.empty()) return err;
    pre_records = static_cast<offset_t>(pre.n_records);
    expect_dedups = live_committed_keys(pre);
    expect_sessions = live_sessions(pre);
    expect_factored = live_committed_sessions(pre);
  }

  // Restart: recover, then let the client replay its request log.
  SolverService svc(durable_config(base, dir, true, {}));
  const DurableStats& ds = svc.durable_stats();
  if (ds.records_replayed != pre_records) {
    std::ostringstream os;
    os << "recovery replayed " << ds.records_replayed << " record(s), WAL has "
       << pre_records;
    return os.str();
  }
  if (ds.quarantined != 0 || ds.recompute_fallbacks != 0) {
    return "recovery of an uncorrupted journal quarantined or degraded";
  }
  if (ds.sessions_recovered != expect_sessions) {
    std::ostringstream os;
    os << "recovered " << ds.sessions_recovered << " session(s), expected "
       << expect_sessions;
    return os.str();
  }
  if (ds.factors_rehydrated != expect_factored) {
    std::ostringstream os;
    os << "rehydrated " << ds.factors_rehydrated
       << " factorization(s), expected " << expect_factored;
    return os.str();
  }

  ScriptResult r = run_script(svc, topt, ops);
  if (r.crashed) return "recovered run hit a crash point";
  if (!r.error.empty()) return "replay after recovery: " + r.error;
  if (ds.idem_duplicates != expect_dedups) {
    std::ostringstream os;
    os << "replay deduplicated " << ds.idem_duplicates
       << " request(s) by idempotency key, expected " << expect_dedups;
    return os.str();
  }

  // Final state must be bitwise identical to the uninterrupted reference.
  SessionJournal j(dir, false);
  const FoldedWal fin = fold_wal(j);
  Snapshot got;
  err = snapshot_last_commits(j, fin, got);
  if (!err.empty()) return err;
  return compare_snapshots(ref, got);
}

/// Corruption drill: flip one bit mid-file in a committed tile artifact,
/// recover, and replay. Recovery must quarantine the artifact (never load
/// it), degrade that session to recompute, and still converge to the
/// reference state.
std::string run_corruption_drill(const ServeOptions& base,
                                 const std::string& dir,
                                 const TraceOptions& topt,
                                 const std::vector<CrashOp>& ops,
                                 const Snapshot& ref) {
  offset_t expect_dedups = 0;
  int expect_sessions = 0;
  int expect_factored = 0;
  {
    SessionJournal j(dir, false);
    const FoldedWal w = fold_wal(j);
    expect_dedups = live_committed_keys(w) - 1;  // the corrupt session's
                                                 // first key recomputes
    expect_sessions = live_sessions(w);
    expect_factored = live_committed_sessions(w) - 1;

    const FoldedWal::Sess* victim = nullptr;
    for (const auto& [sid, s] : w.sessions) {
      if (!s.retired && !s.tenant.empty() && !s.commits.empty()) {
        victim = &s;
        break;
      }
    }
    if (victim == nullptr) return "no committed session to corrupt";
    const JournalRecord& last = victim->commits.back();
    mem::TileStore store(j.factor_dir(last.session, last.generation));
    const auto entries =
        mem::TileStore::load_manifest_file(store.manifest_path()).entries;
    const std::string path = store.path_of(entries.front().tile_id);

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    if (bytes.size() < bin::kRecordHeaderBytes + 8) {
      return "tile artifact implausibly small";
    }
    bytes[bytes.size() / 2] ^= 0x10;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  SolverService svc(durable_config(base, dir, true, {}));
  const DurableStats& ds = svc.durable_stats();
  if (ds.quarantined < 1) {
    return "corrupt tile artifact was not quarantined";
  }
  if (ds.recompute_fallbacks < 1) {
    return "corrupt artifact did not degrade to recompute";
  }
  if (ds.sessions_recovered != expect_sessions ||
      ds.factors_rehydrated != expect_factored) {
    std::ostringstream os;
    os << "corruption drill recovered " << ds.sessions_recovered << "/"
       << ds.factors_rehydrated << " session(s)/factor(s), expected "
       << expect_sessions << "/" << expect_factored;
    return os.str();
  }

  ScriptResult r = run_script(svc, topt, ops);
  if (!r.error.empty()) return "replay after corruption: " + r.error;
  if (ds.idem_duplicates != expect_dedups) {
    std::ostringstream os;
    os << "corruption replay deduplicated " << ds.idem_duplicates
       << " request(s), expected " << expect_dedups;
    return os.str();
  }

  SessionJournal j(dir, false);
  const FoldedWal fin = fold_wal(j);
  Snapshot got;
  std::string err = snapshot_last_commits(j, fin, got);
  if (!err.empty()) return err;
  err = compare_snapshots(ref, got);
  if (!err.empty()) return err;

  // The quarantined bytes must still exist for post-mortem — moved, never
  // deleted, never loaded.
  std::error_code ec;
  auto it = std::filesystem::directory_iterator(j.quarantine_dir(), ec);
  if (ec || it == std::filesystem::directory_iterator{}) {
    return "quarantine directory is empty after a corruption drill";
  }
  return "";
}

}  // namespace

std::vector<CrashOp> synth_crash_script(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0xd1b54a32d192ed03ULL;
  const int n_sessions = 2 + static_cast<int>(below(s, 2));
  std::vector<std::vector<CrashOp>> per(
      static_cast<std::size_t>(n_sessions));
  for (int k = 0; k < n_sessions; ++k) {
    auto& ops = per[static_cast<std::size_t>(k)];
    CrashOp open;
    open.kind = CrashOp::Kind::kOpen;
    open.session = k;
    open.tenant = k;  // distinct tenants: recovery claims stay 1:1
    open.pattern = static_cast<int>(below(s, 2));
    ops.push_back(open);

    CrashOp f;
    f.kind = CrashOp::Kind::kFactor;
    f.session = k;
    f.idem_key = static_cast<std::uint64_t>(k + 1) * 1000 + 1;
    ops.push_back(f);

    CrashOp sv;
    sv.kind = CrashOp::Kind::kSolve;
    sv.session = k;
    sv.value_seed = mix64(s) | 1;
    ops.push_back(sv);

    const int n_re = 1 + static_cast<int>(below(s, 2));
    for (int rix = 0; rix < n_re; ++rix) {
      CrashOp rf;
      rf.kind = CrashOp::Kind::kRefactor;
      rf.session = k;
      rf.idem_key =
          static_cast<std::uint64_t>(k + 1) * 1000 + 2 +
          static_cast<std::uint64_t>(rix);
      rf.value_seed = 2 + below(s, 1 << 20);
      ops.push_back(rf);

      CrashOp sv2;
      sv2.kind = CrashOp::Kind::kSolve;
      sv2.session = k;
      sv2.value_seed = mix64(s) | 1;
      ops.push_back(sv2);
    }
  }

  // Round-robin interleave so one session's commits race another's journal
  // appends; half the scripts retire the last session at the very end, so
  // the retirement record lands after every commit it must be ordered
  // behind.
  std::vector<CrashOp> ops;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n_sessions), 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (int k = 0; k < n_sessions; ++k) {
      auto& q = per[static_cast<std::size_t>(k)];
      std::size_t& c = cursor[static_cast<std::size_t>(k)];
      if (c < q.size()) {
        ops.push_back(q[c++]);
        progress = true;
      }
    }
  }
  if (below(s, 2) == 0) {
    CrashOp rt;
    rt.kind = CrashOp::Kind::kRetire;
    rt.session = n_sessions - 1;
    ops.push_back(rt);
  }
  return ops;
}

std::string CrashSoakReport::summary() const {
  std::ostringstream os;
  os << scenarios_run << " scenario(s), " << kill_points
     << " crash/restart cycle(s): " << passed << " passed, "
     << failures.size() << " failed";
  for (const CrashSoakFailure& f : failures) {
    os << "\n  " << f.repro << ": " << f.what;
  }
  return os.str();
}

CrashSoakReport run_crash_soak(const CrashSoakOptions& opt) {
  TH_CHECK_MSG(opt.scenarios >= 1, "crash soak needs scenarios >= 1");
  TH_CHECK_MSG(!opt.dir.empty(), "crash soak needs a scratch directory");

  ServeOptions base = opt.serve;
  base.durable = DurableOptions{};
  base.validate();

  const TraceOptions topt = soak_trace_options();
  CrashSoakReport report;
  for (int sc = 0; sc < opt.scenarios; ++sc) {
    std::uint64_t h = opt.seed ^ (0x9e3779b97f4a7c15ULL *
                                  static_cast<std::uint64_t>(sc + 1));
    const std::uint64_t scenario_seed = mix64(h);
    ++report.scenarios_run;
    const std::vector<CrashOp> ops = synth_crash_script(scenario_seed);
    const std::string scenario_dir =
        opt.dir + "/s" + std::to_string(scenario_seed);

    auto fail = [&](const std::string& spec, const std::string& what) {
      CrashSoakFailure f;
      f.scenario_seed = scenario_seed;
      f.repro = "seed=" + std::to_string(scenario_seed) + "," + spec;
      f.what = what;
      report.failures.push_back(std::move(f));
    };

    // Uninterrupted reference run.
    const std::string ref_dir = scenario_dir + "/ref";
    {
      SolverService svc(durable_config(base, ref_dir, false, {}));
      const ScriptResult r = run_script(svc, topt, ops);
      if (!r.error.empty() || r.crashed) {
        fail("ref", r.error.empty() ? "reference run crashed" : r.error);
        continue;
      }
    }
    offset_t ref_appends = 0;
    Snapshot ref;
    {
      SessionJournal j(ref_dir, false);
      const FoldedWal w = fold_wal(j);
      ref_appends = static_cast<offset_t>(w.n_records);
      const std::string err = snapshot_last_commits(j, w, ref);
      if (!err.empty()) {
        fail("ref", err);
        continue;
      }
    }

    // Crash before every append boundary the reference performed.
    for (offset_t n = 1; n <= ref_appends; ++n) {
      ++report.kill_points;
      const std::string dir = scenario_dir + "/k" + std::to_string(n);
      const std::string what =
          run_kill_point(base, dir, topt, ops, n, opt.kill, ref);
      if (what.empty()) {
        ++report.passed;
      } else {
        fail("crash=append@" + std::to_string(n), what);
      }
    }

    // One bit-rot drill per scenario, against the reference directory
    // (its in-memory snapshot predates the corruption).
    ++report.kill_points;
    const std::string what =
        run_corruption_drill(base, ref_dir, topt, ops, ref);
    if (what.empty()) {
      ++report.passed;
    } else {
      fail("flip=tile", what);
    }
  }
  return report;
}

}  // namespace th::serve
