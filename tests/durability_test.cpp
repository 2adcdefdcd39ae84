// Durability layer (src/serve/journal, DESIGN.md §16): THWJ write-ahead
// journal codec and replay, CRC-framed THCK/THFR/THTS corruption handling,
// crash-point injection, crash/restart recovery with bit-identical factor
// rehydration, idempotency-key dedup, quarantine-and-recompute degradation
// and the crash/restart chaos soak.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "kernels/tile.hpp"
#include "mem/tile_store.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "resilience/checkpoint.hpp"
#include "serve/crash_soak.hpp"
#include "serve/journal.hpp"
#include "serve/serve.hpp"
#include "solvers/plu.hpp"
#include "support/binio.hpp"

namespace th {
namespace {

using serve::Completion;
using serve::CrashError;
using serve::DurableOptions;
using serve::DurableStats;
using serve::JournalEvent;
using serve::JournalRecord;
using serve::Request;
using serve::RequestKind;
using serve::ServeOptions;
using serve::SessionId;
using serve::SessionJournal;
using serve::SolverService;

std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

Csr grid(index_t side, std::uint64_t value_seed) {
  return finalize_system(grid2d_laplacian(side, side), value_seed);
}

ServeOptions durable_service(const std::string& dir, bool recover = false) {
  ServeOptions o;
  o.sched.n_ranks = 1;
  o.exec_workers = 1;
  o.durable.journal_dir = dir;
  o.durable.recover = recover;
  o.durable.fsync = false;  // logic tests; the rename is still atomic
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::string bytes = read_file(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x10;
  write_file(path, bytes);
}

std::vector<std::string> sorted_dir(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    out.push_back(e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- THWJ record codec ----------------------------------------------------

TEST(JournalCodec, RoundTripsEveryEventKind) {
  JournalRecord open;
  open.event = JournalEvent::kOpen;
  open.seq = 3;
  open.session = 7;
  open.tenant = "alice";
  open.pattern_hash = 0xdeadbeefcafef00dULL;

  JournalRecord commit;
  commit.event = JournalEvent::kCommit;
  commit.seq = 4;
  commit.session = 7;
  commit.pattern_hash = open.pattern_hash;
  commit.generation = 2;
  commit.value_seed = 99;
  commit.idem_key = 1234;

  JournalRecord retire;
  retire.event = JournalEvent::kRetire;
  retire.seq = 5;
  retire.session = 7;

  for (const JournalRecord& r : {open, commit, retire}) {
    std::stringstream ss;
    SessionJournal::save_record(ss, r);
    const JournalRecord got = SessionJournal::load_record(ss);
    EXPECT_EQ(got.event, r.event);
    EXPECT_EQ(got.seq, r.seq);
    EXPECT_EQ(got.session, r.session);
    EXPECT_EQ(got.tenant, r.tenant);
    EXPECT_EQ(got.pattern_hash, r.pattern_hash);
    EXPECT_EQ(got.generation, r.generation);
    EXPECT_EQ(got.value_seed, r.value_seed);
    EXPECT_EQ(got.idem_key, r.idem_key);
  }
}

TEST(JournalCodec, BitFlipFailsTypedAtTheRecordStart) {
  JournalRecord r;
  r.event = JournalEvent::kCommit;
  r.seq = 1;
  r.session = 2;
  r.generation = 1;
  r.idem_key = 42;
  std::stringstream ss;
  SessionJournal::save_record(ss, r);
  const std::string whole = ss.str();

  // A record that does not start at byte 0 must still report its own
  // start offset, for every flipped byte position class.
  const std::string prefix(5, '\xee');
  for (const std::size_t at :
       {std::size_t{1}, bin::kRecordHeaderBytes + 2, whole.size() - 1}) {
    std::string bytes = prefix + whole;
    bytes[prefix.size() + at] ^= 0x08;
    std::stringstream in(bytes);
    in.seekg(static_cast<std::streamoff>(prefix.size()));
    try {
      SessionJournal::load_record(in);
      FAIL() << "expected bin::IoError for a flip at byte " << at;
    } catch (const bin::IoError& e) {
      EXPECT_EQ(e.byte_offset(), static_cast<offset_t>(prefix.size()))
          << e.what();
    }
  }
}

// ---- SessionJournal -------------------------------------------------------

TEST(SessionJournalIO, AppendsAtomicallyWithOrderedSeqs) {
  const std::string dir = scratch_dir("thwj_append");
  SessionJournal j(dir, /*fsync=*/false);
  EXPECT_EQ(j.next_seq(), 0u);

  JournalRecord r;
  r.event = JournalEvent::kOpen;
  r.session = 0;
  r.tenant = "alice";
  EXPECT_EQ(j.append(r), 0u);
  r.event = JournalEvent::kCommit;
  r.tenant.clear();
  EXPECT_EQ(j.append(r), 1u);
  r.event = JournalEvent::kRetire;
  EXPECT_EQ(j.append(r), 2u);

  // Atomic publication leaves no temp residue behind.
  for (const std::string& f : sorted_dir(j.wal_dir())) {
    EXPECT_EQ(f.find(".tmp"), std::string::npos) << f;
  }

  SessionJournal::Replay rep = j.replay();
  ASSERT_EQ(rep.records.size(), 3u);
  EXPECT_TRUE(rep.quarantined.empty());
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    EXPECT_EQ(rep.records[i].seq, i);
  }
  EXPECT_EQ(rep.records[0].event, JournalEvent::kOpen);
  EXPECT_EQ(rep.records[2].event, JournalEvent::kRetire);

  // A re-opened journal resumes after the highest durable record.
  SessionJournal j2(dir, false);
  EXPECT_EQ(j2.next_seq(), 3u);
  std::filesystem::remove_all(dir);
}

TEST(SessionJournalIO, ReplayQuarantinesRotAndIgnoresTornResidue) {
  const std::string dir = scratch_dir("thwj_rot");
  SessionJournal j(dir, false);
  JournalRecord r;
  r.event = JournalEvent::kOpen;
  r.tenant = "alice";
  for (int i = 0; i < 3; ++i) {
    r.session = i;
    j.append(r);
  }
  const std::vector<std::string> wal = sorted_dir(j.wal_dir());
  ASSERT_EQ(wal.size(), 3u);
  flip_byte(wal[1], bin::kRecordHeaderBytes + 3);
  // Torn-write residue from a crash mid-publication: ignored, not fatal.
  write_file(j.wal_dir() + "/0000000000000099.thwj.tmp", "THWJ\x01");

  SessionJournal::Replay rep = j.replay();
  ASSERT_EQ(rep.records.size(), 2u);
  EXPECT_EQ(rep.records[0].session, 0);
  EXPECT_EQ(rep.records[1].session, 2);
  ASSERT_EQ(rep.quarantined.size(), 1u);
  EXPECT_EQ(rep.tmp_ignored, 1);
  // Quarantined, never deleted: the rotten bytes stay for post-mortem.
  EXPECT_TRUE(std::filesystem::exists(rep.quarantined[0]));
  EXPECT_FALSE(std::filesystem::exists(wal[1]));
  std::filesystem::remove_all(dir);
}

TEST(SessionJournalIO, PatternArtifactRoundTripsAndDetectsRot) {
  const std::string dir = scratch_dir("thpm_rt");
  SessionJournal j(dir, false);
  const Csr a = grid(9, 5);
  const std::uint64_t hash = serve::pattern_hash(a);
  EXPECT_FALSE(j.has_pattern(hash));
  j.save_pattern(hash, a);
  EXPECT_TRUE(j.has_pattern(hash));

  const Csr back = j.load_pattern(hash);
  EXPECT_EQ(back.n_rows, a.n_rows);
  EXPECT_EQ(back.row_ptr, a.row_ptr);
  EXPECT_EQ(back.col_idx, a.col_idx);
  EXPECT_EQ(back.values, a.values);

  flip_byte(j.pattern_path(hash), bin::kRecordHeaderBytes + 17);
  EXPECT_THROW(j.load_pattern(hash), bin::IoError);
  std::filesystem::remove_all(dir);
}

TEST(DurableOptionsValidate, RejectsNonsense) {
  DurableOptions d;
  d.recover = true;  // recover without a journal directory
  EXPECT_THROW(d.validate(), Error);

  d = DurableOptions{};
  d.crashes.push_back({"commit", 1});  // crash points without a journal
  EXPECT_THROW(d.validate(), Error);

  d = DurableOptions{};
  d.journal_dir = "x";
  d.crashes.push_back({"sneeze", 1});  // unknown event
  EXPECT_THROW(d.validate(), Error);

  d.crashes = {{"commit", 0}};  // after is 1-based
  EXPECT_THROW(d.validate(), Error);

  d.crashes = {{"append", 2}};
  d.validate();
}

// ---- THCK / THFR framed-record corruption ---------------------------------

CheckpointState sample_state() {
  CheckpointState s;
  s.time_s = 0.5;
  s.n_tasks = 3;
  s.n_ranks = 1;
  s.n_streams = 1;
  s.done = {1, 1, 0};
  s.finish_time = {0.1, 0.2, 1e300};
  s.attempts = {0, 1, 0};
  s.owner = {0, 0, 0};
  s.pending.push_back({2, 0.25});
  s.rank_free = {0.5};
  s.stream_free = {0.5};
  s.rank_dead = {0};
  s.rank_cpu = {0};
  s.failures_applied = 1;
  s.report.transient_faults = 2;
  s.report.checkpoints_taken = 1;
  return s;
}

TEST(CheckpointIO, BitFlipAnywhereFailsTheCrc) {
  std::stringstream ss;
  save_checkpoint(ss, sample_state());
  const std::string whole = ss.str();

  // The checkpoint is a THCK record followed by a THFR record; measure the
  // first frame so flips in the second report *its* start offset.
  std::stringstream fr;
  save_fault_report(fr, sample_state().report);
  const std::size_t thck_size = whole.size() - fr.str().size();

  struct Flip {
    std::size_t at;
    offset_t want_offset;
    bool in_magic;  // header-magic flips fail typed, but not as a crc error
  };
  const Flip flips[] = {
      {std::size_t{2}, offset_t{0}, true},                // THCK magic
      {bin::kRecordHeaderBytes + 9, offset_t{0}, false},  // THCK payload
      {thck_size - 1, offset_t{0}, false},                // THCK crc trailer
      {thck_size + bin::kRecordHeaderBytes + 1,           // THFR payload
       static_cast<offset_t>(thck_size), false},
      {whole.size() - 1,                                  // THFR crc trailer
       static_cast<offset_t>(thck_size), false},
  };
  for (const Flip& f : flips) {
    std::string bytes = whole;
    bytes[f.at] ^= 0x10;
    std::stringstream in(bytes);
    try {
      load_checkpoint(in);
      FAIL() << "expected bin::IoError for a flip at byte " << f.at;
    } catch (const bin::IoError& e) {
      EXPECT_EQ(e.byte_offset(), f.want_offset) << e.what();
      if (!f.in_magic) {
        EXPECT_NE(std::string(e.what()).find("crc32c mismatch"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(FaultReportIO, BitFlipFailsTheCrcStandalone) {
  FaultReport r;
  r.transient_faults = 7;
  r.ranks_failed = 1;
  std::stringstream ss;
  save_fault_report(ss, r);
  std::string bytes = ss.str();
  bytes[bytes.size() / 2] ^= 0x01;
  std::stringstream in(bytes);
  try {
    load_fault_report(in);
    FAIL() << "expected bin::IoError";
  } catch (const bin::IoError& e) {
    EXPECT_EQ(e.byte_offset(), 0);
    EXPECT_NE(std::string(e.what()).find("crc32c mismatch"),
              std::string::npos);
  }
}

TEST(CheckpointIO, FileWriteIsAtomicAndLoadsBack) {
  const std::string dir = scratch_dir("thck_atomic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.thck";
  save_checkpoint_file(path, sample_state());

  for (const std::string& f : sorted_dir(dir)) {
    EXPECT_EQ(f.find(".tmp"), std::string::npos) << f;
  }
  const CheckpointState r = load_checkpoint_file(path);
  EXPECT_EQ(r.n_tasks, 3);
  EXPECT_EQ(r.report.transient_faults, 2);
  std::filesystem::remove_all(dir);
}

// ---- Durable serving end-to-end -------------------------------------------

TEST(DurableServe, JournalsOpenCommitRetireInOrder) {
  const std::string dir = scratch_dir("serve_wal");
  {
    SolverService svc(durable_service(dir));
    const SessionId sid = svc.open_session("alice", grid(10, 2));
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 11;
    svc.submit(sid, f);
    svc.drain();
    Request rf;
    rf.kind = RequestKind::kRefactor;
    rf.value_seed = 5;
    rf.idem_key = 12;
    svc.submit(sid, rf);
    svc.drain();
    EXPECT_TRUE(svc.retire_session(sid));

    const DurableStats& ds = svc.durable_stats();
    EXPECT_EQ(ds.journal_appends, 4);
    EXPECT_EQ(ds.patterns_saved, 1);
    EXPECT_EQ(ds.commits, 2);
    EXPECT_EQ(ds.retires, 1);
  }

  SessionJournal j(dir, false);
  SessionJournal::Replay rep = j.replay();
  ASSERT_EQ(rep.records.size(), 4u);
  EXPECT_EQ(rep.records[0].event, JournalEvent::kOpen);
  EXPECT_EQ(rep.records[0].tenant, "alice");
  EXPECT_EQ(rep.records[1].event, JournalEvent::kCommit);
  EXPECT_EQ(rep.records[1].generation, 0u);
  EXPECT_EQ(rep.records[1].idem_key, 11u);
  EXPECT_EQ(rep.records[1].value_seed, 0u);  // first factor = original a0
  EXPECT_EQ(rep.records[2].event, JournalEvent::kCommit);
  EXPECT_EQ(rep.records[2].generation, 1u);
  EXPECT_EQ(rep.records[2].idem_key, 12u);
  EXPECT_EQ(rep.records[2].value_seed, 5u);
  // The retirement is journaled strictly after the session's last commit.
  EXPECT_EQ(rep.records[3].event, JournalEvent::kRetire);
  EXPECT_GT(rep.records[3].seq, rep.records[2].seq);

  // Commit-ordering contract: both committed artifact sets verify.
  for (std::uint32_t gen : {0u, 1u}) {
    mem::TileStore store(j.factor_dir(rep.records[1].session, gen));
    const auto entries =
        mem::TileStore::load_manifest_file(store.manifest_path()).entries;
    EXPECT_FALSE(entries.empty());
    for (const mem::TileManifestEntry& e : entries) {
      EXPECT_EQ(store.reload(e.tile_id).size(), e.payload_len);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, IdemKeyDedupsCommittedWorkInProcess) {
  const std::string dir = scratch_dir("serve_idem");
  SolverService svc(durable_service(dir));
  const SessionId sid = svc.open_session("alice", grid(10, 2));
  Request f;
  f.kind = RequestKind::kFactor;
  f.idem_key = 77;
  svc.submit(sid, f);
  svc.drain();
  // The duplicate completes immediately as kDone without redoing the work.
  svc.submit(sid, f);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok());
  EXPECT_NE(done[0].detail.find("deduplicated"), std::string::npos);
  EXPECT_EQ(svc.durable_stats().idem_duplicates, 1);
  EXPECT_EQ(svc.durable_stats().commits, 1);
  EXPECT_EQ(svc.stats().factors, 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, CrashPointsFireAtEveryEventKind) {
  const struct {
    const char* event;
    offset_t after;
  } points[] = {{"open", 1}, {"commit", 1}, {"retire", 1}, {"append", 2}};
  for (const auto& pt : points) {
    const std::string dir =
        scratch_dir(std::string("serve_crash_") + pt.event);
    ServeOptions o = durable_service(dir);
    o.durable.crashes = {{pt.event, pt.after}};
    SolverService svc(o);
    bool crashed = false;
    try {
      const SessionId sid = svc.open_session("alice", grid(10, 2));
      Request f;
      f.kind = RequestKind::kFactor;
      f.idem_key = 1;
      svc.submit(sid, f);
      svc.drain();
      svc.retire_session(sid);
    } catch (const CrashError& e) {
      crashed = true;
      EXPECT_EQ(e.event(), pt.event);
    }
    EXPECT_TRUE(crashed) << pt.event << "@" << pt.after << " never fired";
    // The injected death leaves exactly a torn-record residue behind.
    bool torn = false;
    for (const std::string& f : sorted_dir(svc.journal()->wal_dir())) {
      if (f.find(".thwj.tmp") != std::string::npos) torn = true;
    }
    EXPECT_TRUE(torn);
    std::filesystem::remove_all(dir);
  }
}

using TileSnapshot = std::map<std::pair<index_t, index_t>,
                              std::vector<real_t>>;

TileSnapshot snapshot_tiles(const SolverInstance& inst) {
  TileSnapshot out;
  const TileMatrix& tiles = inst.plu_factorization()->tiles();
  for (index_t i = 0; i < tiles.nt(); ++i) {
    for (index_t j = 0; j < tiles.nt(); ++j) {
      const Tile* t = tiles.tile(i, j);
      if (t == nullptr) continue;
      const real_t* d = t->data();
      out[{i, j}] = std::vector<real_t>(d, d + t->panel_size());
    }
  }
  return out;
}

TEST(DurableServe, RecoveryRehydratesBitIdenticalFactorsAndClaims) {
  const std::string dir = scratch_dir("serve_recover");
  const Csr a = grid(12, 3);
  TileSnapshot before;
  SessionId sid = -1;
  {
    SolverService svc(durable_service(dir));
    sid = svc.open_session("alice", a);
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 21;
    svc.submit(sid, f);
    svc.drain();
    before = snapshot_tiles(*svc.session_instance(sid));
    ASSERT_FALSE(before.empty());
  }  // "crash": the service dies without retiring anything

  SolverService svc(durable_service(dir, /*recover=*/true));
  const DurableStats& ds = svc.durable_stats();
  EXPECT_EQ(ds.records_replayed, 2);
  EXPECT_EQ(ds.sessions_recovered, 1);
  EXPECT_EQ(ds.factors_rehydrated, 1);
  EXPECT_GT(ds.tiles_rehydrated, 0);
  EXPECT_EQ(ds.quarantined, 0);
  EXPECT_EQ(ds.recompute_fallbacks, 0);
  ASSERT_EQ(svc.recovered_sessions().size(), 1u);

  // Re-opening the same (tenant, pattern) claims the rehydrated session.
  EXPECT_EQ(svc.open_session("alice", a), sid);
  EXPECT_TRUE(svc.recovered_sessions().empty());

  // Bit-identical rehydration: every tile matches the pre-crash factors.
  const TileSnapshot after = snapshot_tiles(*svc.session_instance(sid));
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [ij, payload] : before) {
    const auto it = after.find(ij);
    ASSERT_NE(it, after.end());
    ASSERT_EQ(it->second.size(), payload.size());
    EXPECT_EQ(std::memcmp(it->second.data(), payload.data(),
                          payload.size() * sizeof(real_t)),
              0)
        << "tile (" << ij.first << ", " << ij.second << ") diverged";
  }

  // The replayed factor dedups; a solve runs against rehydrated factors.
  Request f;
  f.kind = RequestKind::kFactor;
  f.idem_key = 21;
  svc.submit(sid, f);
  Request sv;
  sv.kind = RequestKind::kSolve;
  sv.value_seed = 9;
  svc.submit(sid, sv);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LE(c.residual, 1e-8);
    }
  }
  EXPECT_EQ(ds.idem_duplicates, 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, RetireRacingInFlightWorkIsOrderedAndIdempotent) {
  const std::string dir = scratch_dir("serve_retire_race");
  SessionId alice = -1;
  SessionId bob = -1;
  {
    SolverService svc(durable_service(dir));
    // Alice: retire fires while her factorization is still queued — the
    // queued work must cancel (it can never commit after the retirement
    // record) and the WAL must hold no commit for her.
    alice = svc.open_session("alice", grid(10, 2));
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 31;
    svc.submit(alice, f);
    EXPECT_TRUE(svc.retire_session(alice));
    const std::vector<Completion> done = svc.take_completions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].status, Completion::Status::kCancelled);
    EXPECT_NE(done[0].detail.find("session retired"), std::string::npos);

    // Bob: commit then retire — the retirement record must be ordered
    // strictly after the last commit.
    bob = svc.open_session("bob", grid(11, 2));
    Request g;
    g.kind = RequestKind::kFactor;
    g.idem_key = 32;
    svc.submit(bob, g);
    svc.drain();
    EXPECT_TRUE(svc.retire_session(bob));
  }

  SessionJournal j(dir, false);
  SessionJournal::Replay rep = j.replay();
  std::uint64_t alice_retire = 0, bob_commit = 0, bob_retire = 0;
  for (const JournalRecord& r : rep.records) {
    if (r.session == alice) {
      EXPECT_NE(r.event, JournalEvent::kCommit)
          << "a commit was journaled after alice's retirement";
      if (r.event == JournalEvent::kRetire) alice_retire = r.seq + 1;
    }
    if (r.session == bob && r.event == JournalEvent::kCommit) {
      bob_commit = r.seq + 1;
    }
    if (r.session == bob && r.event == JournalEvent::kRetire) {
      bob_retire = r.seq + 1;
    }
  }
  EXPECT_GT(alice_retire, 0u);
  ASSERT_GT(bob_commit, 0u);
  ASSERT_GT(bob_retire, 0u);
  EXPECT_GT(bob_retire, bob_commit);

  // Replaying that interleaving is idempotent: both sessions are retired,
  // so recovery rehydrates nothing and replayed retirements are no-ops.
  SolverService svc(durable_service(dir, /*recover=*/true));
  EXPECT_EQ(svc.durable_stats().sessions_recovered, 0);
  EXPECT_FALSE(svc.retire_session(alice));
  EXPECT_FALSE(svc.retire_session(bob));
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, CorruptTileQuarantinesAndDegradesToRecompute) {
  const std::string dir = scratch_dir("serve_quarantine");
  const Csr a = grid(10, 2);
  SessionId sid = -1;
  {
    SolverService svc(durable_service(dir));
    sid = svc.open_session("alice", a);
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 41;
    svc.submit(sid, f);
    svc.drain();
    // Bit rot inside one committed tile artifact.
    mem::TileStore store(svc.journal()->factor_dir(sid, 0));
    const auto entries =
        mem::TileStore::load_manifest_file(store.manifest_path()).entries;
    ASSERT_FALSE(entries.empty());
    flip_byte(store.path_of(entries.front().tile_id),
              bin::kRecordHeaderBytes + 5);
  }

  SolverService svc(durable_service(dir, /*recover=*/true));
  const DurableStats& ds = svc.durable_stats();
  EXPECT_EQ(ds.sessions_recovered, 1);
  EXPECT_EQ(ds.factors_rehydrated, 0);
  EXPECT_GE(ds.quarantined, 1);
  EXPECT_GE(ds.recompute_fallbacks, 1);

  // The replayed request must recompute (loud degradation), not dedup
  // against factors that no longer exist.
  EXPECT_EQ(svc.open_session("alice", a), sid);
  Request f;
  f.kind = RequestKind::kFactor;
  f.idem_key = 41;
  svc.submit(sid, f);
  Request sv;
  sv.kind = RequestKind::kSolve;
  sv.value_seed = 5;
  svc.submit(sid, sv);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LE(c.residual, 1e-8);
    }
  }
  EXPECT_EQ(ds.idem_duplicates, 0);
  EXPECT_EQ(svc.stats().factors, 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, FactorsOfAnotherLayoutRecompute) {
  // n = 64 fits one full diagonal tile, so a factor committed under another
  // permutation has the same tile count and panel length. Only the
  // manifest's layout tells it apart, and it must recompute.
  const std::string dir = scratch_dir("serve_layout");
  const Csr a = grid(8, 2);
  SessionId sid = -1;
  {
    SolverService svc(durable_service(dir));
    sid = svc.open_session("alice", a);
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 44;
    svc.submit(sid, f);
    svc.drain();
    mem::TileStore store(svc.journal()->factor_dir(sid, 0));
    mem::TileManifest m =
        mem::TileStore::load_manifest_file(store.manifest_path());
    ASSERT_EQ(m.entries.size(), 1u);
    m.layout.perm_crc ^= 1u;
    std::ofstream out(store.manifest_path(),
                      std::ios::binary | std::ios::trunc);
    mem::TileStore::save_manifest(out, m);
  }

  SolverService svc(durable_service(dir, /*recover=*/true));
  const DurableStats& ds = svc.durable_stats();
  EXPECT_EQ(ds.sessions_recovered, 1);
  EXPECT_EQ(ds.factors_rehydrated, 0);
  EXPECT_EQ(ds.quarantined, 0);  // well-formed, just not this layout
  EXPECT_GE(ds.recompute_fallbacks, 1);
  EXPECT_EQ(svc.open_session("alice", a), sid);
  Request f;
  f.kind = RequestKind::kFactor;
  f.idem_key = 44;
  svc.submit(sid, f);
  Request sv;
  sv.kind = RequestKind::kSolve;
  sv.value_seed = 5;
  svc.submit(sid, sv);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LT(c.residual, 1e-9);
    }
  }
  EXPECT_EQ(svc.stats().factors, 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, DuplicateManifestEntryRecomputes) {
  // A well-formed manifest with the right entry count that names one tile
  // twice and omits another: adopting it would leave the omitted tile
  // holding A's unfactored values. Each present tile must appear once.
  const std::string dir = scratch_dir("serve_dup_entry");
  const Csr a = grid(10, 2);  // n = 100: two block rows at b = 64
  SessionId sid = -1;
  {
    SolverService svc(durable_service(dir));
    sid = svc.open_session("alice", a);
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 45;
    svc.submit(sid, f);
    svc.drain();
    mem::TileStore store(svc.journal()->factor_dir(sid, 0));
    mem::TileManifest m =
        mem::TileStore::load_manifest_file(store.manifest_path());
    ASSERT_GE(m.entries.size(), 2u);
    m.entries[1] = m.entries[0];
    std::ofstream out(store.manifest_path(),
                      std::ios::binary | std::ios::trunc);
    mem::TileStore::save_manifest(out, m);
  }

  SolverService svc(durable_service(dir, /*recover=*/true));
  const DurableStats& ds = svc.durable_stats();
  EXPECT_EQ(ds.sessions_recovered, 1);
  EXPECT_EQ(ds.factors_rehydrated, 0);
  EXPECT_GE(ds.recompute_fallbacks, 1);
  EXPECT_EQ(svc.open_session("alice", a), sid);
  Request f;
  f.kind = RequestKind::kFactor;
  f.idem_key = 45;
  svc.submit(sid, f);
  Request sv;
  sv.kind = RequestKind::kSolve;
  sv.value_seed = 5;
  svc.submit(sid, sv);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LT(c.residual, 1e-9);
    }
  }
  EXPECT_EQ(svc.stats().factors, 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableServe, V2TileFileFailsTypedAndRecomputes) {
  // A THTS v2 file (a dense b×b payload, written before tiles became
  // envelope panels) must fail with the typed version error, and its
  // generation must recompute rather than rehydrate.
  const std::string dir = scratch_dir("serve_thts_v2");
  const Csr a = grid(10, 2);
  SessionId sid = -1;
  {
    SolverService svc(durable_service(dir));
    sid = svc.open_session("alice", a);
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 43;
    svc.submit(sid, f);
    svc.drain();
    mem::TileStore store(svc.journal()->factor_dir(sid, 0));
    const auto entries =
        mem::TileStore::load_manifest_file(store.manifest_path()).entries;
    ASSERT_FALSE(entries.empty());
    const index_t id = entries.front().tile_id;
    bin::RecordWriter v2("THTS", 2);
    v2.put<std::int32_t>(id);
    v2.put_vector(std::vector<real_t>(16 * 16, 1.0));
    std::ofstream out(store.path_of(id), std::ios::binary | std::ios::trunc);
    v2.finish(out);
    out.close();
    std::ifstream in(store.path_of(id), std::ios::binary);
    try {
      (void)mem::TileStore::load_tile(in);
      FAIL() << "expected bin::IoError";
    } catch (const bin::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
          << e.what();
    }
  }

  SolverService svc(durable_service(dir, /*recover=*/true));
  const DurableStats& ds = svc.durable_stats();
  EXPECT_EQ(ds.sessions_recovered, 1);
  EXPECT_EQ(ds.factors_rehydrated, 0);
  EXPECT_GE(ds.quarantined, 1);
  EXPECT_GE(ds.recompute_fallbacks, 1);
  EXPECT_EQ(svc.open_session("alice", a), sid);
  Request f;
  f.kind = RequestKind::kFactor;
  f.idem_key = 43;
  svc.submit(sid, f);
  Request sv;
  sv.kind = RequestKind::kSolve;
  sv.value_seed = 5;
  svc.submit(sid, sv);
  const std::vector<Completion> done = svc.drain();
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_TRUE(c.ok()) << c.detail;
    if (c.kind == RequestKind::kSolve) {
      EXPECT_LE(c.residual, 1e-8);
    }
  }
  EXPECT_EQ(svc.stats().factors, 1);
  std::filesystem::remove_all(dir);
}

// ---- Obs reconciliation ---------------------------------------------------

TEST(DurableServe, MetricsReconcileWithRegistryAndRecoverySpan) {
  const obs::Session obs_session(true);
  const std::string dir = scratch_dir("serve_durable_obs");
  const Csr a = grid(10, 2);
  {
    SolverService svc(durable_service(dir));
    const SessionId sid = svc.open_session("alice", a);
    Request f;
    f.kind = RequestKind::kFactor;
    f.idem_key = 51;
    svc.submit(sid, f);
    svc.drain();
  }

  SolverService svc(durable_service(dir, /*recover=*/true));
  const DurableStats& ds = svc.durable_stats();
  ds.publish_metrics();

  std::map<std::string, obs::MetricSample> reg;
  for (const obs::MetricSample& m : obs::Registry::global().snapshot()) {
    reg[m.name] = m;
  }
  EXPECT_EQ(reg.at("th.durable.replayed").count,
            static_cast<std::int64_t>(ds.records_replayed));
  EXPECT_EQ(reg.at("th.durable.sessions_recovered").count,
            static_cast<std::int64_t>(ds.sessions_recovered));
  EXPECT_EQ(reg.at("th.durable.factors_rehydrated").count,
            static_cast<std::int64_t>(ds.factors_rehydrated));
  EXPECT_EQ(reg.at("th.durable.tiles_rehydrated").count,
            static_cast<std::int64_t>(ds.tiles_rehydrated));
  EXPECT_EQ(reg.at("th.durable.quarantined").count,
            static_cast<std::int64_t>(ds.quarantined));
  EXPECT_EQ(reg.at("th.durable.recompute_fallbacks").count,
            static_cast<std::int64_t>(ds.recompute_fallbacks));
  EXPECT_DOUBLE_EQ(reg.at("th.durable.recovery_s").value, ds.recovery_s);

  // Exactly one "recovery" span per restart.
  std::int64_t recovery_spans = 0;
  for (const obs::Event& e : obs::Recorder::global().events()) {
    if (std::string(e.name) == "recovery") ++recovery_spans;
  }
  EXPECT_EQ(recovery_spans, 1);
  std::filesystem::remove_all(dir);
}

// ---- Crash/restart chaos soak ---------------------------------------------

TEST(CrashSoak, InProcessSweepHoldsEveryGate) {
  serve::CrashSoakOptions opt;
  opt.seed = 11;
  opt.scenarios = 1;
  opt.dir = scratch_dir("crash_soak");
  opt.serve.sched.n_ranks = 1;
  opt.serve.exec_workers = 1;
  const serve::CrashSoakReport rep = serve::run_crash_soak(opt);
  EXPECT_EQ(rep.scenarios_run, 1);
  EXPECT_GT(rep.kill_points, 2);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.passed, rep.kill_points);
  std::filesystem::remove_all(opt.dir);
}

#ifndef _WIN32
TEST(CrashSoak, SigkillProcessDeathRecovers) {
  serve::CrashSoakOptions opt;
  opt.seed = 5;
  opt.scenarios = 1;
  opt.dir = scratch_dir("crash_soak_kill");
  opt.serve.sched.n_ranks = 1;
  opt.serve.exec_workers = 1;
  opt.kill = true;
  const serve::CrashSoakReport rep = serve::run_crash_soak(opt);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.passed, rep.kill_points);
  std::filesystem::remove_all(opt.dir);
}
#endif

}  // namespace
}  // namespace th
