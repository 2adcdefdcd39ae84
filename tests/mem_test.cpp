// Memory-robustness subsystem (src/mem + scheduler integration, DESIGN.md
// §13): the MemBudget ledger, RankLedger LRU/pinning, the THTS tile store
// (round-trip and truncation), the degradation ladder under a tight
// budget, capacity-ramp faults, and the zero-overhead off switch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "gen/generators.hpp"
#include "kernels/tile.hpp"
#include "mem/mem.hpp"
#include "mem/tile_store.hpp"
#include "resilience/checkpoint.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"
#include "support/binio.hpp"

namespace th {
namespace {

// ---- MemBudget ------------------------------------------------------------

TEST(MemBudget, ChargesReleasesAndTracksHighWater) {
  MemBudget b(1000);
  EXPECT_EQ(b.capacity(), 1000);
  EXPECT_TRUE(b.fits(1000));
  EXPECT_FALSE(b.fits(1001));
  b.charge(600);
  b.charge(300);
  EXPECT_EQ(b.used(), 900);
  EXPECT_EQ(b.high_water(), 900);
  b.release(500);
  EXPECT_EQ(b.used(), 400);
  EXPECT_EQ(b.high_water(), 900);  // high water never recedes
  EXPECT_EQ(b.allocs(), 2);
  EXPECT_EQ(b.frees(), 1);
  EXPECT_THROW(b.charge(700), Error);   // overcommit refused
  EXPECT_THROW(b.release(500), Error);  // underflow refused
}

TEST(MemBudget, CapacityRampLeavesResidueToWorkOff) {
  MemBudget b(1000);
  b.charge(800);
  EXPECT_FALSE(b.over_capacity());
  b.set_capacity(500);  // pressure ramp: charges stay, capacity shrinks
  EXPECT_TRUE(b.over_capacity());
  b.release(400);
  EXPECT_FALSE(b.over_capacity());
}

// ---- MemOptions / policy names -------------------------------------------

TEST(MemOptions, ValidateRejectsBadKnobs) {
  mem::MemOptions o;
  o.validate();  // defaults are fine (accounting off)
  EXPECT_FALSE(o.enabled());
  o.spill_dir = "/tmp/x";
  EXPECT_THROW(o.validate(), Error);  // spill dir without a budget
  o.budget_bytes = mem::MemOptions::gib(1);
  EXPECT_EQ(o.budget_bytes, 1073741824);
  o.validate();
  o.spill_bw_bytes_per_s = 0;
  EXPECT_THROW(o.validate(), Error);
}

TEST(MemOptions, PolicyNamesRoundTrip) {
  EXPECT_EQ(mem::mem_policy_by_name("spill"), mem::MemPolicy::kSpill);
  EXPECT_EQ(mem::mem_policy_by_name("shrink"), mem::MemPolicy::kShrink);
  EXPECT_EQ(mem::mem_policy_by_name("failfast"), mem::MemPolicy::kFailFast);
  EXPECT_STREQ(mem::mem_policy_name(mem::MemPolicy::kSpill), "spill");
  EXPECT_THROW(mem::mem_policy_by_name("swap"), Error);
}

// ---- Footprint projection -------------------------------------------------

Task graph_task(TaskType type, index_t row, index_t col, int rank,
                offset_t out_bytes) {
  Task t;
  t.type = type;
  t.row = row;
  t.col = col;
  t.owner_rank = rank;
  t.out_bytes = out_bytes;
  t.cost.flops = 1000;
  t.cost.bytes = 1000;
  t.cost.cuda_blocks = 4;
  t.cost.shmem_per_block = 256;
  return t;
}

TEST(Footprint, ProjectsFactorBytesPerRankAndSkipsSsssm) {
  TaskGraph g;
  const index_t a = g.add_task(graph_task(TaskType::kGetrf, 0, 0, 0, 1000));
  const index_t b = g.add_task(graph_task(TaskType::kTstrf, 1, 0, 1, 3000));
  const index_t c = g.add_task(graph_task(TaskType::kSsssm, 1, 1, 0, 9999));
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.finalize();
  const mem::FootprintProjection fp = mem::project_footprint(g, 2);
  EXPECT_EQ(fp.total_bytes, 4000);  // SSSSM updates in place: not counted
  EXPECT_EQ(fp.peak_rank_bytes, 3000);
  EXPECT_DOUBLE_EQ(fp.imbalance, 1.5);
  EXPECT_EQ(fp.peak_rank_with_workspace(),
            static_cast<offset_t>(mem::kWorkspaceFactor * 3000));
  EXPECT_EQ(mem::factor_bytes(g.task(c)), 0);
  EXPECT_EQ(mem::factor_bytes(g.task(b)), 3000);
}

// ---- RankLedger -----------------------------------------------------------

TEST(RankLedger, LruEvictionIsDeterministicAndRespectsPins) {
  mem::RankLedger led(10000);
  led.add_block(5, 1000, 1.0);
  led.add_block(3, 1000, 1.0);  // same last use as 5: lower id wins
  led.add_block(7, 1000, 2.0);
  EXPECT_EQ(led.coldest(), 3);
  led.pin(3);
  EXPECT_EQ(led.coldest(), 5);
  led.unpin(3);
  led.touch(3, 3.0);
  EXPECT_EQ(led.coldest(), 5);
  led.mark_spilled(5);
  EXPECT_TRUE(led.spilled(5));
  EXPECT_EQ(led.budget().used(), 2000);  // spill released 5's bytes
  EXPECT_EQ(led.coldest(), 7);
  led.mark_resident(5, 4.0);
  EXPECT_EQ(led.budget().used(), 3000);
  EXPECT_EQ(led.coldest(), 7);
  led.pin(7);
  led.mark_spilled(led.coldest());  // 3 is now the only unpinned victim
  EXPECT_TRUE(led.spilled(3));
  EXPECT_THROW(led.mark_spilled(7), Error);  // pinned blocks are immovable
  led.add_block(5, 1000, 9.0);  // idempotent re-registration
  EXPECT_EQ(led.budget().used(), 2000);
  led.remove_block(5);
  EXPECT_FALSE(led.tracked(5));
  EXPECT_EQ(led.budget().used(), 1000);
  EXPECT_EQ(led.resident_blocks(), 1);
  EXPECT_EQ(led.largest_resident_bytes(), 1000);
}

// ---- TileStore / THTS -----------------------------------------------------

TEST(TileStore, RoundTripsPayloadsThroughDisk) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "thts_rt").string();
  mem::TileStore store(dir);
  ASSERT_TRUE(store.io());
  std::vector<real_t> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = 1.0 / (static_cast<real_t>(i) + 3.0);
  }
  EXPECT_FALSE(store.contains(42));
  store.spill(42, payload);
  EXPECT_TRUE(store.contains(42));
  const std::vector<real_t> back = store.reload(42);
  ASSERT_EQ(back.size(), payload.size());
  EXPECT_EQ(std::memcmp(back.data(), payload.data(),
                        payload.size() * sizeof(real_t)),
            0);
  EXPECT_EQ(store.files_written(), 1);
  EXPECT_THROW((void)store.reload(43), Error);  // never spilled
  std::filesystem::remove_all(dir);
}

TEST(TileStore, TruncatedStreamThrowsIoErrorWithByteOffset) {
  std::ostringstream os;
  mem::TileStore::save_tile(os, 7, std::vector<real_t>(64, 1.5));
  const std::string whole = os.str();
  {
    std::istringstream in(whole);
    const auto [id, payload] = mem::TileStore::load_tile(in);
    EXPECT_EQ(id, 7);
    EXPECT_EQ(payload.size(), 64u);
  }
  // Cut mid-payload: the reader must name the offset, not short-read.
  std::istringstream cut(whole.substr(0, whole.size() - 9));
  try {
    (void)mem::TileStore::load_tile(cut);
    FAIL() << "expected bin::IoError";
  } catch (const bin::IoError& e) {
    EXPECT_GE(e.byte_offset(), 0);
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
  }
  // Corrupt magic.
  std::string bad = whole;
  bad[0] = 'X';
  std::istringstream badin(bad);
  EXPECT_THROW((void)mem::TileStore::load_tile(badin), bin::IoError);
}

TEST(TileStore, TruncationOffsetsNameTheExactField) {
  // THTS v2 frame: magic@0 (4B) + version@4 (4B) + payload length@8 (8B) +
  // payload@16 (tile id, then the length-prefixed value vector) + a 4-byte
  // CRC32C trailer. A cut inside the header must report the header field's
  // start offset; a cut inside the payload or the trailer reports the
  // payload/trailer start — so a hex dump at the reported position lands
  // on the bytes the reader was consuming.
  std::ostringstream os;
  mem::TileStore::save_tile(os, 9, std::vector<real_t>(16, 2.0));
  const std::string whole = os.str();
  const std::size_t payload = 4 + 8 + 16 * sizeof(real_t);  // id + len + data
  ASSERT_EQ(whole.size(),
            bin::kRecordHeaderBytes + payload + bin::kRecordTrailerBytes);

  const auto offset_when_cut_at = [&](std::size_t keep) -> std::int64_t {
    std::istringstream cut(whole.substr(0, keep));
    try {
      (void)mem::TileStore::load_tile(cut);
    } catch (const bin::IoError& e) {
      return e.byte_offset();
    }
    return -2;  // parsed successfully — the caller asserts against this
  };

  EXPECT_EQ(offset_when_cut_at(2), 0);    // inside the magic
  EXPECT_EQ(offset_when_cut_at(6), 4);    // inside the version
  EXPECT_EQ(offset_when_cut_at(10), 8);   // inside the length prefix
  EXPECT_EQ(offset_when_cut_at(15), 8);   // still the length prefix
  EXPECT_EQ(offset_when_cut_at(17), 16);  // one byte into the payload
  EXPECT_EQ(offset_when_cut_at(whole.size() - 1),
            static_cast<std::int64_t>(bin::kRecordHeaderBytes + payload));
}

TEST(TileStore, MidRecordFieldErrorsNameFieldAndRecordStart) {
  // A frame whose length prefix is honest but whose payload lacks the
  // fields the reader wants: the error must name the failing field AND the
  // record's start offset (the whole frame is buffered up front, so the
  // reader never blames wherever the raw stream cursor happens to sit).
  bin::RecordWriter w("THTS", 2);
  w.put<std::int32_t>(5);  // tile id only; the value vector is missing
  std::ostringstream os;
  os << "padding";  // shift the record so its start offset is nonzero
  w.finish(os);
  std::istringstream in(os.str());
  in.seekg(7);
  try {
    (void)mem::TileStore::load_tile(in);
    FAIL() << "expected bin::IoError";
  } catch (const bin::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tile payload"), std::string::npos) << what;
    EXPECT_NE(what.find("starting at byte offset 7"), std::string::npos)
        << what;
  }
}

TEST(TileStore, BitFlipAnywhereFailsTheCrc) {
  // Bit rot — not just truncation — must surface as a typed IoError: the
  // CRC32C trailer covers the header and the payload, so a single flipped
  // bit in the id, the data or the CRC word itself fails the read with the
  // record's start offset for the hex dump.
  std::ostringstream os;
  mem::TileStore::save_tile(os, 3, std::vector<real_t>(32, 0.25));
  const std::string whole = os.str();
  for (const std::size_t at :
       {bin::kRecordHeaderBytes + 1,    // inside the tile id
        bin::kRecordHeaderBytes + 20,   // inside the value payload
        whole.size() - 1}) {            // inside the CRC trailer itself
    std::string bad = whole;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    std::istringstream in(bad);
    try {
      (void)mem::TileStore::load_tile(in);
      FAIL() << "expected bin::IoError for a bit flip at byte " << at;
    } catch (const bin::IoError& e) {
      EXPECT_EQ(e.byte_offset(), 0);
      EXPECT_NE(std::string(e.what()).find("crc32c mismatch"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TileStore, ManifestRoundTripsAndDetectsBitFlips) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "thtm_rt").string();
  std::filesystem::remove_all(dir);
  mem::TileStore store(dir, /*durable=*/true);
  store.spill(0, std::vector<real_t>(8, 1.0));
  store.spill(5, std::vector<real_t>(12, -2.5));
  const std::string mpath = store.write_manifest();

  const auto entries = mem::TileStore::load_manifest_file(mpath);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].tile_id, 0);
  EXPECT_EQ(entries[0].payload_len, 8u);
  EXPECT_EQ(entries[1].tile_id, 5);
  EXPECT_EQ(entries[1].payload_len, 12u);
  // The manifest CRCs certify the tile files: a reloaded payload must hash
  // to exactly the recorded value.
  const std::vector<real_t> back = store.reload(5);
  EXPECT_EQ(bin::crc32c(back.data(), back.size() * sizeof(real_t)),
            entries[1].payload_crc);

  // Flip one bit in the manifest itself: the framed read must fail typed.
  std::string raw;
  {
    std::ifstream in(mpath, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x04);
  std::istringstream in(raw);
  EXPECT_THROW((void)mem::TileStore::load_manifest(in), bin::IoError);
}

TEST(TileStore, ReloadRacesConcurrentSpillOfDifferentTile) {
  // The scheduler's spill path is single-threaded today, but the store's
  // contract is per-tile files: a reload of tile A must be undisturbed by
  // any number of concurrent spills of tile B (distinct paths, no shared
  // mutable state beyond the counters). Run the race long enough that a
  // shared-buffer or shared-stream bug would corrupt a payload.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "thts_race").string();
  std::filesystem::remove_all(dir);
  mem::TileStore store(dir);

  std::vector<real_t> payload_a(311);
  for (std::size_t i = 0; i < payload_a.size(); ++i) {
    payload_a[i] = static_cast<real_t>(i) * 0.5 - 7.0;
  }
  store.spill(1, payload_a);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<real_t> back = store.reload(1);
      if (back.size() != payload_a.size() ||
          std::memcmp(back.data(), payload_a.data(),
                      payload_a.size() * sizeof(real_t)) != 0) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Writer: respill tile 2 with changing payloads (and overwrite the same
  // path every time — the overwrite branch is the racy one if any).
  std::vector<real_t> payload_b(257);
  for (int round = 0; round < 200; ++round) {
    for (std::size_t i = 0; i < payload_b.size(); ++i) {
      payload_b[i] = static_cast<real_t>(round) + static_cast<real_t>(i);
    }
    store.spill(2, payload_b);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  // The last spill of tile 2 wins and reloads exactly.
  const std::vector<real_t> back_b = store.reload(2);
  ASSERT_EQ(back_b.size(), payload_b.size());
  EXPECT_EQ(std::memcmp(back_b.data(), payload_b.data(),
                        payload_b.size() * sizeof(real_t)),
            0);
  EXPECT_EQ(store.files_written(), 201);
  std::filesystem::remove_all(dir);
}

TEST(BinIo, TruncatedCheckpointAndFaultReportThrowTypedErrors) {
  CheckpointState s;
  s.n_tasks = 4;
  s.n_ranks = 1;
  s.n_streams = 1;
  s.time_s = 0.5;
  s.done = {1, 0, 1, 0};
  s.finish_time = {0.1, 0, 0.2, 0};
  s.attempts = {0, 0, 0, 0};
  s.owner = {0, 0, 0, 0};
  s.rank_free = {0.25};
  s.stream_free = {0.25};
  s.rank_dead = {0};
  s.rank_cpu = {0};
  std::ostringstream os;
  save_checkpoint(os, s);
  const std::string whole = os.str();
  {
    std::istringstream in(whole);
    const CheckpointState back = load_checkpoint(in);
    EXPECT_EQ(back.n_tasks, 4);
  }
  for (const std::size_t keep : {std::size_t{2}, whole.size() / 2}) {
    std::istringstream cut(whole.substr(0, keep));
    EXPECT_THROW((void)load_checkpoint(cut), bin::IoError) << keep;
  }
  FaultReport r;
  r.transient_faults = 3;
  std::ostringstream fo;
  save_fault_report(fo, r);
  const std::string fr = fo.str();
  {
    std::istringstream in(fr);
    EXPECT_EQ(load_fault_report(in).transient_faults, 3);
  }
  std::istringstream cut(fr.substr(0, fr.size() - 3));
  EXPECT_THROW((void)load_fault_report(cut), bin::IoError);
}

// ---- mem_pressure fault kind ----------------------------------------------

TEST(MemPressureFault, ValidateRejectsBadRamps) {
  FaultPlan p;
  p.mem_pressure.push_back({-1, 0.5, 0.5});
  p.validate(4);
  p.mem_pressure.push_back({4, 0.5, 0.5});  // rank out of range
  EXPECT_THROW(p.validate(4), Error);
  p.mem_pressure.back() = {0, 0.5, 0.0};  // factor must be in (0, 1]
  EXPECT_THROW(p.validate(4), Error);
  p.mem_pressure.back() = {0, 0.5, 1.5};
  EXPECT_THROW(p.validate(4), Error);
  p.mem_pressure.pop_back();
  p.mem_alloc_fail_prob = 1.5;
  EXPECT_THROW(p.validate(4), Error);
  p.mem_alloc_fail_prob = 0.01;
  p.validate(4);
  EXPECT_TRUE(p.has_mem_pressure());
  EXPECT_FALSE(p.empty());
}

TEST(MemPressureFault, AllocFailureDrawsAreDeterministic) {
  FaultPlan p;
  p.seed = 99;
  p.mem_alloc_fail_prob = 0;
  EXPECT_FALSE(mem_alloc_fails(p, 0, 0));
  p.mem_alloc_fail_prob = 1;
  EXPECT_TRUE(mem_alloc_fails(p, 0, 0));
  p.mem_alloc_fail_prob = 0.5;
  for (int rank = 0; rank < 3; ++rank) {
    for (offset_t seq = 0; seq < 20; ++seq) {
      EXPECT_EQ(mem_alloc_fails(p, rank, seq), mem_alloc_fails(p, rank, seq));
    }
  }
  // The draw must actually vary across the sequence.
  int fails = 0;
  for (offset_t seq = 0; seq < 64; ++seq) fails += mem_alloc_fails(p, 0, seq);
  EXPECT_GT(fails, 0);
  EXPECT_LT(fails, 64);
}

// ---- Scheduler integration -----------------------------------------------

class SchedulerMem : public ::testing::Test {
 protected:
  SchedulerMem() : a_(finalize_system(grid2d_laplacian(24, 24), 20260131)) {
    io_.core = SolverCore::kPlu;
    io_.block = 32;
    io_.grid = make_process_grid(2);
  }

  ScheduleOptions base_options() const {
    ScheduleOptions so;
    so.cluster = cluster_h100();
    so.n_ranks = 2;
    so.policy = Policy::kTrojanHorse;
    return so;
  }

  Csr a_;
  InstanceOptions io_;
};

TEST_F(SchedulerMem, BudgetOffIsBitIdenticalToGenerousBudget) {
  SolverInstance inst(a_, io_);
  ScheduleOptions off = base_options();
  const ScheduleResult r_off = inst.run_timing(off);
  EXPECT_FALSE(r_off.stats().mem.enabled);

  ScheduleOptions on = base_options();
  const mem::FootprintProjection fp = mem::project_footprint(inst.graph(), 2);
  on.mem.budget_bytes = 4 * fp.peak_rank_with_workspace();
  const ScheduleResult r_on = inst.run_timing(on);
  EXPECT_TRUE(r_on.stats().mem.enabled);
  EXPECT_GT(r_on.stats().mem.high_water_bytes, 0);
  EXPECT_LE(r_on.stats().mem.high_water_bytes, on.mem.budget_bytes);
  // A budget nothing bumps into prices nothing: same timeline to the bit.
  EXPECT_EQ(r_on.makespan_s, r_off.makespan_s);
  EXPECT_EQ(r_on.kernel_count, r_off.kernel_count);
  EXPECT_EQ(r_on.stats().mem.tiles_spilled, 0);
  EXPECT_EQ(r_on.stats().mem.batch_shrinks, 0);
}

TEST_F(SchedulerMem, FailFastThrowsTypedOomError) {
  SolverInstance inst(a_, io_);
  ScheduleOptions so = base_options();
  const mem::FootprintProjection fp = mem::project_footprint(inst.graph(), 2);
  so.mem.budget_bytes = fp.peak_rank_bytes / 2;
  so.mem.policy = mem::MemPolicy::kFailFast;
  try {
    (void)inst.run_timing(so);
    FAIL() << "expected OomError";
  } catch (const mem::OomError& e) {
    EXPECT_GE(e.rank(), 0);
    EXPECT_EQ(e.capacity_bytes(), so.mem.budget_bytes);
    EXPECT_NE(std::string(e.what()).find("exceeds the memory budget"),
              std::string::npos);
  }
}

TEST_F(SchedulerMem, ShrinkAloneCannotAbsorbResidencyAndFails) {
  // Shrinking narrows transient demand but factor blocks stay resident, so
  // a budget below the resident set must still fail under kShrink.
  SolverInstance inst(a_, io_);
  ScheduleOptions so = base_options();
  const mem::FootprintProjection fp = mem::project_footprint(inst.graph(), 2);
  so.mem.budget_bytes = fp.peak_rank_bytes / 2;
  so.mem.policy = mem::MemPolicy::kShrink;
  EXPECT_THROW((void)inst.run_timing(so), mem::OomError);
}

TEST_F(SchedulerMem, SpillPolicyCompletesUnderHalfTheResidencyDeterministically) {
  SolverInstance inst(a_, io_);
  ScheduleOptions so = base_options();
  const mem::FootprintProjection fp = mem::project_footprint(inst.graph(), 2);
  so.mem.budget_bytes =
      std::max<offset_t>(1 << 16, fp.peak_rank_bytes / 2);
  so.mem.policy = mem::MemPolicy::kSpill;
  const ScheduleResult r1 = inst.run_timing(so);
  const mem::MemStats& ms = r1.stats().mem;
  EXPECT_GT(ms.tiles_spilled, 0);
  EXPECT_LE(ms.high_water_bytes, so.mem.budget_bytes);
  EXPECT_GT(ms.spill_s, 0);
  EXPECT_GE(ms.allocs, ms.frees);  // resident factor blocks outlive the run
  // Spilling prices real stalls into the timeline.
  ScheduleOptions off = base_options();
  EXPECT_GT(r1.makespan_s, inst.run_timing(off).makespan_s);
  // Deterministic: an identical run replays the identical timeline.
  const ScheduleResult r2 = inst.run_timing(so);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(ms.tiles_spilled, r2.stats().mem.tiles_spilled);
  EXPECT_EQ(ms.tiles_reloaded, r2.stats().mem.tiles_reloaded);
  EXPECT_EQ(ms.batch_shrinks, r2.stats().mem.batch_shrinks);
  EXPECT_EQ(ms.high_water_bytes, r2.stats().mem.high_water_bytes);
}

TEST_F(SchedulerMem, CapacityRampDegradesAndReplaysBitIdentically) {
  SolverInstance inst(a_, io_);
  ScheduleOptions so = base_options();
  const mem::FootprintProjection fp = mem::project_footprint(inst.graph(), 2);
  so.mem.budget_bytes = 2 * fp.peak_rank_with_workspace();
  so.mem.policy = mem::MemPolicy::kSpill;
  const real_t horizon = inst.run_timing(base_options()).makespan_s;
  so.faults.mem_pressure.push_back({-1, horizon * 0.3, 0.25});
  so.faults.mem_alloc_fail_prob = 0.01;
  so.faults.seed = 11;
  const ScheduleResult r1 = inst.run_timing(so);
  EXPECT_GE(r1.stats().mem.pressure_events, 1);
  EXPECT_GT(r1.stats().mem.tiles_spilled, 0);  // the ramp forced evictions
  const ScheduleResult r2 = inst.run_timing(so);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.stats().mem.tiles_spilled, r2.stats().mem.tiles_spilled);
  EXPECT_EQ(r1.stats().mem.alloc_failures, r2.stats().mem.alloc_failures);
}

TEST_F(SchedulerMem, ResumeAndMemBudgetCannotCombine) {
  SolverInstance inst(a_, io_);
  ScheduleOptions so = base_options();
  so.mem.budget_bytes = mem::MemOptions::gib(1);
  so.resume = CheckpointState{};
  EXPECT_THROW((void)inst.run_timing(so), Error);
}

TEST_F(SchedulerMem, NumericSpillIoRoundTripsFactorsByteExact) {
  // Same budget with and without a spill directory: identical schedule,
  // but with the directory every evicted payload round-trips through the
  // on-disk THTS store — the factors must come back bit-identical.
  ScheduleOptions so = base_options();
  so.exec.workers = 2;

  SolverInstance model(a_, io_);
  const mem::FootprintProjection fp = mem::project_footprint(model.graph(), 2);
  so.mem.budget_bytes = std::max<offset_t>(1 << 16, fp.peak_rank_bytes / 2);
  so.mem.policy = mem::MemPolicy::kSpill;
  const ScheduleResult rm = model.run_numeric(so);
  ASSERT_GT(rm.stats().mem.tiles_spilled, 0);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mem_spill_io").string();
  so.mem.spill_dir = dir;
  SolverInstance disk(a_, io_);
  const ScheduleResult rd = disk.run_numeric(so);
  EXPECT_EQ(rm.makespan_s, rd.makespan_s);
  EXPECT_EQ(rm.stats().mem.tiles_spilled, rd.stats().mem.tiles_spilled);

  const TileMatrix& tm = model.plu_factorization()->tiles();
  const TileMatrix& td = disk.plu_factorization()->tiles();
  ASSERT_EQ(tm.nt(), td.nt());
  for (index_t i = 0; i < tm.nt(); ++i) {
    for (index_t j = 0; j < tm.nt(); ++j) {
      const Tile* x = tm.tile(i, j);
      const Tile* y = td.tile(i, j);
      ASSERT_EQ(x == nullptr, y == nullptr);
      if (x == nullptr) continue;
      ASSERT_EQ(x->storage(), y->storage()) << i << "," << j;
      if (x->storage() != Tile::Storage::kDense) continue;
      const std::size_t bytes = static_cast<std::size_t>(x->rows()) *
                                static_cast<std::size_t>(x->cols()) *
                                sizeof(real_t);
      EXPECT_EQ(std::memcmp(x->dense_data(), y->dense_data(), bytes), 0)
          << "tile " << i << "," << j;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace th
