// Tests of the observability layer (src/obs): registry semantics under
// concurrent WorkerPool updates, recorder ring/span behaviour, unified
// trace-export determinism against hand-built timelines with fixed
// timestamps, and the zero-event/zero-metric guarantee when the switch is
// off (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exec/worker_pool.hpp"
#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "obs/testing.hpp"
#include "sim/cluster.hpp"
#include "solvers/driver.hpp"

namespace th {
namespace {

// ---- Registry ----------------------------------------------------------

TEST(Registry, CounterGaugeHistogramBasics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);

  obs::Gauge& g = reg.gauge("t.gauge");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);

  obs::Histogram& h = reg.histogram("t.hist");
  h.record(1.0);
  h.record(4.0);
  h.record(-2.0);  // non-positive samples land in bucket 0
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, ReferencesSurviveResetValues) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.stable");
  c.add(7);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0);
  // Same identity: find-or-create returns the cached object, and updates
  // through the old reference are visible through a fresh lookup.
  c.add(2);
  EXPECT_EQ(&reg.counter("t.stable"), &c);
  EXPECT_EQ(reg.counter("t.stable").value(), 2);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, SnapshotIsSortedAndTyped) {
  obs::Registry reg;
  reg.counter("b.count").add(3);
  reg.gauge("a.gauge").set(1.5);
  reg.histogram("c.hist").record(2.0);
  const std::vector<obs::MetricSample> s = reg.snapshot();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].name, "a.gauge");
  EXPECT_EQ(s[0].type, obs::MetricType::kGauge);
  EXPECT_DOUBLE_EQ(s[0].value, 1.5);
  EXPECT_EQ(s[1].name, "b.count");
  EXPECT_EQ(s[1].type, obs::MetricType::kCounter);
  EXPECT_EQ(s[1].count, 3);
  EXPECT_EQ(s[2].name, "c.hist");
  EXPECT_EQ(s[2].type, obs::MetricType::kHistogram);
  EXPECT_EQ(s[2].count, 1);
}

// Exactness under contention: every lane hammers the same counter and
// histogram through the find-or-create path. Run under tsan in CI.
TEST(Registry, ExactTotalsUnderWorkerPool) {
  obs::Registry reg;
  constexpr int kLanes = 8;
  constexpr int kIters = 2000;
  exec::WorkerPool pool(kLanes);
  pool.run([&reg](int lane) {
    for (int i = 0; i < kIters; ++i) {
      reg.counter("t.contended").add();
      reg.histogram("t.sizes").record(static_cast<double>(lane + 1));
      reg.gauge("t.last").set(static_cast<double>(lane));
    }
  });
  EXPECT_EQ(reg.counter("t.contended").value(), kLanes * kIters);
  EXPECT_EQ(reg.histogram("t.sizes").count(), kLanes * kIters);
  EXPECT_DOUBLE_EQ(reg.histogram("t.sizes").min(), 1.0);
  EXPECT_DOUBLE_EQ(reg.histogram("t.sizes").max(), kLanes);
  // sum = kIters * (1 + 2 + ... + kLanes); every summand is integral, so
  // the atomic double accumulation is exact.
  EXPECT_DOUBLE_EQ(reg.histogram("t.sizes").sum(),
                   kIters * (kLanes * (kLanes + 1)) / 2.0);
}

TEST(Registry, MetricsJsonAndCsvRoundTrip) {
  obs::Registry reg;
  reg.counter("t.kernels").add(42);
  reg.gauge("t.wall_s").set(0.125);
  std::ostringstream js;
  obs::write_metrics_json(js, reg.snapshot());
  EXPECT_NE(js.str().find("\"t.kernels\""), std::string::npos);
  EXPECT_NE(js.str().find("42"), std::string::npos);
  std::ostringstream csv;
  obs::write_metrics_csv(csv, reg.snapshot());
  EXPECT_NE(csv.str().find("t.wall_s"), std::string::npos);
}

// ---- Recorder ----------------------------------------------------------

TEST(Recorder, RecordsSpansAndInstantsWhenEnabled) {
  const obs::Session session(true);
  obs::Recorder rec(16);
  rec.instant(obs::Domain::kSim, 2, "tick", "agg", 1.5, "depth", 7);
  rec.span(obs::Domain::kHost, 0, "work", "exec", 0.25, 0.75);
  ASSERT_EQ(rec.size(), 2u);
  const std::vector<obs::Event> ev = rec.events();
  EXPECT_EQ(ev[0].kind, obs::EventKind::kInstant);
  EXPECT_EQ(ev[0].track, 2);
  EXPECT_STREQ(ev[0].name, "tick");
  EXPECT_STREQ(ev[0].arg_name0, "depth");
  EXPECT_EQ(ev[0].arg0, 7);
  EXPECT_EQ(ev[1].kind, obs::EventKind::kSpan);
  EXPECT_EQ(ev[1].domain, obs::Domain::kHost);
  EXPECT_DOUBLE_EQ(ev[1].t0, 0.25);
  EXPECT_DOUBLE_EQ(ev[1].t1, 0.75);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, RingWrapDropsOldestAndCounts) {
  const obs::Session session(true);
  obs::Recorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.instant(obs::Domain::kSim, 0, "e", "t", static_cast<real_t>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const std::vector<obs::Event> ev = rec.events();
  ASSERT_EQ(ev.size(), 4u);
  // Oldest-first suffix of the stream: timestamps 6..9.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(ev[i].t0, 6.0 + i);
}

TEST(Recorder, ExactCountUnderConcurrentEmission) {
  const obs::Session session(true);
  obs::Recorder rec(1 << 15);
  constexpr int kLanes = 8;
  constexpr int kIters = 1000;
  exec::WorkerPool pool(kLanes);
  pool.run([&rec](int lane) {
    for (int i = 0; i < kIters; ++i) {
      rec.span(obs::Domain::kHost, lane, "w", "exec", i, i + 1);
    }
  });
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kLanes * kIters));
  EXPECT_EQ(rec.size(), static_cast<std::size_t>(kLanes * kIters));
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(WorkerPool, LabelledRunEmitsOneHostSpanPerLane) {
  const obs::Session session(true);
  obs::Recorder& rec = obs::Recorder::global();
  constexpr int kLanes = 4;
  exec::WorkerPool pool(kLanes);
  pool.run([](int) {}, "lane work");
  std::vector<int> seen(kLanes, 0);
  for (const obs::Event& e : rec.events()) {
    if (std::string(e.name) != "lane work") continue;
    EXPECT_EQ(e.domain, obs::Domain::kHost);
    EXPECT_EQ(e.kind, obs::EventKind::kSpan);
    EXPECT_LE(e.t0, e.t1);
    ASSERT_GE(e.track, 0);
    ASSERT_LT(e.track, kLanes);
    ++seen[static_cast<std::size_t>(e.track)];
  }
  for (int lane = 0; lane < kLanes; ++lane) EXPECT_EQ(seen[lane], 1);
}

// ---- Unified export ----------------------------------------------------

// A fixed sim timeline + fixed-timestamp recorder events must export to a
// byte-identical Chrome-trace string on every call: the export is pure in
// its inputs (no clocks, no iteration-order dependence).
TEST(UnifiedExport, GoldenDeterminism) {
  const obs::Session session(true);
  Trace sim;
  sim.record(KernelRecord{/*rank=*/0, /*start_s=*/0.0, /*end_s=*/1.0,
                          /*host_s=*/0.125, /*flops=*/1000, /*tasks=*/4});
  sim.record(KernelRecord{/*rank=*/1, /*start_s=*/0.5, /*end_s=*/2.0,
                          /*host_s=*/0.25, /*flops=*/2000, /*tasks=*/8});

  obs::Recorder rec(16);
  rec.instant(obs::Domain::kSim, 0, "batch formed", "agg", 0.5, "size", 4);
  rec.instant(obs::Domain::kSim, -1, "checkpoint", "recovery", 1.25);
  rec.span(obs::Domain::kHost, 1, "exec blocks", "exec", 0.1, 0.9, "blocks",
           17);
  rec.span(obs::Domain::kHost, -1, "exec batch", "exec", 0.0, 1.0, "tasks",
           12);

  std::ostringstream a;
  obs::write_unified_trace(a, &sim, rec, "golden");
  std::ostringstream b;
  obs::write_unified_trace(b, &sim, rec, "golden");
  EXPECT_EQ(a.str(), b.str());

  const std::string out = a.str();
  // Structure: sim kernels on pid 1 rank threads, host spans on pid 2
  // lane threads, the rank-global instant on the sim process.
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("golden"), std::string::npos);
  EXPECT_NE(out.find("\"batch formed\""), std::string::npos);
  EXPECT_NE(out.find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(out.find("\"exec blocks\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("\"blocks\":17"), std::string::npos);
  // Both clock domains are present as separate processes.
  EXPECT_NE(out.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":2"), std::string::npos);
}

TEST(UnifiedExport, HostOnlyDumpAcceptsNullSim) {
  const obs::Session session(true);
  obs::Recorder rec(8);
  rec.span(obs::Domain::kHost, 0, "w", "exec", 0.0, 1.0);
  std::ostringstream out;
  obs::write_unified_trace(out, nullptr, rec, "host only");
  EXPECT_NE(out.str().find("\"w\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"pid\":1,\"tid\""), std::string::npos);
}

TEST(TestingHook, MutableRecordsEditsTimeline) {
  Trace t;
  t.record(KernelRecord{0, 0.0, 1.0, 0.0, 10, 1});
  obs::testing::mutable_records(t)[0].end_s = 2.0;
  EXPECT_DOUBLE_EQ(t.records()[0].end_s, 2.0);
}

// ---- Disabled-path guarantees ------------------------------------------

TEST(Session, EnablingResetsAndDtorRestores) {
  ASSERT_FALSE(obs::enabled());
  obs::Registry::global().counter("t.session.stale").add(9);
  {
    const obs::Session session(true);
    EXPECT_TRUE(obs::enabled());
    // Enabling from off zeroed prior values and cleared the recorder.
    EXPECT_EQ(obs::Registry::global().counter("t.session.stale").value(), 0);
    EXPECT_EQ(obs::Recorder::global().size(), 0u);
    {
      const obs::ScopedDisable off;
      EXPECT_FALSE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled());
  }
  EXPECT_FALSE(obs::enabled());
}

// The contract the bench gate measures: with the switch off, a fully
// instrumented run emits no events and publishes no metrics.
TEST(DisabledPath, InstrumentedRunLeavesNoTraceAndNoMetrics) {
  ASSERT_FALSE(obs::enabled());
  obs::Recorder& rec = obs::Recorder::global();
  rec.clear();
  obs::Registry::global().reset_values();

  // Direct emission is dropped…
  rec.instant(obs::Domain::kSim, 0, "e", "t", 1.0);
  rec.span(obs::Domain::kHost, 0, "s", "t", 0.0, 1.0);
  // …the labelled pool overload records nothing…
  exec::WorkerPool pool(4);
  pool.run([](int) {}, "lane work");
  // …and a full instrumented numeric run (scheduler, collector,
  // prioritizer, executor, fault layer) publishes nothing.
  const Csr a = finalize_system(grid2d_laplacian(12, 12), 1);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  SolverInstance inst(a, io);
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = 2;
  const ScheduleResult r = inst.run_numeric(so);
  EXPECT_GT(r.kernel_count, 0);

  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  // Every metric — pre-existing or newly registered during the run —
  // still holds its zero reset value.
  for (const obs::MetricSample& m : obs::Registry::global().snapshot()) {
    EXPECT_EQ(m.count, 0) << m.name;
    EXPECT_DOUBLE_EQ(m.value, 0) << m.name;
  }
}

// And the flip side: the same run observed under a Session populates both
// surfaces, and the published metrics reconcile with ScheduleResult.
TEST(EnabledPath, MetricsReconcileWithScheduleResult) {
  const Csr a = finalize_system(grid2d_laplacian(12, 12), 1);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = 2;

  const obs::Session session(true);
  SolverInstance inst(a, io);
  const ScheduleResult r = inst.run_numeric(so);
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("th.sched.kernels").value(), r.kernel_count);
  EXPECT_EQ(reg.counter("th.exec.batches").value(),
            r.stats().exec.batches);
  EXPECT_GT(obs::Recorder::global().size(), 0u);
}

// th.exec.* covers only runs that execute numerics: an observed
// timing-only replay (a solve priced after a factorization) leaves the
// factor run's exec gauges and counters as they were.
TEST(EnabledPath, TimingOnlyReplayLeavesExecMetrics) {
  const Csr a = finalize_system(grid2d_laplacian(12, 12), 1);
  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.block = 16;
  ScheduleOptions so;
  so.policy = Policy::kTrojanHorse;
  so.cluster = single_gpu(device_a100());
  so.exec.workers = 2;

  const obs::Session session(true);
  SolverInstance inst(a, io);
  const ScheduleResult r = inst.run_numeric(so);
  obs::Registry& reg = obs::Registry::global();
  ASSERT_EQ(reg.gauge("th.exec.workers").value(), 2);
  const std::int64_t batches = reg.counter("th.exec.batches").value();
  EXPECT_EQ(batches, r.stats().exec.batches);

  ScheduleOptions replay = so;
  replay.exec.workers = 3;
  const ScheduleResult t = simulate(inst.graph(), replay, nullptr);
  EXPECT_EQ(t.stats().exec.batches, 0);
  EXPECT_EQ(reg.gauge("th.exec.workers").value(), 2);
  EXPECT_EQ(reg.counter("th.exec.batches").value(), batches);
  EXPECT_EQ(reg.counter("th.sched.kernels").value(),
            r.kernel_count + t.kernel_count);
}

}  // namespace
}  // namespace th
