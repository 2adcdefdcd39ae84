// Extension: out-of-core robustness gate (DESIGN.md §13).
//
// Factorises one matrix twice with the PLU core under deterministic
// accumulation: once with an effectively unlimited memory budget, once with
// a budget of half the unconstrained run's high-water mark plus a spill
// directory. The constrained run must (a) complete by spilling cold factor
// tiles, (b) keep its ledger high water within the budget, (c) stay within
// a 3x slowdown of the unconstrained run, and (d) produce bitwise-identical
// factors — spilled payloads round-trip through the THTS tile store
// byte-exact. The obs registry must reconcile with ScheduleResult MemStats.
// Any violated gate exits 1, so CI can hold the line.
#include <cstring>
#include <filesystem>

#include "common/bench_common.hpp"
#include "gen/generators.hpp"
#include "kernels/tile.hpp"
#include "mem/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "support/stats.hpp"

using namespace th;
using namespace th::bench;

namespace {

int g_failures = 0;

void gate(bool ok, const char* what) {
  std::printf("  gate: %-52s %s\n", what, ok ? "PASS" : "FAIL");
  if (!ok) ++g_failures;
}

bool tiles_identical(const TileMatrix& x, const TileMatrix& y) {
  if (x.nt() != y.nt()) return false;
  for (index_t i = 0; i < x.nt(); ++i) {
    for (index_t j = 0; j < x.nt(); ++j) {
      const Tile* a = x.tile(i, j);
      const Tile* b = y.tile(i, j);
      if ((a == nullptr) != (b == nullptr)) return false;
      if (a == nullptr) continue;
      if (a->storage() != b->storage() || a->rows() != b->rows() ||
          a->cols() != b->cols()) {
        return false;
      }
      if (a->storage() == Tile::Storage::kDense) {
        const std::size_t bytes = static_cast<std::size_t>(a->rows()) *
                                  static_cast<std::size_t>(a->cols()) *
                                  sizeof(real_t);
        if (std::memcmp(a->dense_data(), b->dense_data(), bytes) != 0) {
          return false;
        }
      } else {
        if (a->values().size() != b->values().size() ||
            std::memcmp(a->values().data(), b->values().data(),
                        a->values().size() * sizeof(real_t)) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  banner("OOM spill extension",
         "Factor under a budget half the unconstrained high-water mark: the "
         "run must complete by spilling, bit-identically, within 3x.");

  const index_t k = fast_mode() ? 36 : 60;
  const Csr a = finalize_system(grid2d_laplacian(k, k), 20260131);
  const int ranks = 2;

  InstanceOptions io;
  io.core = SolverCore::kPlu;
  io.grid = make_process_grid(ranks);

  ScheduleOptions so;
  so.cluster = cluster_h100();
  so.n_ranks = ranks;
  so.policy = Policy::kTrojanHorse;
  so.exec.workers = 2;

  // Run A: unconstrained (1 TiB budget, large enough to never degrade) —
  // measures the true high-water mark and the baseline makespan.
  SolverInstance unconstrained(a, io);
  so.mem.budget_bytes = mem::MemOptions::gib(1024);
  const ScheduleResult ra = unconstrained.run_numeric(so);
  const mem::MemStats& msa = ra.stats().mem;
  std::printf("unconstrained: %.3f ms, high water %.2f MiB\n",
              ra.makespan_s * 1e3,
              static_cast<double>(msa.high_water_bytes) / (1024.0 * 1024.0));

  // Run B: half that high water, spill policy, model-priced only (payloads
  // stay in host memory). Run C repeats B's exact configuration with a
  // spill directory, so both runs follow the identical schedule and every
  // evicted payload round-trips through the on-disk THTS store — the
  // bitwise comparison between B and C is a pure codec gate. The obs
  // registry is reset so its counters describe exactly run C.
  const std::filesystem::path spill_dir =
      std::filesystem::path("results") / "oom_spill_tiles";
  std::filesystem::create_directories(spill_dir);
  so.mem.budget_bytes = std::max<offset_t>(
      1 << 20, static_cast<offset_t>(msa.high_water_bytes / 2));
  so.mem.policy = mem::MemPolicy::kSpill;

  SolverInstance modeled(a, io);
  bool completed = true;
  ScheduleResult rb;
  ScheduleResult rc;
  SolverInstance spilled(a, io);
  try {
    rb = modeled.run_numeric(so);
    so.mem.spill_dir = spill_dir.string();
    obs::set_enabled(true);
    obs::Registry::global().reset_values();
    obs::Recorder::global().clear();
    rc = spilled.run_numeric(so);
  } catch (const mem::OomError& e) {
    completed = false;
    std::printf("constrained run failed: %s\n", e.what());
  }
  obs::set_enabled(false);

  gate(completed, "constrained runs complete under half the high water");
  if (completed) {
    const mem::MemStats& msb = rc.stats().mem;
    const real_t slowdown = rc.makespan_s / ra.makespan_s;
    std::printf("constrained:   %.3f ms (%.2fx), high water %.2f MiB of "
                "%.2f MiB budget\n",
                rc.makespan_s * 1e3, slowdown,
                static_cast<double>(msb.high_water_bytes) / (1024.0 * 1024.0),
                static_cast<double>(msb.budget_bytes) / (1024.0 * 1024.0));

    Table t("OOM spill: unconstrained vs budgeted (half high water)");
    t.set_header({"Run", "Time (ms)", "HighWater (MiB)", "Spilled", "Reloaded",
                  "Shrinks", "Stall (ms)"});
    auto row = [&](const char* label, const ScheduleResult& r) {
      const mem::MemStats& ms = r.stats().mem;
      t.add_row({label, fmt_fixed(r.makespan_s * 1e3, 3),
                 fmt_fixed(ms.high_water_bytes / (1024.0 * 1024.0), 2),
                 std::to_string(ms.tiles_spilled),
                 std::to_string(ms.tiles_reloaded),
                 std::to_string(ms.batch_shrinks),
                 fmt_fixed((ms.spill_s + ms.reload_s) * 1e3, 3)});
    };
    row("unconstrained", ra);
    row("spill (model)", rb);
    row("spill (disk)", rc);
    emit(t, "ext_oom_spill");

    gate(msb.tiles_spilled > 0, "the budget actually forced spills");
    gate(msb.high_water_bytes <= msb.budget_bytes,
         "ledger high water never exceeds the budget");
    gate(slowdown <= 3.0, "slowdown within 3x of unconstrained");
    gate(rb.makespan_s == rc.makespan_s &&
             rb.stats().mem.tiles_spilled == msb.tiles_spilled,
         "disk I/O does not change the modelled schedule");
    gate(tiles_identical(modeled.plu_factorization()->tiles(),
                         spilled.plu_factorization()->tiles()),
         "factors bitwise identical with spill I/O on/off");

    // The obs registry mirrors MemStats by construction; a drift between
    // the two means a counter was double-published or skipped.
    auto& reg = obs::Registry::global();
    const bool reconciled =
        reg.counter("th.mem.tiles_spilled").value() ==
            static_cast<std::int64_t>(msb.tiles_spilled) &&
        reg.counter("th.mem.tiles_reloaded").value() ==
            static_cast<std::int64_t>(msb.tiles_reloaded) &&
        reg.counter("th.mem.batch_shrinks").value() ==
            static_cast<std::int64_t>(msb.batch_shrinks) &&
        static_cast<offset_t>(
            reg.gauge("th.mem.high_water_bytes").value()) ==
            msb.high_water_bytes;
    gate(reconciled, "obs th.mem.* counters reconcile with MemStats");
  }

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);

  if (g_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
