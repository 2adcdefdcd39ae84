#include "exec/batch_executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
#include "support/stopwatch.hpp"

namespace th::exec {
namespace {

// Per-lane busy time (and the batch span derived from it) uses
// th::thread_cpu_seconds (support/stopwatch.hpp): immune to preemption, so
// it stays meaningful on machines with fewer cores than lanes.

/// How one batch member executes.
enum class Mode : char {
  kInPlace,  // plain writes, no conflict
  kScratch,  // conflict: accumulate into private scratch, fold in epilogue
  kSerial,   // conflict, backend without scratch: run whole in the epilogue
  kSkip,     // simulated kernel crash: priced but not executed
};

}  // namespace

BatchExecutor::BatchExecutor(const BatchExecOptions& opt)
    : opt_(opt),
      own_pool_(opt.shared_pool != nullptr
                    ? nullptr
                    : std::make_unique<WorkerPool>(opt.n_threads)),
      pool_(opt.shared_pool != nullptr ? opt.shared_pool : own_pool_.get()) {
  TH_CHECK(opt.chunk_blocks > 0);
  TH_CHECK(opt.watchdog_s >= 0);
  // A borrowed pool keeps its owner's watchdog configuration — many
  // executors share it and must not fight over the period.
  if (own_pool_ != nullptr) pool_->set_watchdog(opt.watchdog_s);
  // Sized for the full width: the watchdog may shrink the pool later, but
  // every batch indexes lanes [0, width-at-dispatch).
  lane_busy_.assign(static_cast<std::size_t>(pool_->width()), 0.0);
  lane_slices_.assign(static_cast<std::size_t>(pool_->width()), 0);
}

void BatchExecutor::execute(NumericBackend& backend,
                            const std::vector<const Task*>& tasks,
                            const std::vector<char>& atomic_flags,
                            const std::vector<char>* skip,
                            BatchVerify* verify) {
  TH_CHECK(!tasks.empty());
  TH_CHECK(atomic_flags.size() == tasks.size());
  TH_CHECK(skip == nullptr || skip->size() == tasks.size());
  const bool obs_on = obs::enabled();
  obs::Recorder& rec = obs::Recorder::global();
  const real_t batch_t0 = obs_on ? rec.host_now() : 0;
  const Stopwatch wall;
  const real_t caller_t0 = thread_cpu_seconds();

  const BlockMap map = BlockMap::from_tasks(tasks);

  // Classify members and lay out the conflict scratch.
  const std::size_t nb = tasks.size();
  std::vector<Mode> mode(nb, Mode::kInPlace);
  std::vector<offset_t> scratch_at(nb, -1);
  offset_t scratch_total = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    if (skip != nullptr && (*skip)[i] != 0) {
      mode[i] = Mode::kSkip;
    } else if (atomic_flags[i] != 0) {
      if (const offset_t sz = backend.scratch_size(*tasks[i]); sz > 0) {
        mode[i] = Mode::kScratch;
        scratch_at[i] = scratch_total;
        scratch_total += sz;
      } else {
        mode[i] = Mode::kSerial;
      }
    }
  }
  scratch_.assign(static_cast<std::size_t>(scratch_total), 0.0);

  // Serial prologue: per-task preparation (densify targets, ...) for every
  // member that runs sliced in the parallel phase.
  for (std::size_t i = 0; i < nb; ++i) {
    if (mode[i] == Mode::kSkip || mode[i] == Mode::kSerial) continue;
    backend.prepare_task(*tasks[i]);
  }

  // ABFT capture: snapshot + pre-execution checksums for every member that
  // will run (including epilogue-serialised ones). Planning is serial and
  // cheap; the heavy per-target jobs (snapshot, sums, SSSSM delta folds)
  // drain on the worker lanes — distinct jobs touch distinct targets, so
  // they need no coordination.
  if (verify != nullptr && verify->abft) {
    const Stopwatch cap;
    for (std::size_t i = 0; i < nb; ++i) {
      if (mode[i] == Mode::kSkip) continue;
      backend.abft_capture_plan(*tasks[i]);
    }
    if (const std::size_t jobs = backend.abft_capture_jobs(); jobs > 0) {
      const std::size_t cw = static_cast<std::size_t>(pool_->width());
      pool_->run(
          [&](int lane) {
            for (std::size_t j = static_cast<std::size_t>(lane); j < jobs;
                 j += cw)
              backend.abft_capture_run(j);
          },
          "abft capture");
    }
    verify->capture_s += cap.seconds();
  }

  // Parallel phase: the block range is cut into fixed chunks owned
  // round-robin by lane — the host analogue of CUDA's static blockIdx
  // assignment (each block knows its id before the kernel runs; nothing is
  // negotiated at runtime). Static ownership keeps per-lane work — and the
  // span derived from it — independent of how the OS interleaves the
  // lanes, so the scaling numbers survive core-starved CI machines.
  std::atomic<long> fallbacks{0};
  const index_t total = map.total_blocks();
  const index_t width = static_cast<index_t>(pool_->width());
  std::fill(lane_busy_.begin(), lane_busy_.end(), 0.0);
  std::fill(lane_slices_.begin(), lane_slices_.end(), 0);
  pool_->run([&](int lane) {
    const real_t t0 = thread_cpu_seconds();
    long slices = 0;
    for (index_t chunk = static_cast<index_t>(lane) * opt_.chunk_blocks;
         chunk < total; chunk += width * opt_.chunk_blocks) {
      const index_t chunk_end =
          std::min<index_t>(chunk + opt_.chunk_blocks, total);
      index_t b = chunk;
      index_t pos = map.task_of_block(b);
      while (b < chunk_end) {
        const index_t e = std::min(chunk_end, map.start_of(pos + 1));
        const Mode m = mode[static_cast<std::size_t>(pos)];
        if (m != Mode::kSkip && m != Mode::kSerial) {
          const Task& t = *tasks[static_cast<std::size_t>(pos)];
          const index_t l0 = b - map.start_of(pos);
          const index_t l1 = e - map.start_of(pos);
          real_t* into =
              m == Mode::kScratch
                  ? scratch_.data() + scratch_at[static_cast<std::size_t>(pos)]
                  : nullptr;
          if (backend.run_blocks(t, l0, l1, false, into)) {
            ++slices;
          } else if (l0 == 0) {
            // No block-level body: the lane holding the task's first block
            // runs it whole; lanes holding later slices of it fall through.
            TH_ASSERT(into == nullptr);  // scratch implies block support
            backend.run_task(t, false);
            fallbacks.fetch_add(1, std::memory_order_relaxed);
          }
        }
        b = e;
        ++pos;
      }
    }
    lane_busy_[static_cast<std::size_t>(lane)] = thread_cpu_seconds() - t0;
    lane_slices_[static_cast<std::size_t>(lane)] = slices;
  }, "exec blocks");

  // Ordered epilogue, one fixed order regardless of thread count: fold
  // conflict scratch and run serialised members in batch position order.
  long det_reds = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    if (mode[i] == Mode::kScratch) {
      backend.apply_scratch(*tasks[i], scratch_.data() + scratch_at[i]);
      ++det_reds;
    } else if (mode[i] == Mode::kSerial) {
      backend.run_task(*tasks[i], false);
      fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (verify != nullptr) {
    // Plant silent corruption into the outputs the kernels just wrote —
    // after execution, before verification, exactly where a real SDC would
    // sit when the checksum pass reaches the tile.
    for (const auto& [member, kind] : verify->sabotage) {
      TH_CHECK(member < nb);
      if (mode[member] == Mode::kSkip) continue;
      if (backend.inject_fault(*tasks[member], kind)) ++verify->sabotaged;
    }
    verify->outcome.assign(nb, 0);
    if (verify->abft) {
      const Stopwatch ver;
      // Verification is independent per target, so group members by their
      // target tile and check the groups on the worker lanes. Members
      // sharing a target stay in one group (the backend memoizes the
      // verdict per target, and concurrent verify of one target would
      // race on it). Outcome slots are per member — no write conflicts.
      std::unordered_map<std::uint64_t, std::size_t> gidx;
      std::vector<std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < nb; ++i) {
        if (mode[i] == Mode::kSkip) continue;
        ++verify->verified;
        const Task& t = *tasks[i];
        const std::uint64_t k =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.row))
             << 32) |
            static_cast<std::uint32_t>(t.col);
        const auto [it, fresh] = gidx.try_emplace(k, groups.size());
        if (fresh) groups.emplace_back();
        groups[it->second].push_back(i);
      }
      if (!groups.empty()) {
        const std::size_t vw = static_cast<std::size_t>(pool_->width());
        pool_->run(
            [&](int lane) {
              for (std::size_t g = static_cast<std::size_t>(lane);
                   g < groups.size(); g += vw) {
                for (const std::size_t i : groups[g]) {
                  if (!backend.abft_verify(*tasks[i], verify->rel_tol))
                    verify->outcome[i] = 1;
                }
              }
            },
            "abft verify");
      }
      verify->verify_s += ver.seconds();
    }
  }

  real_t busy = 0;
  real_t span_max = 0;
  for (index_t l = 0; l < width; ++l) {
    const real_t lb = lane_busy_[static_cast<std::size_t>(l)];
    busy += lb;
    span_max = std::max(span_max, lb);
    stats_.slices += lane_slices_[static_cast<std::size_t>(l)];
  }
  // The caller's CPU time minus its lane-0 share isolates the serial
  // prologue + epilogue, which sits on the critical path at any width.
  const real_t serial_s = std::max<real_t>(
      0.0, (thread_cpu_seconds() - caller_t0) - lane_busy_[0]);
  stats_.busy_s += busy + serial_s;
  stats_.span_s += span_max + serial_s;
  stats_.wall_s += wall.seconds();
  stats_.fallback_tasks += fallbacks.load(std::memory_order_relaxed);
  stats_.det_reductions += det_reds;
  const int prev_degraded = stats_.lanes_degraded;
  stats_.workers = pool_->width();  // post-batch: reflects watchdog degrades
  stats_.lanes_degraded = pool_->lanes_degraded();
  stats_.stragglers = pool_->stragglers();
  ++stats_.batches;
  if (obs_on) {
    if (stats_.lanes_degraded > prev_degraded) {
      rec.instant(obs::Domain::kHost, -1, "watchdog degraded lane", "recovery",
                  rec.host_now(), "lanes",
                  stats_.lanes_degraded - prev_degraded, "width",
                  stats_.workers);
    }
    rec.span(obs::Domain::kHost, -1, "exec batch", "exec", batch_t0,
             rec.host_now(), "tasks", static_cast<std::int64_t>(nb), "blocks",
             static_cast<std::int64_t>(total));
  }
}

void ExecStats::publish_metrics() const {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("th.exec.wall_s").add(wall_s);
  reg.gauge("th.exec.busy_s").add(busy_s);
  reg.gauge("th.exec.span_s").add(span_s);
  reg.counter("th.exec.slices").add(slices);
  reg.counter("th.exec.fallback_tasks").add(fallback_tasks);
  reg.counter("th.exec.det_reductions").add(det_reductions);
  reg.gauge("th.exec.workers").set(workers);
  reg.counter("th.exec.batches").add(batches);
  reg.counter("th.exec.lanes_degraded").add(lanes_degraded);
  reg.counter("th.exec.stragglers").add(stragglers);
}

}  // namespace th::exec
