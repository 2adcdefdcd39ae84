// Measurement probes the benchmark wraps around the library's public calls:
// in-memory spans written as Chrome-trace JSON, a timing decorator over
// NumericBackend (kernel counters, not spans — there are millions of
// calls), process memory readings and a global operator-new counter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/backend.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Timing samples of one quantity; reported as median with the count.
/// Each sample may carry the stall ratio (StallMeter) it was taken under.
struct Samples {
  std::vector<double> v;
  std::vector<double> stall;  // parallel to v
  void add(double x, double stall_ratio = 0) {
    v.push_back(x);
    stall.push_back(stall_ratio);
  }
  double median() const;
  std::size_t count() const { return v.size(); }
  /// The ceil(n/2) samples with the lowest stall ratio.
  Samples quietest_half() const;
};

/// Wall seconds per process CPU second between construction and ratio().
/// The same work takes the same CPU time, so the ratio rises when this
/// process waits for CPUs it wants: host steal, or slow wake-ups of idle
/// vCPUs when the host is overcommitted.
class StallMeter {
 public:
  StallMeter();
  double ratio() const;

 private:
  double wall0_;
  double cpu0_;
};

/// Spans recorded by the benchmark around each public call (name, start,
/// end, parent, run id). Inert when constructed off.
class SpanLog {
 public:
  SpanLog(bool on, std::string run_id) : on_(on), run_(std::move(run_id)) {}

  int begin(const char* name);
  void end(int id);
  std::size_t size() const { return spans_.size(); }
  /// Chrome-trace JSON ("X" events, parent and run id in args).
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;
  };
  bool on_;
  std::string run_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Forwards every NumericBackend virtual to `inner`, timing the kernel
/// bodies (run_task, run_blocks) per task type. Per-thread tallies, summed
/// by totals() once the run has returned.
class TimingBackend final : public th::NumericBackend {
 public:
  struct Tally {
    std::array<long, 4> calls{};
    std::array<double, 4> lane_s{};
  };

  explicit TimingBackend(th::NumericBackend& inner);

  Tally totals() const;

  void run_task(const th::Task& t, bool atomic) override;
  bool inject_fault(const th::Task& t, th::NumericFaultKind kind) override;
  th::GuardReport guard_task(const th::Task& t,
                             const th::GuardPolicy& policy) override;
  void abft_capture(const th::Task& t) override;
  void abft_capture_plan(const th::Task& t) override;
  std::size_t abft_capture_jobs() override;
  void abft_capture_run(std::size_t job) override;
  bool abft_verify(const th::Task& t, th::real_t rel_tol) override;
  void abft_rollback(const th::Task& t) override;
  void abft_reset() override;
  std::vector<th::real_t> extract_block(const th::Task& t) override;
  void restore_block(const th::Task& t,
                     const std::vector<th::real_t>& data) override;
  void prepare_task(const th::Task& t) override;
  bool run_blocks(const th::Task& t, th::index_t b0, th::index_t b1,
                  bool atomic, th::real_t* into) override;
  th::offset_t scratch_size(const th::Task& t) override;
  void apply_scratch(const th::Task& t, const th::real_t* scratch) override;

 private:
  Tally& local();

  th::NumericBackend& inner_;
  const std::uint64_t id_;
  mutable std::mutex mu_;  // guards slots_
  std::vector<std::unique_ptr<Tally>> slots_;
};

/// Seconds of one run of a fixed, library-independent reference kernel: a
/// small dense update, a random pointer chase and a binary-heap churn (the
/// access patterns of the solver's kernels, task graph and event loop).
/// Its time tracks the machine's current single-thread speed.
double reference_kernel_s();

/// VmRSS / VmHWM of this process in MiB; -1 when /proc is unavailable.
double rss_mib();
double peak_rss_mib();

/// Count global operator-new calls while enabled (this binary replaces
/// operator new; the count covers every thread).
void count_allocs(bool on);
long alloc_count();

}  // namespace perfbench
