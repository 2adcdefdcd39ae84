#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <new>
#include <numeric>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double Samples::median() const {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 == 1 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

Samples Samples::quietest_half() const {
  std::vector<std::size_t> idx(v.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
    return stall[a] < stall[b];
  });
  Samples out;
  for (std::size_t i = 0; i < (v.size() + 1) / 2; ++i) {
    out.add(v[idx[i]], stall[idx[i]]);
  }
  return out;
}

namespace {

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

StallMeter::StallMeter() : wall0_(now_s()), cpu0_(process_cpu_s()) {}

double StallMeter::ratio() const {
  const double cpu = process_cpu_s() - cpu0_;
  return cpu > 0 ? (now_s() - wall0_) / cpu : 0;
}

// ---- spans ---------------------------------------------------------------

int SpanLog::begin(const char* name) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.start_s = now_s();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  if (!on_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    out << (i ? "," : "") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"run\":\"" << run_ << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- kernel timing decorator ---------------------------------------------

namespace {

std::atomic<std::uint64_t> g_backend_ids{0};

struct LocalSlot {
  std::uint64_t owner = 0;
  TimingBackend::Tally* tally = nullptr;
};
thread_local LocalSlot t_slot;

std::size_t type_index(const th::Task& t) {
  return static_cast<std::size_t>(t.type);
}

double lap_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TimingBackend::TimingBackend(th::NumericBackend& inner)
    : inner_(inner), id_(++g_backend_ids) {}

TimingBackend::Tally& TimingBackend::local() {
  if (t_slot.owner != id_) {
    const std::lock_guard<std::mutex> lock(mu_);
    slots_.push_back(std::make_unique<Tally>());
    t_slot = {id_, slots_.back().get()};
  }
  return *t_slot.tally;
}

TimingBackend::Tally TimingBackend::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Tally sum;
  for (const auto& s : slots_) {
    for (std::size_t k = 0; k < 4; ++k) {
      sum.calls[k] += s->calls[k];
      sum.lane_s[k] += s->lane_s[k];
    }
  }
  return sum;
}

void TimingBackend::run_task(const th::Task& t, bool atomic) {
  const auto t0 = std::chrono::steady_clock::now();
  inner_.run_task(t, atomic);
  Tally& tl = local();
  tl.lane_s[type_index(t)] += lap_since(t0);
  ++tl.calls[type_index(t)];
}

bool TimingBackend::run_blocks(const th::Task& t, th::index_t b0,
                               th::index_t b1, bool atomic, th::real_t* into) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool ran = inner_.run_blocks(t, b0, b1, atomic, into);
  if (ran) {
    Tally& tl = local();
    tl.lane_s[type_index(t)] += lap_since(t0);
    ++tl.calls[type_index(t)];
  }
  return ran;
}

bool TimingBackend::inject_fault(const th::Task& t, th::NumericFaultKind kind) {
  return inner_.inject_fault(t, kind);
}
th::GuardReport TimingBackend::guard_task(const th::Task& t,
                                          const th::GuardPolicy& policy) {
  return inner_.guard_task(t, policy);
}
void TimingBackend::abft_capture(const th::Task& t) { inner_.abft_capture(t); }
void TimingBackend::abft_capture_plan(const th::Task& t) {
  inner_.abft_capture_plan(t);
}
std::size_t TimingBackend::abft_capture_jobs() {
  return inner_.abft_capture_jobs();
}
void TimingBackend::abft_capture_run(std::size_t job) {
  inner_.abft_capture_run(job);
}
bool TimingBackend::abft_verify(const th::Task& t, th::real_t rel_tol) {
  return inner_.abft_verify(t, rel_tol);
}
void TimingBackend::abft_rollback(const th::Task& t) {
  inner_.abft_rollback(t);
}
void TimingBackend::abft_reset() { inner_.abft_reset(); }
std::vector<th::real_t> TimingBackend::extract_block(const th::Task& t) {
  return inner_.extract_block(t);
}
void TimingBackend::restore_block(const th::Task& t,
                                  const std::vector<th::real_t>& data) {
  inner_.restore_block(t, data);
}
void TimingBackend::prepare_task(const th::Task& t) { inner_.prepare_task(t); }
th::offset_t TimingBackend::scratch_size(const th::Task& t) {
  return inner_.scratch_size(t);
}
void TimingBackend::apply_scratch(const th::Task& t,
                                  const th::real_t* scratch) {
  inner_.apply_scratch(t, scratch);
}

// ---- reference kernel ----------------------------------------------------

double reference_kernel_s() {
  constexpr int kDim = 64;
  constexpr std::size_t kChase = std::size_t{1} << 20;  // 8 MiB of indices
  static const std::vector<std::size_t> next = [] {
    std::vector<std::size_t> order(kChase);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (std::size_t i = kChase - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<std::size_t> n(kChase);
    for (std::size_t i = 0; i < kChase; ++i) n[order[i]] = order[(i + 1) % kChase];
    return n;
  }();
  std::vector<double> a(kDim * kDim, 1.0 / 3.0), b(kDim * kDim, 0.25),
      c(kDim * kDim, 0.0);
  std::vector<std::uint32_t> heap;
  heap.reserve(1 << 16);

  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 24; ++rep) {
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const double aik = a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) c[i * kDim + j] -= aik * b[k * kDim + j];
      }
    }
  }
  std::size_t p = 0;
  for (std::size_t i = 0; i < kChase / 2; ++i) p = next[p];
  std::uint32_t h = 12345;
  for (int i = 0; i < (1 << 16); ++i) {
    h = h * 1664525u + 1013904223u;
    heap.push_back(h);
    std::push_heap(heap.begin(), heap.end());
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
  }
  const double s = lap_since(t0);
  // Keep the results live.
  if (c[0] == 42.0 && p == 1) std::fputs("", stderr);
  return s;
}

// ---- memory --------------------------------------------------------------

namespace {

double status_mib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  double kib = -1;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, n) == 0) {
      kib = std::strtod(line + n, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib < 0 ? -1 : kib / 1024.0;
}

std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  return posix_memalign(&p, a, n == 0 ? 1 : n) == 0 ? p : nullptr;
}

}  // namespace

double rss_mib() { return status_mib("VmRSS:"); }
double peak_rss_mib() { return status_mib("VmHWM:"); }

void count_allocs(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
long alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

// Replacement global allocation functions: malloc/free based, counting
// calls while perfbench::count_allocs(true) is in effect.
void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
