// Structured span/event recorder — a fixed-capacity ring buffer of
// timeline events with two clock domains:
//
//   kSim  — simulated cluster time (the scheduler's event clock). Tracks
//           are ranks; track -1 is a cluster-global event (e.g. a
//           coordinated checkpoint).
//   kHost — host wall time from Recorder::host_now() (steady clock since
//           the recorder's epoch). Tracks are executor lanes; track -1 is
//           the host runtime itself (batch spans, watchdog actions).
//
// Emission is dropped (not queued) when obs::enabled() is off, so the
// disabled cost at an instrumented call site is one relaxed load — call
// sites that would compute arguments still guard on obs::enabled() first.
// When the ring wraps, the oldest events are overwritten and `dropped()`
// counts them; exports note the loss instead of silently truncating.
//
// Event names/categories are `const char*` by design: call sites pass
// string literals, the recorder stores pointers — no allocation on the
// hot path. Do NOT pass transient buffers.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "support/types.hpp"

namespace th::obs {

enum class Domain : char { kSim, kHost };
enum class EventKind : char { kInstant, kSpan };

/// Host-domain track for the serve layer's session/request spans (admit,
/// symbolic miss, factor, solve): a dedicated lane-independent timeline so
/// request latencies read directly off the trace. The exporter renders it
/// as a "service" thread next to "runtime" and the lanes.
constexpr int kServiceTrack = -2;

/// Host-domain track for the batched multi-RHS solve engine (src/rhs): one
/// span per executed block solve (virtual serve clock, like the service
/// track), so batching width and close cadence read directly off the
/// trace. The exporter renders it as an "rhs engine" thread next to
/// "service".
constexpr int kRhsTrack = -3;

struct Event {
  const char* name = "";
  const char* cat = "";
  Domain domain = Domain::kSim;
  EventKind kind = EventKind::kInstant;
  int track = 0;  // rank (kSim) or lane (kHost); -1 = domain-global
  real_t t0 = 0;  // seconds in the event's clock domain
  real_t t1 = 0;  // spans only
  // Up to two named integer payloads (nullptr name = unused slot).
  const char* arg_name0 = nullptr;
  std::int64_t arg0 = 0;
  const char* arg_name1 = nullptr;
  std::int64_t arg1 = 0;
};

class Recorder {
 public:
  /// The process-wide recorder all instrumentation emits into.
  static Recorder& global();

  explicit Recorder(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Resize the ring (drops buffered events, keeps the epoch).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Drop all events, zero the drop counter and restart the host epoch.
  void clear();

  std::size_t size() const;
  /// Total events accepted since the last clear().
  std::uint64_t recorded() const;
  /// Events lost to ring wrap-around since the last clear().
  std::uint64_t dropped() const;

  /// Seconds of steady host time since construction / the last clear().
  real_t host_now() const;

  /// Record an instant event at time `t`. No-op while obs is disabled.
  void instant(Domain domain, int track, const char* name, const char* cat,
               real_t t, const char* arg_name0 = nullptr, std::int64_t arg0 = 0,
               const char* arg_name1 = nullptr, std::int64_t arg1 = 0);

  /// Record a [t0, t1] span. No-op while obs is disabled.
  void span(Domain domain, int track, const char* name, const char* cat,
            real_t t0, real_t t1, const char* arg_name0 = nullptr,
            std::int64_t arg0 = 0, const char* arg_name1 = nullptr,
            std::int64_t arg1 = 0);

  /// Oldest-first copy of the buffered events.
  std::vector<Event> events() const;

 private:
  void push(const Event& e);

  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t n_ = 0;     // buffered count (<= ring_.size())
  std::uint64_t recorded_ = 0;
  std::atomic<std::int64_t> epoch_ns_{0};  // steady-clock origin
};

}  // namespace th::obs
