#include "obs/export.hpp"

#include <algorithm>
#include <fstream>

#include "support/error.hpp"

namespace th::obs {
namespace {

constexpr int kSimPid = 1;   // simulated cluster (ranks)
constexpr int kHostPid = 2;  // host runtime (lanes)

/// tid layout inside kHostPid: 0 = runtime (track -1), lane L = L + 1,
/// and the serve layer's session track (kServiceTrack) pinned high so it
/// renders below the lanes instead of renumbering them.
constexpr int kServiceTid = 1000;
constexpr int kRhsTid = 1001;
int host_tid(int track) {
  if (track == kServiceTrack) return kServiceTid;
  if (track == kRhsTrack) return kRhsTid;
  return track < 0 ? 0 : track + 1;
}

void emit_args(std::ostream& out, const Event& e) {
  out << ",\"args\":{";
  bool first = true;
  if (e.arg_name0 != nullptr) {
    out << "\"" << e.arg_name0 << "\":" << e.arg0;
    first = false;
  }
  if (e.arg_name1 != nullptr) {
    out << (first ? "" : ",") << "\"" << e.arg_name1 << "\":" << e.arg1;
  }
  out << "}";
}

void emit_event(std::ostream& out, const Event& e) {
  const bool sim = e.domain == Domain::kSim;
  const int pid = sim ? kSimPid : kHostPid;
  const int tid = sim ? std::max(e.track, 0) : host_tid(e.track);
  const double ts_us = e.t0 * 1e6;
  out << ",\n"
      << R"({"name":")" << e.name << R"(","cat":")" << e.cat << "\",";
  if (e.kind == EventKind::kSpan) {
    const double dur_us = std::max(0.0, (e.t1 - e.t0) * 1e6);
    out << R"("ph":"X","pid":)" << pid << ",\"tid\":" << tid
        << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us;
  } else {
    // Scope: thread-local pin, or process-wide when the track is -1 in the
    // sim domain (a cluster-global event such as a coordinated checkpoint).
    const char* scope = sim && e.track < 0 ? "p" : "t";
    out << R"("ph":"i","pid":)" << pid << ",\"tid\":" << tid
        << ",\"ts\":" << ts_us << R"(,"s":")" << scope << "\"";
  }
  emit_args(out, e);
  out << "}";
}

void emit_thread_name(std::ostream& out, int pid, int tid,
                      const std::string& name) {
  out << ",\n"
      << R"({"name":"thread_name","ph":"M","pid":)" << pid
      << ",\"tid\":" << tid << R"(,"args":{"name":")" << name << "\"}}";
}

}  // namespace

void write_unified_trace(std::ostream& out, const Trace* sim,
                         const Recorder& rec,
                         const std::string& process_name) {
  const std::vector<Event> events = rec.events();

  // Track inventories drive the thread metadata.
  int max_rank = -1;
  int max_lane = -1;
  bool host_runtime = false;
  if (sim != nullptr) {
    for (const KernelRecord& r : sim->records()) {
      max_rank = std::max(max_rank, r.rank);
    }
  }
  bool service = false;
  bool rhs = false;
  for (const Event& e : events) {
    if (e.domain == Domain::kSim) {
      max_rank = std::max(max_rank, e.track);
    } else if (e.track == kServiceTrack) {
      service = true;
    } else if (e.track == kRhsTrack) {
      rhs = true;
    } else if (e.track < 0) {
      host_runtime = true;
    } else {
      max_lane = std::max(max_lane, e.track);
    }
  }

  out << "{\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":)" << kSimPid
      << R"(,"args":{"name":")" << process_name << " (simulated cluster)"
      << "\"}}";
  out << ",\n"
      << R"({"name":"process_name","ph":"M","pid":)" << kHostPid
      << R"(,"args":{"name":")" << process_name << " (host runtime)"
      << "\"}}";
  for (int rank = 0; rank <= max_rank; ++rank) {
    emit_thread_name(out, kSimPid, rank, "rank " + std::to_string(rank));
  }
  if (host_runtime) emit_thread_name(out, kHostPid, 0, "runtime");
  if (service) emit_thread_name(out, kHostPid, kServiceTid, "service");
  if (rhs) emit_thread_name(out, kHostPid, kRhsTid, "rhs block solves");
  for (int lane = 0; lane <= max_lane; ++lane) {
    emit_thread_name(out, kHostPid, host_tid(lane),
                     "lane " + std::to_string(lane));
  }

  out.precision(6);
  // Simulated kernel timeline: one span per kernel (batch size, GFLOPS)
  // plus its host launch/preparation share as a nested span.
  if (sim != nullptr) {
    for (const KernelRecord& r : sim->records()) {
      const double start_us = r.start_s * 1e6;
      const double dur_us = (r.end_s - r.start_s) * 1e6;
      const double host_us = r.host_s * 1e6;
      const double dur_s = r.end_s - r.start_s;
      const double gflops =
          dur_s > 0 ? static_cast<double>(r.flops) / dur_s / 1e9 : 0;
      out << ",\n"
          << R"({"name":"batch of )" << r.tasks
          << R"( tasks","cat":"kernel","ph":"X","pid":)" << kSimPid
          << ",\"tid\":" << r.rank << ",\"ts\":" << start_us
          << ",\"dur\":" << dur_us << R"(,"args":{"tasks":)" << r.tasks
          << ",\"gflops\":" << gflops << "}}";
      if (host_us > 0) {
        out << ",\n"
            << R"({"name":"host launch+prep","cat":"kernel","ph":"X","pid":)"
            << kSimPid << ",\"tid\":" << r.rank << ",\"ts\":" << start_us
            << ",\"dur\":" << host_us << ",\"args\":{}}";
      }
    }
  }

  for (const Event& e : events) emit_event(out, e);

  if (rec.dropped() > 0) {
    // The ring wrapped: flag the loss on the timeline instead of
    // pretending the export is complete.
    Event lost;
    lost.name = "events dropped (ring wrap)";
    lost.cat = "obs";
    lost.domain = Domain::kHost;
    lost.track = -1;
    lost.arg_name0 = "dropped";
    lost.arg0 = static_cast<std::int64_t>(rec.dropped());
    emit_event(out, lost);
  }

  out << "\n]}\n";
}

void write_unified_trace_file(const std::string& path, const Trace* sim,
                              const Recorder& rec,
                              const std::string& process_name) {
  std::ofstream out(path);
  TH_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_unified_trace(out, sim, rec, process_name);
  TH_CHECK_MSG(out.good(), "write to " << path << " failed");
}

}  // namespace th::obs
