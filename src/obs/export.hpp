// Unified Chrome-trace / perfetto export.
//
// Merges the simulated-kernel timeline (sim::Trace, pid 1, one thread per
// rank, one span per kernel) with the obs::Recorder event stream:
// sim-domain spans/instants land on the rank threads of pid 1 (track -1
// becomes a global instant), host-domain events land on pid 2 with one
// thread per executor lane plus a "runtime" thread for batch-level spans
// and watchdog actions. Load the file in chrome://tracing or
// https://ui.perfetto.dev.
#pragma once

#include <ostream>
#include <string>

#include "obs/recorder.hpp"
#include "sim/trace.hpp"

namespace th::obs {

/// `sim` may be null (host-only dump, e.g. from a bench that kept no
/// timeline). Events come from `rec.events()`.
void write_unified_trace(std::ostream& out, const Trace* sim,
                         const Recorder& rec,
                         const std::string& process_name);

/// Throws th::Error if the file cannot be written.
void write_unified_trace_file(const std::string& path, const Trace* sim,
                              const Recorder& rec,
                              const std::string& process_name);

}  // namespace th::obs
