// Process peak resident-set size, for the reports that put host memory
// next to their timings (the CLI's `tiles:` line, every bench's exit
// line).
#pragma once

#include "support/types.hpp"

namespace th {

/// Process peak resident-set size with its provenance. When no source is
/// usable the caller can say *why* instead of printing a bare zero.
struct PeakRss {
  offset_t bytes = 0;
  /// Which source produced the number: "VmHWM" (/proc/self/status) or
  /// "getrusage". nullptr = no source available; `bytes` is meaningless.
  const char* source = nullptr;

  bool available() const { return source != nullptr; }
  double mib() const { return static_cast<double>(bytes) / (1024.0 * 1024.0); }
};

/// VmHWM from /proc/self/status where it exists (Linux), falling back to
/// getrusage's ru_maxrss; an unparseable or implausible (zero) value from
/// one source falls through to the next instead of being reported as 0.
PeakRss peak_rss();

}  // namespace th
