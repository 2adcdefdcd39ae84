#include "support/rss.hpp"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <string>

namespace th {

PeakRss peak_rss() {
  PeakRss r;
  // Linux: VmHWM from /proc/self/status is the authoritative high-water
  // mark. A missing file (non-Linux, restricted /proc), a missing line or
  // a value that does not parse to a positive KiB count all fall through
  // to getrusage instead of masquerading as a measured zero.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (status.good() && std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    char* end = nullptr;
    const long long kib = std::strtoll(line.c_str() + 6, &end, 10);
    if (end != line.c_str() + 6 && kib > 0) {
      r.bytes = static_cast<offset_t>(kib) * 1024;
      r.source = "VmHWM";
      return r;
    }
    break;  // malformed VmHWM line: try the fallback
  }
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    r.bytes = static_cast<offset_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
    r.source = "getrusage";
    return r;
  }
  return r;  // no usable source; available() == false
}

}  // namespace th
