#include "support/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace th::spec {

namespace {

/// The spec key of each numeric-fault kind (the parser/renderer's own
/// vocabulary — kept here so the two directions cannot drift apart).
const char* fault_kind_key(NumericFaultKind k) {
  switch (k) {
    case NumericFaultKind::kNaN: return "nan";
    case NumericFaultKind::kInf: return "inf";
    case NumericFaultKind::kTinyPivot: return "tinypivot";
    case NumericFaultKind::kBitFlip: return "bitflip";
    case NumericFaultKind::kScaledEntry: return "scale";
    case NumericFaultKind::kSilentNaN: return "snan";
  }
  return "?";
}

[[noreturn]] void bad(const std::string& key, const std::string& what) {
  throw SpecError("spec key '" + key + "': " + what, key);
}

/// Split `value` at `sep` into exactly `parts` fields.
std::vector<std::string> split_value(const std::string& key,
                                     const std::string& value, char sep,
                                     std::size_t parts,
                                     const std::string& shape) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t at = value.find(sep, pos);
    out.push_back(value.substr(
        pos, at == std::string::npos ? std::string::npos : at - pos));
    if (at == std::string::npos) break;
    pos = at + 1;
  }
  if (out.size() != parts) bad(key, "wants the form " + shape);
  return out;
}

}  // namespace

std::vector<SpecItem> parse_spec_items(const std::string& spec) {
  std::vector<SpecItem> items;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;  // tolerate stray commas
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw SpecError("bad spec item (want key=value): '" + item + "'", item);
    }
    items.push_back({item.substr(0, eq), item.substr(eq + 1)});
  }
  return items;
}

double spec_real(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    bad(key, "wants a real number, got '" + value + "'");
  }
  return v;
}

long long spec_int(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    bad(key, "wants an integer, got '" + value + "'");
  }
  return v;
}

std::uint64_t spec_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      (!value.empty() && value[0] == '-')) {
    bad(key, "wants an unsigned integer, got '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

FaultPlan parse_fault_spec(const std::string& spec) {
  FaultPlan plan;
  for (const SpecItem& it : parse_spec_items(spec)) {
    const std::string& key = it.key;
    const std::string& val = it.value;
    if (key == "transient") {
      plan.set_transient_all(static_cast<real_t>(spec_real(key, val)));
    } else if (key == "kill" || key == "cpu" || key == "restart") {
      const auto f = split_value(key, val, '@', 2, "R@T");
      RankFailure rf;
      rf.rank = static_cast<int>(spec_int(key, f[0]));
      rf.time_s = static_cast<real_t>(spec_real(key, f[1]));
      rf.recovery = key == "kill"  ? RankRecovery::kMigrate
                    : key == "cpu" ? RankRecovery::kCpuFallback
                                   : RankRecovery::kRestartFromCheckpoint;
      plan.rank_failures.push_back(rf);
    } else if (key == "degrade") {
      const auto a = split_value(key, val, '@', 2, "A-B@F");
      const auto n = split_value(key, a[0], '-', 2, "A-B@F");
      LinkDegrade d;
      d.node_a = static_cast<int>(spec_int(key, n[0]));
      d.node_b = static_cast<int>(spec_int(key, n[1]));
      d.bw_factor = static_cast<real_t>(spec_real(key, a[1]));
      plan.link_degrades.push_back(d);
    } else if (key == "nan" || key == "inf" || key == "tinypivot") {
      NumericFault f;
      f.task_id = static_cast<index_t>(spec_int(key, val));
      f.kind = key == "nan"   ? NumericFaultKind::kNaN
               : key == "inf" ? NumericFaultKind::kInf
                              : NumericFaultKind::kTinyPivot;
      plan.numeric_faults.push_back(f);
      plan.numeric_guards = true;  // corruption without guards is pointless
    } else if (key == "bitflip" || key == "scale" || key == "snan") {
      // Silent kinds: invisible to the guards by design, so they do NOT
      // flip numeric_guards on — only ABFT can catch them.
      NumericFault f;
      f.task_id = static_cast<index_t>(spec_int(key, val));
      f.kind = key == "bitflip" ? NumericFaultKind::kBitFlip
               : key == "scale" ? NumericFaultKind::kScaledEntry
                                : NumericFaultKind::kSilentNaN;
      plan.numeric_faults.push_back(f);
    } else if (key == "memramp") {
      const auto f = split_value(key, val, '@', 3, "R@T@F");
      MemPressure p;
      p.rank = static_cast<int>(spec_int(key, f[0]));
      p.time_s = static_cast<real_t>(spec_real(key, f[1]));
      p.capacity_factor = static_cast<real_t>(spec_real(key, f[2]));
      plan.mem_pressure.push_back(p);
    } else if (key == "memfail") {
      plan.mem_alloc_fail_prob = static_cast<real_t>(spec_real(key, val));
    } else if (key == "crash") {
      // Durability crash point: kill the serving process right before the
      // N-th journal append of EVENT (open|commit|retire|append).
      const auto f = split_value(key, val, '@', 2, "EVENT@N");
      DurabilityCrash c;
      c.event = f[0];
      if (!valid_crash_event(c.event)) {
        bad(key, "wants open|commit|retire|append, got '" + f[0] + "'");
      }
      c.after = static_cast<offset_t>(spec_int(key, f[1]));
      if (c.after < 1) bad(key, "wants a count >= 1, got '" + f[1] + "'");
      plan.crashes.push_back(c);
    } else if (key == "guards") {
      plan.numeric_guards = spec_int(key, val) != 0;
    } else if (key == "seed") {
      plan.seed = spec_u64(key, val);
    } else if (key == "retries") {
      plan.max_retries = static_cast<int>(spec_int(key, val));
    } else if (key == "backoff") {
      plan.backoff_base_s = static_cast<real_t>(spec_real(key, val));
    } else {
      throw SpecError("unknown spec key: '" + key + "'", key);
    }
  }
  return plan;
}

std::string render_fault_spec(const FaultPlan& plan) {
  std::ostringstream os;
  os << "seed=" << plan.seed << ",retries=" << plan.max_retries;
  if (plan.has_transient()) {
    // The spec sets one probability for every kernel class; emit the
    // largest so the repro is at least as hostile as the plan.
    real_t p = 0;
    for (real_t q : plan.transient_prob) p = std::max(p, q);
    os << ",transient=" << p;
  }
  for (const RankFailure& f : plan.rank_failures) {
    const char* key = f.recovery == RankRecovery::kMigrate ? "kill"
                      : f.recovery == RankRecovery::kCpuFallback
                          ? "cpu"
                          : "restart";
    os << "," << key << "=" << f.rank << "@" << f.time_s;
  }
  for (const LinkDegrade& d : plan.link_degrades) {
    os << ",degrade=" << d.node_a << "-" << d.node_b << "@" << d.bw_factor;
  }
  for (const NumericFault& nf : plan.numeric_faults) {
    os << "," << fault_kind_key(nf.kind) << "=" << nf.task_id;
  }
  for (const MemPressure& mp : plan.mem_pressure) {
    os << ",memramp=" << mp.rank << "@" << mp.time_s << "@"
       << mp.capacity_factor;
  }
  if (plan.mem_alloc_fail_prob > 0) {
    os << ",memfail=" << plan.mem_alloc_fail_prob;
  }
  for (const DurabilityCrash& c : plan.crashes) {
    os << ",crash=" << c.event << "@" << c.after;
  }
  if (plan.numeric_guards) os << ",guards=1";
  return os.str();
}

RhsSpec parse_rhs_spec(const std::string& spec) {
  RhsSpec s;
  for (const SpecItem& it : parse_spec_items(spec)) {
    const std::string& key = it.key;
    const std::string& val = it.value;
    if (key == "width") {
      s.width = static_cast<int>(spec_int(key, val));
      if (s.width < 1) bad(key, "wants a width >= 1, got '" + val + "'");
    } else if (key == "sched") {
      if (val != "priority" && val != "levelset") {
        bad(key, "wants priority|levelset, got '" + val + "'");
      }
      s.schedule = val;
    } else {
      throw SpecError("unknown spec key: '" + key + "'", key);
    }
  }
  return s;
}

std::string render_rhs_spec(const RhsSpec& s) {
  std::ostringstream os;
  os << "width=" << s.width << ",sched=" << s.schedule;
  return os.str();
}

}  // namespace th::spec
