// Shared "key=value,key=value" spec-string codec (`th::spec`).
//
// The fault-injection plan travels as a compact spec string in three
// places: the `thsolve_cli --faults` flag, the chaos harness's repro lines,
// and the serve chaos scenarios. Before this header each place had its own
// parser or renderer with different error behaviour — the CLI exited the
// process on a bad key while other paths silently ignored it. Here both
// directions live together: parse_fault_spec() and render_fault_spec() are
// exact inverses over the spec vocabulary, malformed input throws a typed
// SpecError naming the offending key, and every numeric field is parsed
// strictly (no atof-style silent zeros).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "support/error.hpp"

namespace th::spec {

/// A malformed spec item. `key()` is the offending key (or the raw item
/// when no key could be split off), so callers can point at exactly what
/// to fix instead of rejecting the whole string anonymously.
class SpecError : public Error {
 public:
  SpecError(const std::string& what, std::string key)
      : Error(what), key_(std::move(key)) {}
  const std::string& key() const { return key_; }

 private:
  std::string key_;
};

/// One `key=value` item of a comma-separated spec.
struct SpecItem {
  std::string key;
  std::string value;
};

/// Split "k1=v1,k2=v2" into items. Throws SpecError on an item without
/// '='; empty items (stray commas) are skipped.
std::vector<SpecItem> parse_spec_items(const std::string& spec);

/// Strict scalar parses: the whole token must convert. Throw SpecError
/// (carrying `key`) otherwise.
double spec_real(const std::string& key, const std::string& value);
long long spec_int(const std::string& key, const std::string& value);
std::uint64_t spec_u64(const std::string& key, const std::string& value);

/// Parse a fault-plan spec (the `thsolve_cli --faults` vocabulary:
/// transient=P, kill/cpu/restart=R@T, degrade=A-B@F, nan/inf/tinypivot=ID,
/// bitflip/scale/snan=ID, guards=B, memramp=R@T@F, memfail=P, seed=S,
/// retries=N, backoff=SEC). Unknown keys and malformed values throw
/// SpecError.
FaultPlan parse_fault_spec(const std::string& spec);

/// Render a plan back into the same vocabulary (the repro line chaos
/// failures carry). parse_fault_spec(render_fault_spec(p)) reproduces the
/// plan's injected events; a multi-probability transient plan renders its
/// largest probability (the CLI sets one probability for every class).
std::string render_fault_spec(const FaultPlan& plan);

/// Batched multi-RHS solve configuration as it travels on the wire (the
/// `thsolve_cli --rhs-batch` flag). A plain struct rather than
/// rhs::RhsOptions because support sits below src/rhs — the CLI converts.
struct RhsSpec {
  int width = 16;                     // block-solve width cap (>= 1)
  std::string schedule = "priority";  // "priority" | "levelset"
};

/// Parse "width=N,sched=priority|levelset". Unknown keys, malformed
/// values, width < 1 and unknown schedules throw SpecError.
/// parse_rhs_spec(render_rhs_spec(s)) == s exactly.
RhsSpec parse_rhs_spec(const std::string& spec);
std::string render_rhs_spec(const RhsSpec& s);

}  // namespace th::spec
