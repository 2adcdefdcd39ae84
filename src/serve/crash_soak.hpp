// Crash/restart chaos for the durability layer.
//
// The serve chaos harness (serve/chaos.hpp) hammers the service with
// client-shaped misbehavior; this soak kills the *process* (or, in-process,
// throws CrashError) at every journal-append boundary and checks that
// recovery loses nothing:
//
//   1. A scenario seed expands into a deterministic client script (opens,
//      factor/refactor requests with idempotency keys, solves, retires).
//   2. A reference run executes the script uninterrupted and snapshots the
//      final committed factor artifacts per (tenant, pattern).
//   3. For every journal append N the reference performed, the script is
//      re-run into a fresh journal directory with `crash=append@N`
//      injected, the dying run's journal is audited (zero committed work
//      lost: every commit record's artifact set still loads and verifies),
//      a new service recovers from the directory, and the client replays
//      the script from the top. Gates: the torn `*.tmp` residue is
//      ignored, every live session is rehydrated with its committed
//      factors bit-identical, replayed committed requests dedup by
//      idempotency key (exactly — the counts are predicted from the WAL),
//      and the final artifacts are bitwise identical to the reference.
//   4. One corruption drill per scenario flips a bit in a committed tile
//      artifact: recovery must quarantine it, degrade loudly to
//      recompute, and the replayed script must still converge to the
//      reference artifacts — the corrupt bytes are never loaded.
//
// Failures carry a ready-to-paste repro line in the fault-spec vocabulary
// (`seed=S,crash=append@N`). With `kill` set the crashed run executes in a
// fork()ed child that SIGKILLs itself (process-level death, nothing
// unwinds); the default stays in-process via CrashError.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve.hpp"

namespace th::serve {

/// One step of the deterministic client script a crash scenario replays.
/// Scripts are replayed identically before and after the injected crash —
/// the model of a client retrying its request log against a restarted
/// server.
struct CrashOp {
  enum class Kind : char { kOpen, kFactor, kRefactor, kSolve, kRetire };
  Kind kind = Kind::kOpen;
  int session = 0;  // script-local session index
  int tenant = 0;   // kOpen: distinct per session (claims stay 1:1)
  int pattern = 0;  // kOpen: trace pattern index (patterns may be shared)
  std::uint64_t idem_key = 0;    // kFactor/kRefactor: unique per op
  std::uint64_t value_seed = 0;  // kRefactor/kSolve
};

/// Deterministically expand a seed into a client script: 2-3 sessions on
/// 1-2 patterns, an initial factor plus 1-2 refactors each (every one
/// carrying a unique idempotency key) with solves interleaved, and —
/// half the time — a retirement racing the other sessions' commits.
std::vector<CrashOp> synth_crash_script(std::uint64_t seed);

struct CrashSoakOptions {
  std::uint64_t seed = 1;
  int scenarios = 3;
  /// Scratch root; every scenario/kill-point gets its own journal
  /// directory under it. Required.
  std::string dir;
  /// Base service configuration; the soak overwrites `durable` per run.
  /// Host accumulation is always deterministic, so factors are bitwise
  /// comparable across runs.
  ServeOptions serve;
  /// Crash by fork() + SIGKILL (process-level death) instead of the
  /// in-process CrashError. POSIX only.
  bool kill = false;
};

struct CrashSoakFailure {
  std::uint64_t scenario_seed = 0;
  std::string repro;  // "seed=S,crash=append@N" / "seed=S,flip=tile"
  std::string what;
};

struct CrashSoakReport {
  int scenarios_run = 0;
  /// Crash/restart cycles exercised (every append boundary of every
  /// scenario, plus one corruption drill per scenario).
  int kill_points = 0;
  int passed = 0;
  std::vector<CrashSoakFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

CrashSoakReport run_crash_soak(const CrashSoakOptions& opt);

}  // namespace th::serve
