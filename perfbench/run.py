#!/usr/bin/env python3
"""Build the wall-clock benchmark from source, then run one workload.

    python3 perfbench/run.py --workload pde2d --seed 1 --seconds 30 --trace 0

Run from the repository root. The library and the perfbench binary build
into .bench_build/ (Release, Ninja); an up-to-date build is a no-op. The
binary's stdout passes through unchanged, so its last line is the result
JSON. With --trace 1 the spans go to .bench_build/traces/<workload>-s<seed>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
# Seeds drive the matrix values, right-hand sides and refactor values; the
# patterns are fixed, so exact counts repeat across seeds. 71 reproduces the
# registry's c-71 circuit.
DEFAULT_SEEDS = {"pde2d": 1, "fill3d": 1, "transient": 71}


def build():
    """Configure (once) and build; returns the binary path or None."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(BUILD, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["pde2d", "fill3d", "transient"])
    p.add_argument("--seed", type=int, help="default: per workload, see DEFAULT_SEEDS")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-s%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
