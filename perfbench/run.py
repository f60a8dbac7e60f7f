#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|campaign|verifier \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
simulator libraries and the benchmark program (Release) under
.bench_build/perfbench; later runs only rebuild what changed. Build
output goes to stderr, so the last line of standard output is the
program's JSON result. Traced runs (--trace 1) also write their spans to
.bench_build/spans-<workload>.json. Exits nonzero without a result when
the simulator sources are missing or the build fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build the benchmark; serialized by a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "campaign", "verifier"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    build()
    tmp = os.path.join(OUT, "tmp")  # keeps trace spill files in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", os.path.join(HERE, "expect")]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, "spans-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd + extra, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
