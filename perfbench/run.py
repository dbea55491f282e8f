#!/usr/bin/env python3
"""End-to-end benchmark of the VEBO graph system.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds this
directory's CMake package (the library from src/ plus the vebo_e2e
program) in Release mode under $CARGO_TARGET_DIR (default .bench_build);
later calls reuse the build. vebo_e2e then runs one workload:

  serve-read         GraphService read path: 3 clients, small publishes
  serve-write        GraphService write path: refresh-on-publish, 2 clients
  analytics-twitter  Table III at 4 threads: 8 algorithms x 3 system models

BENCHMARK.json bounds the first two. analytics-twitter runs too, but its
4-thread query figures swing with a few percent of CPU steal on a shared
host, so it is not a bounded workload; serve-read's traced run includes it
for the order, framework and parallel layers.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. The report on stderr gives every metric with its unit and
sample count; a traced run also writes a Chrome trace to .bench_out/.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

WORKLOADS = ("analytics-twitter", "serve-read", "serve-write")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(pkg_dir, root):
    """Configures and builds the package; returns the program's path."""
    if not os.path.isdir(os.path.join(root, "src")):
        fail(f"no library sources at {os.path.join(root, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench-release")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", pkg_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j",
                     str(os.cpu_count() or 2)]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "vebo_e2e")


def main():
    ap = argparse.ArgumentParser(description="VEBO end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # A terminated run still stops (and waits for) its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(pkg_dir)
    binary = build(pkg_dir, root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(root, ".bench_out")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    if res.returncode != 0:
        fail(f"{args.workload} exited with code {res.returncode}")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
