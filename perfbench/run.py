#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve-glove-k4 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench (and the algas library from src/) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the JSON result
the perfbench binary prints. The exit status is the binary's.

Construction threads are pinned to at most half the usable CPUs, and the
dataset/graph cache is disabled so every set-up is cold.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closed-sift", "serve-glove-k4", "churn-sift")


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir, jobs):
    """Configure (once) and build the perfbench target; output to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(jobs)],
        stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no algas sources at %s; run from a full checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    cpus = usable_cpus()
    threads = max(1, min(2, cpus // 2))
    try:
        build(build_dir, max(1, min(4, cpus)))
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(os.environ)
    env.update({
        "ALGAS_BUILD_THREADS": str(threads),  # pinned: <= half the CPUs
        "ALGAS_CACHE_DIR": "",                # no artifact reuse: cold set-up
        "ALGAS_TRACE": "",
        "ALGAS_SIMCHECK": "0",
    })
    sys.stdout.flush()
    child = subprocess.Popen(cmd, env=env)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
