#!/usr/bin/env python3
"""Build the deproto benchmark from source and run one workload.

Run from the root of a deproto checkout:

    python3 perfbench/run.py --workload sweep-count --seed 1 --seconds 30 --trace 0

Workloads: sweep-count and sweep-dispatch, the ones BENCHMARK.json lists,
and sync-1m and event-10k, which measure the per-node backends on demand.
--trace 1 runs the separate traced run that reports the per-layer metrics;
--smoke runs a workload at small sizes, as the benchmark's own test does.
The last line of standard output is the JSON result; build output goes to
standard error.

The build tree lives under $CARGO_TARGET_DIR (default .bench_build) in the
checkout: perfbench/ holds the CMake build, perfbench-work/ the result
cache entries and Chrome traces the runs write.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, env):
    """Configure (once) and build the benchmark and the worker binary."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "deproto_perfbench", "deproto_run"])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def commit_id(env):
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    work_dir = os.path.join(root, "perfbench-work")
    tmp_dir = os.path.join(root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # Compilers and the benchmark keep their temporary files in the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "bin", "deproto-perfbench")
    args = [binary] + sys.argv[1:] + ["--work-dir", work_dir,
                                      "--commit", commit_id(env)]
    sys.stdout.flush()
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
