#!/usr/bin/env python3
"""Builds perfbench from the sources in this checkout and runs one workload.

    python3 perfbench/run.py --workload stat_read --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
configures and compiles, later runs only check that the binary is current.
Every other argument is handed to the perfbench binary, whose last line of
standard output is the result JSON. With --trace 1 the spans of the traced
window are written to .bench_build/perfbench-spans/<workload>-seed<N>.jsonl.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"program sources not found under {ROOT}/src; run from a full checkout")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace] + extra
    if args.trace == "1":
        spans = os.path.join(build_root, "perfbench-spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        command += ["--spans-out", spans]
    # The program reads MANTLE_* overrides of its cost model and sizes; the
    # benchmark pins both, so none is passed on.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANTLE_")}
    try:
        result = subprocess.run(command, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    return result.returncode if result.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
