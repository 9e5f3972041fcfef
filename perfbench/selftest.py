#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. On a namespace shrunk 20x and 1 s windows it
runs every workload once untraced and once traced, and checks that each run
is correct and emits every metric BENCHMARK.json names, with its unit and
nothing else. Then it reruns each workload with one deliberately wrong
expected answer and checks that the run is reported incorrect and exits
non-zero. Takes about two minutes after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--scale", "0.05", "--warmup", "0.2"]


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", trace, *SMALL, *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            proc, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: run failed (exit {proc.returncode})\n"
                                f"{proc.stderr[-1500:]}")
                continue
            found = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                found.append(f"result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] != 0:
                found.append(f"attempted {result['attempted']}, failed {result['failed']}")
            want = expected[trace]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                wrong = sorted(n for n in got if n in want and got[n] != want[n])
                found.append(f"missing {sorted(set(want) - set(got))}, "
                             f"unexpected {sorted(set(got) - set(want))}, wrong unit {wrong}")
            problems += [f"{where}: {problem}" for problem in found]
            if not found:
                print(f"ok   {where}: {len(got)} metrics", flush=True)
        proc, result = run(workload, "0", ["--corrupt", "1"])
        if proc.returncode == 0 or result is None or result["correct"]:
            problems.append(f"{workload}: a wrong expected answer was not caught")
        else:
            print(f"ok   {workload}: wrong answer caught", flush=True)
    for problem in problems:
        print(f"FAIL {problem}", flush=True)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
