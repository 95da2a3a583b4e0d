#!/usr/bin/env python3
"""Self-test of the layered benchmark: a tiny pass over every workload.

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that a tiny untraced run
emits exactly the end-to-end metrics, and a tiny traced run exactly the
per-layer metrics, each finite and with its declared unit, with no failed
operation. It then injects a run one frame short into every workload and
checks that the correctness gate counts it as failed. Exits non-zero on the
first broken expectation.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, inject=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if inject:
        cmd += ["--inject", "short-run"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[2:])} exited {done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def check_metrics(label, result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        raise AssertionError(f"{label}: metrics {sorted(got)} != "
                             f"declared {sorted(want)}")
    for name, metric in got.items():
        if metric["unit"] != want[name]:
            raise AssertionError(f"{label}: {name} unit {metric['unit']} != "
                                 f"{want[name]}")
        if not math.isfinite(metric["value"]):
            raise AssertionError(f"{label}: {name} is not finite")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    checks = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{label}: {result['failed']} of "
                                     f"{result['attempted']} operations failed")
            if result["attempted"] < 1:
                raise AssertionError(f"{label}: nothing attempted")
            check_metrics(label, result, declared)
            checks += 1
        injected = run(workload, 0, inject=True)
        if injected["correct"] or injected["failed"] < 1:
            raise AssertionError(f"{workload}: an injected short run did not "
                                 f"show up as a failed operation")
        checks += 1
        print(f"ok {workload}: metrics, units and the short-run gate")
    print(f"selftest passed ({checks} checks)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"selftest FAILED: {err}", file=sys.stderr)
        sys.exit(1)
