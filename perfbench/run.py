#!/usr/bin/env python3
"""Build the simulator's layered benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace 0|1 [--size tiny] [--inject short-run]

The benchmark binary is built with CMake into `.bench_build/` (or the
directory named by CARGO_TARGET_DIR) on first use; build output goes to
stderr. The binary's standard output is passed through, so the last line is
its JSON result: {"correct", "attempted", "failed", "metrics"}. Any build or
run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take 180 s in all; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure (once) and build the perfbench target; True on success."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     # Never download anything while configuring.
                     "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd[:2])} failed: {err}",
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd[:2])} exited "
                  f"{done.returncode}", file=sys.stderr)
            if cmd[1] == "-S":
                shutil.rmtree(out_dir, ignore_errors=True)
            return False
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["tiny", "full"], default="full")
    parser.add_argument("--inject", choices=["short-run"])
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size,
           "--work-dir", os.path.join(os.path.dirname(out_dir), "work")]
    if args.inject:
        cmd += ["--inject", args.inject]
    # Its own session, so a timeout also stops any fleet worker it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except ValueError as err:
        sys.stderr.write(stdout)
        print(f"perfbench: malformed result line: {err}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
