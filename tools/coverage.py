#!/usr/bin/env python3
"""Line coverage of the library sources from a `--coverage` build.

Usage (after running the tests of a build configured with
`-DCMAKE_CXX_FLAGS="--coverage -O0"`):

    python3 tools/coverage.py --build-dir <dir> [--floor <percent>]

Runs `gcov --json-format --stdout` over every `.gcda` file under the build
directory and sums the line counts of each source line across translation
units: an inline function defined in a header is compiled into every unit
that includes it, and a line counts as covered when any unit executed it.
Counting the library's own units alone would report such lines as missed.

Prints the covered share of `src/` lines per module and in total, then the
files that miss the most lines. With `--floor`, exits 1 when the total is
below the floor. Uses only the Python standard library and gcov.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

BATCH = 64  # .gcda files per gcov process
PREFIX = "src/"  # count only sources under this path
TOP = 10  # list this many files with the most missed lines
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcda_files(build_dir):
    found = []
    for root, _, files in os.walk(build_dir):
        found += [os.path.join(root, f) for f in files if f.endswith(".gcda")]
    return sorted(found)


def line_counts(gcov, gcdas, source_root):
    """{source path relative to source_root: {line: summed count}}."""
    counts = defaultdict(lambda: defaultdict(int))
    for i in range(0, len(gcdas), BATCH):
        batch = gcdas[i:i + BATCH]
        done = subprocess.run([gcov, "--json-format", "--stdout"] + batch,
                              capture_output=True, text=True, check=False,
                              cwd=os.path.dirname(batch[0]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"coverage: gcov exited {done.returncode}")
        for doc in done.stdout.splitlines():
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = report.get("current_working_directory", "")
            for entry in report.get("files", []):
                path = os.path.normpath(os.path.join(cwd, entry["file"]))
                rel = os.path.relpath(path, source_root)
                per_line = counts[rel]
                for line in entry.get("lines", []):
                    per_line[line["line_number"]] += line["count"]
    return counts


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--floor", type=float,
                        help="fail below this percentage of covered lines")
    parser.add_argument("--gcov", default="gcov")
    args = parser.parse_args(argv)

    gcdas = gcda_files(os.path.abspath(args.build_dir))
    if not gcdas:
        print(f"coverage: no .gcda files under {args.build_dir}; run the "
              "tests of a --coverage build first", file=sys.stderr)
        return 1
    counts = line_counts(args.gcov, gcdas, REPO_ROOT)

    modules = defaultdict(lambda: [0, 0])  # module -> [covered, lines]
    missed = []
    for path, per_line in counts.items():
        if not path.startswith(PREFIX):
            continue
        covered = sum(1 for c in per_line.values() if c > 0)
        parts = path[len(PREFIX):].split(os.sep)
        module = parts[0] if len(parts) > 1 else "."
        modules[module][0] += covered
        modules[module][1] += len(per_line)
        missed.append((len(per_line) - covered, path))
    total_covered = sum(m[0] for m in modules.values())
    total_lines = sum(m[1] for m in modules.values())
    if total_lines == 0:
        print(f"coverage: no instrumented lines under {PREFIX}",
              file=sys.stderr)
        return 1

    for module in sorted(modules):
        covered, lines = modules[module]
        print(f"{module:<8} {covered:>6}/{lines:<6} "
              f"{100.0 * covered / lines:5.1f}%")
    percent = 100.0 * total_covered / total_lines
    print(f"{'total':<8} {total_covered:>6}/{total_lines:<6} {percent:5.1f}%")
    print("most missed lines:")
    for count, path in sorted(missed, reverse=True)[:TOP]:
        if count > 0:
            print(f"  {count:>5}  {path}")

    if args.floor is not None and percent < args.floor:
        print(f"coverage: {percent:.2f}% of {PREFIX} lines is below the "
              f"floor of {args.floor:.1f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
