#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--smoke]

The first run configures and builds the benchmark package (bench_e2e/
CMakeLists.txt, which compiles the library under src/) into .bench_build/;
later runs only check that the build is current. Build output goes to
stderr. The benchmark's own output goes to stdout, and its last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 1
the run writes a Chrome trace to .bench_build/work/<workload>.trace.json,
and the result counts as correct only if that file parses as JSON.
"""

import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("bench_e2e: the library sources (src/) are missing; run "
                 "from a full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny streams and 3 reps, for a quick check")
    args = parser.parse_args()
    # The name becomes a file name under .bench_build/work; the binary
    # rejects names that are not workloads.
    if not re.fullmatch(r"[a-z_]+", args.workload):
        parser.error(f"not a workload name: {args.workload!r}")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"bench_e2e: build failed: {err}")

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--workdir", WORK_DIR]
    trace_path = os.path.join(WORK_DIR, f"{args.workload}.trace.json")
    if args.trace:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        cmd += ["--trace", trace_path]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        return proc.returncode

    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if args.trace:
        try:
            with open(trace_path, encoding="utf-8") as f:
                events = json.load(f)
            valid = isinstance(events, list) and len(events) > 0
        except (OSError, ValueError):
            valid = False
        print(f"CHECK {'the Chrome trace parses':<66} "
              f"{'OK' if valid else 'FAILED'}")
        if not valid:
            result["correct"] = False
            lines[-1] = json.dumps(result)
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
