#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload, untraced and traced.

    python3 bench_e2e/smoke_test.py

Runs `run.py --smoke` (tiny streams, 3 reps) for each workload registered in
BENCHMARK.json, with --trace 0 and --trace 1, and checks each result: it is
correct (every CHECK passed, and the traced run's Chrome trace parses),
reports exactly the registered end-to-end or per-layer metrics with their
units, and uses only metric names made of letters, digits, '_', '.' and '-'.
Takes about a minute; the exit code is non-zero on any failure.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                ["python3", os.path.join(BENCH_DIR, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{label}: no result line")
                continue
            if proc.returncode != 0 or not result.get("correct"):
                failures.append(f"{label}: a check failed")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: unexpected keys {sorted(result)}")
            got = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in expected[trace]}
            for name, unit in want.items():
                if got.get(name, {}).get("unit") != unit:
                    failures.append(f"{label}: {name} missing or not in {unit}")
            for name in got:
                if name not in want or not NAME.fullmatch(name):
                    failures.append(f"{label}: unregistered metric {name}")
            print(f"{label}: {len(got)} metrics")
    for failure in failures:
        print("FAILED", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
