#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, workload by workload.

    python3 bench_e2e/compare_runs.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named <workload>-<anything>, whose
last non-empty line is the result object bench_e2e prints (save the stdout
of `python3 bench_e2e/run.py ...`). For every workload and metric the report
gives each side's median and quartiles and a verdict:

  worse       the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json
  better      the change's median is better by more than the bound
  unresolved  either side's interquartile spread exceeds the bound, so the
              two medians cannot be told apart at that bound
  ok          within the bound

Metrics named sim_* or ee_* are simulated outcomes: a pure function of the
seed and the code. Where both directories hold a run of the same file name
(same workload and seed), their values must match exactly, or the metric is
reported as "differs". Metrics without a bound (the per-layer metrics of
traced runs) get medians only. The exit code is 1 if any run is incorrect
or any metric is worse, unresolved, or differs.
"""

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def is_deterministic(name):
    return name.startswith("sim_") or name.startswith("ee_")


def load_runs(directory, workloads):
    """{workload: {file name: result}} for every result file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        workload = next((w for w in workloads if name.startswith(w + "-")),
                        None)
        if workload is None:
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"{directory}/{name}: last line is not a result object")
        runs.setdefault(workload, {})[name] = result
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(metric, parent, change):
    bound = metric.get("bound")
    if bound is None:
        return ""
    pm, pq1, pq3 = parent
    cm, cq1, cq3 = change
    if spread(pm, pq1, pq3) > bound or spread(cm, cq1, cq3) > bound:
        return "unresolved"
    worse = (cm - pm) / abs(pm)
    if metric["better"] == "higher":
        worse = -worse
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(BENCHMARK, encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent_runs = load_runs(sys.argv[1], workloads)
    change_runs = load_runs(sys.argv[2], workloads)

    failed = False
    row = "{:<13} {:<34} {:>34} {:>34} {:>8}  {}"
    print(row.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "delta", "verdict"))
    for workload in workloads:
        parent = parent_runs.get(workload, {})
        change = change_runs.get(workload, {})
        if not parent or not change:
            print(f"{workload}: no runs on "
                  f"{'the parent side' if not parent else 'the change side'}")
            failed = True
            continue
        for side, runs in (("parent", parent), ("change", change)):
            bad = [n for n, r in runs.items() if not r.get("correct")]
            if bad:
                print(f"{workload}: incorrect {side} runs: {', '.join(bad)}")
                failed = True
        names = [n for n in metrics
                 if all(n in r["metrics"] for r in parent.values())
                 and all(n in r["metrics"] for r in change.values())]
        for name in names:
            p = summary([r["metrics"][name]["value"] for r in parent.values()])
            c = summary([r["metrics"][name]["value"] for r in change.values()])
            v = verdict(metrics[name], p, c)
            if is_deterministic(name):
                for run in parent.keys() & change.keys():
                    if (parent[run]["metrics"][name]["value"]
                            != change[run]["metrics"][name]["value"]):
                        v = "differs"
            failed = failed or v in ("worse", "unresolved", "differs")
            delta = (c[0] - p[0]) / abs(p[0]) if p[0] else float("nan")
            print(row.format(
                workload, f"{name} ({metrics[name]['unit']})",
                f"{p[0]:.5g} [{p[1]:.5g}, {p[2]:.5g}]",
                f"{c[0]:.5g} [{c[1]:.5g}, {c[2]:.5g}]",
                f"{delta:+.2%}", v))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
