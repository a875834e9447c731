#!/usr/bin/env python3
"""Performance gate: the repository benchmark, parent commit against change.

Usage, with two checkouts of the repository side by side:

    python3 tools/perf_gate.py PARENT_DIR CHANGE_DIR [--json PATH]

Everything the gate needs comes from CHANGE_DIR/BENCHMARK.json: the benchmark
`command`, its `workloads`, `run_seconds`, and the `end_to_end` metrics with
their `better` direction and `bound`. Each checkout runs the command from its
own root, so each builds and measures its own sources.

For every workload the gate runs PAIRS pairs with tracing off. Pair i uses
seed i on both sides; odd pairs run the parent first, even pairs the change
first. Both sides run alternately on the same machine because its speed
drifts between runs (perfbench/NOTES.md "Steadiness"): a baseline measured
elsewhere, or at another time, cannot be compared with these numbers.

The gate fails (exit 1) when
  - a run exits nonzero or reports "correct": false;
  - on a workload, the change's share of failed ops over attempted ops is
    higher than the parent's;
  - the change's median of an end-to-end metric is worse than the parent's
    median by more than the metric's bound.

It prints, per workload and metric, both medians, the relative change and
the parent's quartile spread, (Q3 - Q1) / median. A metric whose spread
exceeds its bound is marked "unresolved": its runs are too noisy to tell a
change of that size from chance, so passing says little about it.

With --json PATH it also writes the record it printed: per workload and
metric, both medians, the relative change, the parent's quartile spread and
every run's value in pair order; per workload, both failed shares; and the
verdict with its failures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5


class RunError(Exception):
    pass


def run_once(root, command, workload, seed, seconds):
    """Runs one benchmark invocation in `root`; returns its JSON result."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        tail = "\n".join(lines[-5:])
        raise RunError(f"{root}: {workload} seed {seed} exited {proc.returncode}\n{tail}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise RunError(f"{root}: {workload} seed {seed} reported correct: false")
    return result


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def failed_share(results):
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def gate_workload(name, sides, spec, metrics):
    """Measures one workload on both sides; returns its failures and record."""
    results = {"parent": [], "change": []}
    for seed in range(1, PAIRS + 1):
        order = ["parent", "change"] if seed % 2 == 1 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], spec["command"], name, seed, spec["run_seconds"])
            results[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"  pair {seed} {side:6s} {values}", flush=True)

    failures = []
    record = {"metrics": {}}
    print(f"{'workload':14s} {'metric':12s} {'parent':>12s} {'change':>12s} "
          f"{'rel':>8s} {'parent IQR':>10s}  bound")
    for m in metrics:
        parent = [r["metrics"][m["name"]]["value"] for r in results["parent"]]
        change = [r["metrics"][m["name"]]["value"] for r in results["change"]]
        p, c = statistics.median(parent), statistics.median(change)
        rel = (c - p) / p
        spread = quartile_spread(parent)
        worse_by = rel if m["better"] == "lower" else -rel
        note = ""
        if worse_by > m["bound"]:
            note = "REGRESSION"
            failures.append(f"{name} {m['name']}: change median {c:.6g} is {worse_by:.1%} "
                            f"worse than parent {p:.6g} (bound {m['bound']:.0%})")
        if spread > m["bound"]:
            note = (note + " unresolved").strip()
        print(f"{name:14s} {m['name']:12s} {p:12.6g} {c:12.6g} {rel:+8.1%} {spread:10.1%}  "
              f"{m['bound']:.0%} {note}".rstrip())
        record["metrics"][m["name"]] = {
            "better": m["better"], "bound": m["bound"],
            "parent_median": p, "change_median": c, "rel_change": rel,
            "parent_iqr": spread, "parent": parent, "change": change,
        }

    parent_failed, change_failed = failed_share(results["parent"]), failed_share(results["change"])
    print(f"{name:14s} {'failed/att':12s} {parent_failed:12.6g} {change_failed:12.6g}")
    if change_failed > parent_failed:
        failures.append(f"{name}: failed share rose from {parent_failed:.6g} to {change_failed:.6g}")
    record["failed_share"] = {"parent": parent_failed, "change": change_failed}
    return failures, record


def main(argv):
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--json", metavar="PATH", help="write the gate's record here")
    args = parser.parse_args(argv[1:])
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = []
    workloads = {}
    for workload in spec["workloads"]:
        print(f"workload {workload['name']}: {PAIRS} pairs of {spec['run_seconds']} s runs",
              flush=True)
        try:
            workload_failures, workloads[workload["name"]] = gate_workload(
                workload["name"], sides, spec, spec["end_to_end"])
            failures += workload_failures
        except RunError as error:
            failures.append(str(error))
            break

    for failure in failures:
        print(f"FAIL: {failure}")
    verdict = "FAIL" if failures else "PASS"
    print("perf gate: " + verdict)
    if args.json:
        record = {"schema": "past-perf-gate-v1", "pairs": PAIRS,
                  "run_seconds": spec["run_seconds"], "cores": os.cpu_count(),
                  "verdict": verdict, "failures": failures, "workloads": workloads}
        with open(args.json, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
