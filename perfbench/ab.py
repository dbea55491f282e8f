#!/usr/bin/env python3
"""Steadiness A/B check: do two sets of runs of one build agree?

    python3 perfbench/ab.py

Run from the repository root. Reads BENCHMARK.json for the command, the
workloads, run_seconds and each end-to-end metric's bound. For every
workload it makes five runs per set, alternating which set goes first,
with a distinct --seed for every run (set A takes seeds 1, 3, ..., 9,
set B seeds 2, 4, ..., 10). It then prints, per (workload, metric), each
set's median and quartiles (statistics.quantiles, n=4) with the spread
(Q3 - Q1) / median, the same over both sets' runs together, and whether
the two medians agree within the metric's bound.
A run that prints no result, or reports correct=false, is an error.
Exit status: 0 when every pair of medians agrees, 1 otherwise.
"""

import json
import statistics
import subprocess
import sys

# Both sets together give the ten seeds of a steadiness check.
RUNS_PER_SET = 5


def run_once(command, workload, seed, seconds):
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"ab: {workload} seed {seed} failed (exit {res.returncode})")
    out = json.loads(lines[-1])
    if not out["correct"]:
        sys.exit(f"ab: {workload} seed {seed} reported incorrect answers")
    return {k: v["value"] for k, v in out["metrics"].items()}


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS_PER_SET):
        for w in workloads:
            for s in (("A", "B") if i % 2 == 0 else ("B", "A")):
                seed = 1 + 2 * i + (0 if s == "A" else 1)
                raw[w][s].append(
                    run_once(bench["command"], w, seed, seconds))
                print(f"ab: {w} set {s} seed {seed} done", file=sys.stderr)

    agree = True
    print(f"{'workload':<18} {'metric':<15} {'set':<3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7}  bound  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in ("A", "B", "all"):
                runs = raw[w]["A"] + raw[w]["B"] if s == "all" else raw[w][s]
                q1, q2, q3, spread = stats([r[name] for r in runs])
                med[s] = q2
                print(f"{w:<18} {name:<15} {s:<3} {q2:>12.5g} {q1:>12.5g} "
                      f"{q3:>12.5g} {spread:>7.1%}")
            diff = abs(med["B"] - med["A"]) / med["A"] if med["A"] else 0.0
            ok = diff <= bound
            agree &= ok
            print(f"{'':<18} {'':<15} {'':<3} medians differ {diff:.1%}"
                  f" {'':>20} {bound:<6.0%} {'agree' if ok else 'DISAGREE'}")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
