#!/usr/bin/env python3
"""Summarize a set of parent-versus-change benchmark passes.

    scripts/bench-pairs-summary.py BENCHMARK_JSON OUT WORKLOADS \\
        [--trace T] [--pairs N] [--seed S] [--parent-commit C] [--change-commit C]

Reads the result objects `scripts/bench-pairs.sh` leaves in OUT
(`<workload>.t<T>.<parent|change>.<k>.json`, the benchmark's last output
line, beside the pass's `.log`) and prints, per workload in WORKLOADS (one
or a comma-separated list), every metric's median [q1 .. q3] per side, the
relative move of the median, the pairs the change won and lost, and a
verdict. The last lines printed are one JSON record per workload for the
BENCH_native.json / BENCH_service.json trajectory. Run it on a saved OUT
directory to summarize again without re-running anything.

A pass whose result says `"correct": false` failed one of the benchmark's
own correctness gates: its numbers measure a broken run. It is named in
the output (with the log's first `INCORRECT` line) and left out: its pair
counts towards no median, quartile or won/lost count. A workload with any
incorrect change-side pass gets no `gain` verdict on any metric, and the
trajectory record carries `incorrect: {parent, change}`.

A gain may be claimed when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's own quartile
distance; under MIN_PAIRS complete pairs the verdict is `too few pairs`.
`--pairs` defaults to the highest pair number found in OUT, `--seed` (the
first pair's seed, for naming passes) to 1.
"""
import argparse
import glob
import json
import os
import re
from statistics import median, quantiles

# Fewer pairs than this support no verdict either way: on a 2-vCPU host,
# 3-pair sets against one parent have read a per-layer metric +13 % and
# then -12 % with no change to the path it measures.
MIN_PAIRS = 5
SIDES = ("parent", "change")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def first_incorrect_line(log):
    try:
        with open(log, errors="replace") as f:
            for line in f:
                if "INCORRECT" in line:
                    return line.strip()
    except OSError:
        pass
    return "no INCORRECT line in the log"


def summarize(workload, spec, args):
    """Print one workload's comparison; return its trajectory record."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    stem = f"{args.out}/{workload}.t{args.trace}"
    pairs = args.pairs
    if pairs is None:
        found = [int(m.group(1)) for p in glob.glob(f"{stem}.*.json")
                 if (m := re.search(r"\.(\d+)\.json$", p))]
        pairs = max(found, default=0)

    runs = [{label: load(f"{stem}.{label}.{k}.json") for label in SIDES}
            for k in range(1, pairs + 1)]
    incorrect = {label: 0 for label in SIDES}
    for k, run in enumerate(runs, start=1):
        for label in SIDES:
            r = run[label]
            if r is not None and not r["correct"]:
                incorrect[label] += 1
                print(f"{workload}: {label} pair {k} (seed {args.seed + k - 1}) failed a "
                      f"correctness gate and is left out: "
                      f"{first_incorrect_line(f'{stem}.{label}.{k}.log')}")
    complete = [(run["parent"], run["change"]) for run in runs
                if all(run[label] is not None and run[label]["correct"] for label in SIDES)]
    print(f"{workload}: {len(complete)} of {pairs} pairs complete and correct, trace {args.trace}")
    failed, attempted = {}, {}
    for i, label in enumerate(SIDES):
        side = [run[label] for run in runs if run[label] is not None]
        failed[label] = sum(r["failed"] for r in side)
        attempted[label] = sum(r["attempted"] for r in side)
        print(f"  {label}: failed {failed[label]} of {attempted[label]} attempted; "
              f"{incorrect[label]} passes failed a correctness gate")

    names = sorted({n for p, c in complete for n in p["metrics"] if n in c["metrics"]})
    quarts = {}
    for name in names:
        # A per-layer metric may be missing from a pass; keep the pairs
        # that have it on both sides.
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in complete if name in p["metrics"] and name in c["metrics"]]
        ps, cs = [p for p, _ in both], [c for _, c in both]
        sign = -1 if better.get(name) == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in both)
        losses = sum(sign * (c - p) < 0 for p, c in both)
        (pq1, pq3), (cq1, cq3) = quartiles(ps), quartiles(cs)
        pm, cm = median(ps), median(cs)
        if name in end_to_end:
            quarts[name] = {"parent": [pq1, pm, pq3], "change": [cq1, cm, cq3]}
        move = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        apart = abs(cm - pm) > (pq3 - pq1)
        if len(ps) < MIN_PAIRS:
            verdict = "too few pairs"
        elif wins * 10 >= 9 * len(ps) and apart:
            verdict = ("no claim (a change pass failed a correctness gate)"
                       if incorrect["change"] else "gain")
        elif losses * 10 >= 9 * len(ps) and apart:
            verdict = "loss"
        else:
            verdict = "no claim"
        print(f"  {name} ({better.get(name, '?')} is better)")
        print(f"    parent {pm:.6g} [{pq1:.6g} .. {pq3:.6g}]  runs {' '.join(f'{x:.6g}' for x in ps)}")
        print(f"    change {cm:.6g} [{cq1:.6g} .. {cq3:.6g}]  runs {' '.join(f'{x:.6g}' for x in cs)}")
        print(f"    median {move}; change won {wins}, lost {losses} of {len(ps)}; "
              f"medians {'more' if apart else 'less'} than the parent's quartile distance apart: {verdict}")
    return {
        "commit": args.change_commit, "parent": args.parent_commit, "nproc": os.cpu_count(),
        "workload": workload, "pairs": len(complete),
        **{name: quarts.get(name) for name in end_to_end},
        "failed": failed, "attempted": attempted, "incorrect": incorrect,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spec", help="BENCHMARK.json")
    ap.add_argument("out", help="directory holding the passes' result objects")
    ap.add_argument("workloads", help="one workload or a comma-separated list")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--pairs", type=int, default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--parent-commit", default="?")
    ap.add_argument("--change-commit", default="?")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    records = [summarize(w, spec, args) for w in args.workloads.split(",")]
    for record in records:
        print(json.dumps(record))


if __name__ == "__main__":
    main()
