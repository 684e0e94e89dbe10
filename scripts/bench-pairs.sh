#!/usr/bin/env bash
# bench-pairs.sh — parent-versus-change runs of repo-benchmark workloads, the
# procedure of the choosing-metrics guide §8: N alternating pairs per
# workload, each side's median and quartiles, and the number of pairs the
# change won.
#
#   scripts/bench-pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOADS [PAIRS]
#
#   scripts/bench-pairs.sh ../parent . service-sat        # 10 pairs
#   TRACE=1 scripts/bench-pairs.sh ../parent . service-sat 3
#   scripts/bench-pairs.sh ../parent . \
#     native-scan,native-contend,service-sat,service-open,sim-bank 5
#
# WORKLOADS is one workload or a comma-separated list; each runs all its
# pairs before the next starts. Each checkout's benchmark/ is built once
# (into its own .bench_build/, which .gitignore lists) and then run in
# BENCHMARK.json's own form — one pass per run, `--workload W --seed S
# --seconds <run_seconds> --trace T` — from that checkout's root. Pair k
# runs seed SEED+k-1 on both sides; odd pairs run the parent first, even
# pairs the change. Read-only use of benchmark/ and BENCHMARK.json: nothing
# there is edited.
#
# Printed per workload and metric: each side's median [q1 .. q3], the
# relative move of the median, and the pairs the change won (ties count for
# neither side). A gain may be claimed when the change wins at least nine
# tenths of the pairs and the medians differ by more than the parent's own
# quartile distance; the last column says which of the two holds. Under
# MIN_PAIRS (5) pairs it says `too few pairs` instead: on a 2-vCPU host,
# 3-pair sets against one parent have read a per-layer metric +13 % and
# then -12 % with no change to the path it measures.
# `failed`/`attempted` are summed per side. The raw result objects stay in
# $OUT for the record.
#
# The last lines printed are JSON records for the BENCH_native.json /
# BENCH_service.json trajectory, one per workload in the order given
# (append each as a line): both checkouts' commits (`git describe --always
# --dirty`), the host's nproc, the workload, the complete pairs, each
# end-to-end metric BENCHMARK.json names (commit_tps, setup_s, peak_rss_mb)
# as {"parent": [q1, median, q3], "change": [...]}, and the summed
# failed/attempted per side.
#
# Env: PAIRS (or 4th argument, default 10), SEED (first seed, default 1),
#      TRACE (0 = end-to-end metrics, 1 = per-layer; default 0),
#      OUT (default CHANGE_CHECKOUT/.bench_build/pairs).
set -euo pipefail

[ $# -ge 3 ] || {
  sed -n '2,12p' "$0" >&2
  exit 2
}
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
IFS=, read -r -a WORKLOADS <<< "$3"
PAIRS=${4:-${PAIRS:-10}}
SEED=${SEED:-1}
TRACE=${TRACE:-0}
OUT=${OUT:-$CHANGE/.bench_build/pairs}
mkdir -p "$OUT"
SECONDS_PER_RUN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$CHANGE/BENCHMARK.json")

for side in "$PARENT" "$CHANGE"; do
  echo "bench-pairs: building $side/benchmark" >&2
  (cd "$side" && CARGO_TARGET_DIR="$side/.bench_build" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One pass; the result object is the last line of the benchmark's output.
pass() { # checkout label pair seed workload
  local log="$OUT/$5.t$TRACE.$2.$3.log"
  (cd "$1" && CARGO_TARGET_DIR="$1/.bench_build" \
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$5" --seed "$4" --seconds "$SECONDS_PER_RUN" --trace "$TRACE") \
    > "$log" 2>&1 || echo "bench-pairs: $5 $2 pair $3 exited nonzero (see $log)" >&2
  tail -n 1 "$log" > "$OUT/$5.t$TRACE.$2.$3.json"
}

for workload in "${WORKLOADS[@]}"; do
  for k in $(seq 1 "$PAIRS"); do
    seed=$((SEED + k - 1))
    if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for label in $order; do
      if [ "$label" = parent ]; then dir=$PARENT; else dir=$CHANGE; fi
      echo "bench-pairs: $workload pair $k/$PAIRS seed $seed: $label" >&2
      pass "$dir" "$label" "$k" "$seed" "$workload"
    done
  done
done

python3 - "$CHANGE/BENCHMARK.json" "$OUT" "$3" "$TRACE" "$PAIRS" \
  "$(git -C "$PARENT" describe --always --dirty)" "$(git -C "$CHANGE" describe --always --dirty)" <<'PY'
import json, os, sys
from statistics import median, quantiles

spec, out, workloads, trace, pairs = sys.argv[1], sys.argv[2], sys.argv[3].split(","), sys.argv[4], int(sys.argv[5])
parent_commit, change_commit = sys.argv[6], sys.argv[7]
spec = json.load(open(spec))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
# Fewer pairs than this support no verdict either way.
MIN_PAIRS = 5
end_to_end = [m["name"] for m in spec["end_to_end"]]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def summarize(workload):
    """Print one workload's comparison; return its trajectory record."""
    def load(label, k):
        try:
            return json.load(open(f"{out}/{workload}.t{trace}.{label}.{k}.json"))
        except (OSError, ValueError):
            return None

    runs = [(load("parent", k), load("change", k)) for k in range(1, pairs + 1)]
    complete = [(p, c) for p, c in runs if p and c]
    print(f"{workload}: {len(complete)} of {pairs} pairs complete, trace {trace}")
    failed, attempted = {}, {}
    for label, i in (("parent", 0), ("change", 1)):
        side = [r[i] for r in runs if r[i]]
        failed[label] = sum(r['failed'] for r in side)
        attempted[label] = sum(r['attempted'] for r in side)
        print(f"  {label}: failed {failed[label]} of {attempted[label]} attempted; "
              f"{sum(not r['correct'] for r in side)} passes failed a correctness gate")

    names = sorted({n for p, c in complete for n in p["metrics"] if n in c["metrics"]})
    quarts = {}
    for name in names:
        # A per-layer metric may be missing from a pass; keep the pairs that have it on both sides.
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
            verdict = "gain"
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
        "commit": change_commit, "parent": parent_commit, "nproc": os.cpu_count(),
        "workload": workload, "pairs": len(complete),
        **{name: quarts.get(name) for name in end_to_end},
        "failed": failed, "attempted": attempted,
    }

records = [summarize(w) for w in workloads]
for record in records:
    print(json.dumps(record))
PY
