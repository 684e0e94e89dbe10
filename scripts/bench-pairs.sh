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
# The summary is scripts/bench-pairs-summary.py's, which can be run again
# on a saved $OUT. Printed per workload and metric: each side's median
# [q1 .. q3], the relative move of the median, and the pairs the change won
# (ties count for neither side). A gain may be claimed when the change wins
# at least nine tenths of the pairs and the medians differ by more than the
# parent's own quartile distance; the last column says which of the two
# holds. Under MIN_PAIRS (5) pairs it says `too few pairs` instead. A pass
# that failed a correctness gate (`"correct": false`) is named and its pair
# left out of every median and count, and a workload with such a pass on
# the change side gets no `gain`. `failed`/`attempted` are summed per side.
# The raw result objects stay in $OUT for the record.
#
# The last lines printed are JSON records for the BENCH_native.json /
# BENCH_service.json trajectory, one per workload in the order given
# (append each as a line): both checkouts' commits (`git describe --always
# --dirty`), the host's nproc, the workload, the complete pairs, each
# end-to-end metric BENCHMARK.json names (commit_tps, setup_s, peak_rss_mb)
# as {"parent": [q1, median, q3], "change": [...]}, the summed
# failed/attempted per side, and the incorrect passes per side.
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

python3 "$(dirname "$0")/bench-pairs-summary.py" "$CHANGE/BENCHMARK.json" "$OUT" "$3" \
  --trace "$TRACE" --pairs "$PAIRS" --seed "$SEED" \
  --parent-commit "$(git -C "$PARENT" describe --always --dirty)" \
  --change-commit "$(git -C "$CHANGE" describe --always --dirty)"
