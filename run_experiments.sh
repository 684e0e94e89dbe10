#!/bin/bash
# Regenerate every table and figure of the paper, teeing outputs to results/.
# bank_suite covers Fig.2a/2b, Fig.4, Tables I & II in one sweep; mc_suite
# covers Fig.3 and Tables III & IV; table5 and multiserver run separately.
#
# With no arguments, runs the full simulated-experiment manifest from
# scripts/bench-bins.sh; pass bin names to run a subset.
set -u
cd "$(dirname "$0")"
source scripts/bench-bins.sh
if [ "$#" -eq 0 ]; then
  set -- $SIM_BINS
fi
for exp in "$@"; do
  echo "=== $exp ($(date +%H:%M:%S)) ==="
  cargo run -p bench --release -q --bin "$exp" > "results/$exp.txt" 2> "results/$exp.log"
  echo "--- $exp done ($(date +%H:%M:%S), exit $?) ---"
done
echo ALL_EXPERIMENTS_DONE
