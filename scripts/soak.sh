#!/usr/bin/env bash
# soak.sh — bounded-memory soak for the version GC.
#
# Drives csmv-service with the open-loop loadgen at one fixed arrival
# rate for a SHORT and a LONG schedule (default 4x longer), then asserts
# off the service's `csmv-service: gc:` summary line that
#
#   1. the end-of-run version-store footprint does not grow with run
#      length (plateau: long <= short * SOAK_FACTOR) — the watermark GC
#      reclaims as fast as the write stream retires versions;
#   2. no per-key version list ever exceeded the ring + registered-reader
#      bound (versions_per_box + reader_slots), on either run;
#   3. the history oracle stayed clean and every request was terminally
#      accounted (loadgen exits nonzero otherwise).
#
# All knobs are env-overridable; defaults are CI-sized (~12 s total).
#
#   SOAK_RATE=400 SOAK_LONG_MS=60000 scripts/soak.sh   # a real soak
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-target/release}
RATE=${SOAK_RATE:-400}
SHORT_MS=${SOAK_SHORT_MS:-2000}
LONG_MS=${SOAK_LONG_MS:-8000}
FACTOR=${SOAK_FACTOR:-2}
KEYS=${SOAK_KEYS:-1024}
VPB=${SOAK_VPB:-1}
READER_SLOTS=${SOAK_READER_SLOTS:-64}
PORT=${SOAK_PORT:-7431}
SEED=${SOAK_SEED:-77}
OUT=${SOAK_OUT:-soak-results}
mkdir -p "$OUT"

for bin in csmv-service loadgen; do
  [ -x "$BIN/$bin" ] || {
    echo "soak: $BIN/$bin not built (cargo build --release -p csmv-service -p bench)" >&2
    exit 2
  }
done

# Run one lane; prints "<footprint_bytes> <max_version_list_len>".
lane() { # name port duration_ms
  local name=$1 port=$2 dur=$3
  local log="$OUT/service_$name.log"
  "$BIN/csmv-service" --addr "127.0.0.1:$port" --keys "$KEYS" \
    --clients 4 \
    --versions-per-box "$VPB" --reader-slots "$READER_SLOTS" \
    --check-history --max-run-secs 300 > "$log" 2>&1 &
  local svc=$!
  sleep 1
  "$BIN/loadgen" --addr "127.0.0.1:$port" --rates "$RATE" \
    --duration-ms "$dur" --conns 4 --keys "$KEYS" --seed "$SEED" \
    --shutdown --json "$OUT/loadgen_$name.json" >&2
  local svc_exit=0
  wait "$svc" || svc_exit=$?
  cat "$log" >&2
  [ "$svc_exit" -eq 0 ] || {
    echo "soak: service ($name) exited $svc_exit" >&2
    exit 1
  }
  grep -q "history: ok" "$log" || {
    echo "soak: service ($name) history oracle failed" >&2
    exit 1
  }
  local gc
  gc=$(grep "csmv-service: gc:" "$log") || {
    echo "soak: service ($name) printed no gc summary" >&2
    exit 1
  }
  echo "$gc" | sed -E 's/.*footprint_bytes=([0-9]+) max_version_list_len=([0-9]+).*/\1 \2/'
}

echo "soak: rate=$RATE req/s, short=${SHORT_MS}ms, long=${LONG_MS}ms," \
  "keys=$KEYS, vpb=$VPB, reader_slots=$READER_SLOTS"
read -r short_fp short_len < <(lane short "$PORT" "$SHORT_MS")
read -r long_fp long_len < <(lane long "$((PORT + 1))" "$LONG_MS")
echo "soak: short run footprint=${short_fp}B maxlen=$short_len;" \
  "long run footprint=${long_fp}B maxlen=$long_len"

[ "$short_fp" -gt 0 ] || {
  echo "soak: short run sampled a zero footprint — instrumentation broken?" >&2
  exit 1
}
# The plateau assertion: a leak scales residency with run length; a
# working watermark GC holds it flat (modulo sampling noise, FACTOR).
[ "$long_fp" -le "$((short_fp * FACTOR))" ] || {
  echo "soak: footprint grew with run length: ${short_fp}B -> ${long_fp}B" \
    "(> ${FACTOR}x) — version GC is leaking" >&2
  exit 1
}
bound=$((VPB + READER_SLOTS))
for len in "$short_len" "$long_len"; do
  [ "$len" -le "$bound" ] || {
    echo "soak: max_version_list_len $len breaches ring+readers bound $bound" >&2
    exit 1
  }
done
echo "soak: PASS — footprint flat (${short_fp}B -> ${long_fp}B)," \
  "version lists within bound $bound"
