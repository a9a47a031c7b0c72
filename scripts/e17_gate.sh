#!/usr/bin/env bash
# CI gate for the event-loop server: run E17 in quick mode and fail if
# pipelined throughput regresses below the *recorded* thread-pool
# baseline (BENCH_PR4.json, threads=4, warm cache-on pass — the engine
# PR 6 replaced). The full E17 claims >=5x on this box; the gate only
# demands "never slower than what we deleted", so it stays green on
# slow shared CI runners while still catching real event-loop
# regressions (a lost pipelining path, a serialized dispatch, a busy
# poll).
#
#   cargo build --release -p arbitrex-bench
#   scripts/e17_gate.sh [path-to-experiments]
set -euo pipefail

EXPERIMENTS="${1:-target/release/experiments}"
[ -x "$EXPERIMENTS" ] || { echo "missing binary: $EXPERIMENTS (cargo build --release -p arbitrex-bench first)"; exit 1; }
[ -f BENCH_PR4.json ] || { echo "missing BENCH_PR4.json (run from the repo root)"; exit 1; }

# The recorded thread-pool rps at threads=4, cache on, warm pass.
BASELINE=$(grep -o '{"threads": 4, "cache": true, "pass": 2[^}]*}' BENCH_PR4.json \
  | grep -o '"rps": [0-9]*' | grep -o '[0-9]*')
[ -n "$BASELINE" ] || { echo "FAIL: could not parse the threads=4 warm baseline from BENCH_PR4.json"; exit 1; }

OUT=$(ARBX_E17_QUICK=1 "$EXPERIMENTS" e17)
LINE=$(printf '%s\n' "$OUT" | grep '^e17-quick ' | head -n1) || true
[ -n "$LINE" ] || { echo "FAIL: no e17-quick line in experiments output"; printf '%s\n' "$OUT"; exit 1; }
echo "$LINE (thread-pool baseline: $BASELINE rps)"

PIPELINED=$(printf '%s\n' "$LINE" | sed -n 's/.*pipelined_rps=\([0-9]*\).*/\1/p')
[ -n "$PIPELINED" ] || { echo "FAIL: could not parse pipelined_rps from: $LINE"; exit 1; }

if [ "$PIPELINED" -lt "$BASELINE" ]; then
  echo "FAIL: event-loop pipelined throughput ($PIPELINED rps) fell below the recorded thread-pool baseline ($BASELINE rps)"
  exit 1
fi
echo "e17 gate: pipelined $PIPELINED rps >= thread-pool baseline $BASELINE rps"
