#!/usr/bin/env bash
# CI gate for chain failover: run E21 in quick mode and fail if the
# detection + promotion write blackout leaves its envelope. The full
# E21 on this box measures a p50 blackout of ~140 ms and a p99 of
# ~205 ms against a 200 ms detection floor (probe 100 ms x
# suspect_after 2); the gate demands only a "failover actually
# converges at detector speed" ceiling — generous enough for slow
# shared CI runners, tight enough to catch a detector that stopped
# probing, a quorum that deadlocks, or a promotion that leaves the
# writer bouncing off fences.
#
#   cargo build --release -p arbitrex-bench
#   scripts/e21_gate.sh [path-to-experiments]
set -euo pipefail

EXPERIMENTS="${1:-target/release/experiments}"
[ -x "$EXPERIMENTS" ] || { echo "missing binary: $EXPERIMENTS (cargo build --release -p arbitrex-bench first)"; exit 1; }

P50_CEILING_MS=2000  # detection floor is 200 ms; 10x headroom for CI
P99_CEILING_MS=5000  # worst trial must still be detector-paced, not timeout-paced

OUT=$(ARBX_E21_QUICK=1 "$EXPERIMENTS" e21)
LINE=$(printf '%s\n' "$OUT" | grep '^e21-quick ' | head -n1) || true
[ -n "$LINE" ] || { echo "FAIL: no e21-quick line in experiments output"; printf '%s\n' "$OUT"; exit 1; }
echo "$LINE"

field() { printf '%s\n' "$LINE" | sed -n "s/.*$1=\([0-9]*\).*/\1/p"; }
P50=$(field blackout_p50_ms)
P99=$(field blackout_p99_ms)
[ -n "$P50" ] && [ -n "$P99" ] \
  || { echo "FAIL: could not parse blackout percentiles from: $LINE"; exit 1; }

if [ "$P50" -gt "$P50_CEILING_MS" ]; then
  echo "FAIL: blackout p50 (${P50}ms) exceeds the ${P50_CEILING_MS}ms ceiling"
  exit 1
fi
if [ "$P99" -gt "$P99_CEILING_MS" ]; then
  echo "FAIL: blackout p99 (${P99}ms) exceeds the ${P99_CEILING_MS}ms ceiling"
  exit 1
fi
echo "e21 gate: blackout p50 ${P50}ms <= ${P50_CEILING_MS}ms, p99 ${P99}ms <= ${P99_CEILING_MS}ms"
