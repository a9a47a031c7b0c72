#!/usr/bin/env bash
# CI gate for the sharding tier: run E20 in quick mode and fail if
# multi-primary scaling or the handoff blackout leaves its envelope.
# The full E20 on this box sees ~3x aggregate commit throughput at 3
# primaries and a single-digit-millisecond handoff blackout; the gate
# demands the PR's acceptance floor on scaling (3 primaries >= 2.2x one
# primary on a disjoint-KB workload) and only a "the fence is not
# stuck" sanity ceiling on the blackout, so it stays green on slow
# shared CI runners while catching real regressions (routing overhead
# eating the scale-out, a handoff that never unfences).
#
#   cargo build --release -p arbitrex-bench
#   scripts/e20_gate.sh [path-to-experiments]
set -euo pipefail

EXPERIMENTS="${1:-target/release/experiments}"
[ -x "$EXPERIMENTS" ] || { echo "missing binary: $EXPERIMENTS (cargo build --release -p arbitrex-bench first)"; exit 1; }

SCALE_FLOOR_X100=220     # 3-primary aggregate >= 2.2x single primary
BLACKOUT_CEILING_MS=2000 # one join-triggered handoff, writer fenced

OUT=$(ARBX_E20_QUICK=1 "$EXPERIMENTS" e20)
LINE=$(printf '%s\n' "$OUT" | grep '^e20-quick ' | head -n1) || true
[ -n "$LINE" ] || { echo "FAIL: no e20-quick line in experiments output"; printf '%s\n' "$OUT"; exit 1; }
echo "$LINE"

field() { printf '%s\n' "$LINE" | sed -n "s/.*$1=\([0-9]*\).*/\1/p"; }
SCALE=$(field scale_x100)
BLACKOUT=$(field blackout_ms)
[ -n "$SCALE" ] && [ -n "$BLACKOUT" ] \
  || { echo "FAIL: could not parse scale/blackout from: $LINE"; exit 1; }

if [ "$SCALE" -lt "$SCALE_FLOOR_X100" ]; then
  echo "FAIL: 3-primary scaling (${SCALE}/100 x) is below the ${SCALE_FLOOR_X100}/100 x floor"
  exit 1
fi
if [ "$BLACKOUT" -gt "$BLACKOUT_CEILING_MS" ]; then
  echo "FAIL: handoff blackout (${BLACKOUT}ms) exceeds the ${BLACKOUT_CEILING_MS}ms sanity ceiling"
  exit 1
fi
echo "e20 gate: scaling ${SCALE}/100 x >= ${SCALE_FLOOR_X100}/100 x, blackout ${BLACKOUT}ms <= ${BLACKOUT_CEILING_MS}ms"
