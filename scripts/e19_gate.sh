#!/usr/bin/env bash
# CI gate for the replication tier: run E19 in quick mode and fail if
# replication lag or failover time leaves its sanity envelope. The full
# E19 on this box sees ~100us idle lag p50 and sub-millisecond
# failover; the gate only demands "the machinery is not broken" bounds
# (long-poll shipping degraded to timer-cadence polling, a promote that
# stalls, a min-seq read that never unblocks), so it stays green on
# slow shared CI runners while catching real regressions.
#
#   cargo build --release -p arbitrex-bench
#   scripts/e19_gate.sh [path-to-experiments]
set -euo pipefail

EXPERIMENTS="${1:-target/release/experiments}"
[ -x "$EXPERIMENTS" ] || { echo "missing binary: $EXPERIMENTS (cargo build --release -p arbitrex-bench first)"; exit 1; }

# Generous sanity ceilings (microseconds): idle shipping must beat
# timer-cadence polling by a wide margin; failover is a promote plus
# one read on an already-caught-up replica.
LAG_P99_CEILING_US=500000       # 0.5 s
FAILOVER_P99_CEILING_US=2000000 # 2 s

OUT=$(ARBX_E19_QUICK=1 "$EXPERIMENTS" e19)
LINE=$(printf '%s\n' "$OUT" | grep '^e19-quick ' | head -n1) || true
[ -n "$LINE" ] || { echo "FAIL: no e19-quick line in experiments output"; printf '%s\n' "$OUT"; exit 1; }
echo "$LINE"

field() { printf '%s\n' "$LINE" | sed -n "s/.*$1=\([0-9]*\).*/\1/p"; }
LAG_P99=$(field lag_p99_us)
FAILOVER_P99=$(field failover_p99_us)
[ -n "$LAG_P99" ] && [ -n "$FAILOVER_P99" ] \
  || { echo "FAIL: could not parse lag/failover from: $LINE"; exit 1; }

if [ "$LAG_P99" -gt "$LAG_P99_CEILING_US" ]; then
  echo "FAIL: replication lag p99 (${LAG_P99}us) exceeds the ${LAG_P99_CEILING_US}us sanity ceiling"
  exit 1
fi
if [ "$FAILOVER_P99" -gt "$FAILOVER_P99_CEILING_US" ]; then
  echo "FAIL: failover p99 (${FAILOVER_P99}us) exceeds the ${FAILOVER_P99_CEILING_US}us sanity ceiling"
  exit 1
fi
echo "e19 gate: lag p99 ${LAG_P99}us <= ${LAG_P99_CEILING_US}us, failover p99 ${FAILOVER_P99}us <= ${FAILOVER_P99_CEILING_US}us"
