#!/usr/bin/env bash
# Kill-9 promotion storm for the replication tier: N cycles of "storm
# commits at the primary, SIGKILL it mid-storm, promote the replica,
# recover the deposed primary from its surviving state dir, reconcile,
# verify". Every cycle asserts:
#
#   * every acknowledged commit survives the failover with its exact
#     formula (replicated frames, snapshot resync, or the anti-entropy
#     pass against the recovered deposed primary — no acked write lost);
#   * the fencing epoch strictly increases across promotions;
#   * reconciliation never needs a merge or skips a KB (each storm KB
#     has a single writer, so divergence would mean corruption);
#   * (every 5th cycle) a node fenced at the new epoch refuses the
#     deposed primary's WAL stream end to end: it applies zero frames
#     and counts epoch rejections.
#
# The topology is a chain: each cycle's replica is a plain node
# enlisted as the primary's tail, the promote rotates it to head, and
# it is the next cycle's primary — so later cycles also exercise
# snapshot resync (a fresh replica's cursor starts below the new
# primary's retention floor).
#
#   cargo build --release
#   scripts/replication_storm.sh [path-to-arbx] [cycles]
set -euo pipefail

ARBX="${1:-target/release/arbx}"
CYCLES="${2:-20}"
[ -x "$ARBX" ] || { echo "missing binary: $ARBX (cargo build --release first)"; exit 1; }

. "$(dirname "$0")/storm_lib.sh"

WORK="$(mktemp -d)"
ACKED="$WORK/acked.txt"
: >"$ACKED"
STORM_RM=("$WORK")
trap storm_cleanup EXIT

# A replication-tier node: 2 workers, a singleton ring of its own.
repl_server() { # repl_server <logfile> <extra-args...>
  local LOG="$1"; shift
  start_server "$LOG" --addr 127.0.0.1:0 --threads 2 --snapshot-every 32 "$@"
}

# enlist <head-addr> <node-addr>: list the node as the head's chain
# tail — the only way a node becomes a replica.
enlist() {
  local OUT
  OUT=$(curl -sf --max-time 30 -d "{\"host\": \"$1\", \"addr\": \"$2\"}" \
    "http://$1/v1/cluster/enlist") || fail "enlist $2 behind $1 failed"
  case "$OUT" in
    *'"enlisted":true'*|*'"enlisted": true'*) ;;
    *) fail "enlist $2 behind $1 refused" "$OUT" ;;
  esac
}

# Seed the chain: the first primary starts at epoch 1 on a fresh dir.
EPOCH=1
P_DIR="$WORK/node0"
repl_server "$WORK/node0.log" --state-dir "$P_DIR" --replication-epoch "$EPOCH"
P_PID="$SERVER_PID"; P_ADDR="$ADDR"

for CYCLE in $(seq 1 "$CYCLES"); do
  R_DIR="$WORK/node$CYCLE"
  R_LOG="$WORK/node$CYCLE.log"
  repl_server "$R_LOG" --state-dir "$R_DIR" --replication-epoch "$EPOCH"
  R_PID="$SERVER_PID"; R_ADDR="$ADDR"
  enlist "$P_ADDR" "$R_ADDR"

  # Commit storm with a kill timer racing it: SIGKILL, never SIGTERM —
  # no drain, no shutdown snapshot; the WAL and the replica carry it.
  ( sleep 0.6; kill -9 "$P_PID" 2>/dev/null ) &
  KILLER_PID=$!
  J=0; CYCLE_ACKS=0
  while :; do
    NAME="s${CYCLE}_${J}"
    FORMULA="$(oracle_formula "$J")"
    BODY="{\"action\": \"put\", \"formula\": \"$FORMULA\"}"
    OUT=$(curl -s --max-time 5 -d "$BODY" "http://$P_ADDR/v1/kb/$NAME" 2>/dev/null) || break
    case "$OUT" in
      *'"seq":1'*|*'"seq": 1'*) echo "$NAME $FORMULA" >>"$ACKED"; CYCLE_ACKS=$(( CYCLE_ACKS + 1 )) ;;
      '') break ;;
      *) fail "cycle $CYCLE: unexpected storm response" "$OUT" ;;
    esac
    J=$(( J + 1 ))
    sleep 0.01
  done
  wait "$KILLER_PID" 2>/dev/null || true
  wait "$P_PID" 2>/dev/null || true
  [ "$CYCLE_ACKS" -gt 0 ] || fail "cycle $CYCLE: no commit was ever acknowledged"

  # Explicit failover — a chain rotation: the fencing epoch must tick
  # up by exactly one. (The replica's failure detector may have rotated
  # the chain first; the promote then answers the same epoch.)
  OUT=$(curl -sf --max-time 5 -d '' "http://$R_ADDR/v1/replication/promote") \
    || fail "cycle $CYCLE: promote failed" "$(cat "$R_LOG")"
  NEW_EPOCH=$(json_num epoch "$OUT")
  [ "$NEW_EPOCH" = "$(( EPOCH + 1 ))" ] \
    || fail "cycle $CYCLE: promotion epoch $NEW_EPOCH, want $(( EPOCH + 1 ))" "$OUT"
  EPOCH="$NEW_EPOCH"

  # Recover the deposed primary on its surviving state dir (standalone,
  # fresh port): its WAL still holds any acked-but-unshipped tail.
  OLD_DIR="$P_DIR"
  repl_server "$WORK/deposed$CYCLE.log" --state-dir "$OLD_DIR"
  OLD_PID="$SERVER_PID"; OLD_ADDR="$ADDR"

  # Every 5th cycle: a fresh node fenced at the new epoch is enlisted
  # behind the deposed primary — it must refuse the stale-epoch stream
  # wholesale.
  if [ $(( CYCLE % 5 )) -eq 1 ]; then
    repl_server "$WORK/probe$CYCLE.log" --state-dir "$WORK/probe$CYCLE" \
      --replication-epoch "$EPOCH"
    PROBE_PID="$SERVER_PID"; PROBE_ADDR="$ADDR"
    enlist "$OLD_ADDR" "$PROBE_ADDR"
    sleep 0.5
    OUT=$(curl -sf --max-time 5 "http://$PROBE_ADDR/v1/replication/status")
    HEAD=$(json_num head "$OUT")
    [ "$HEAD" = "0" ] || fail "cycle $CYCLE: fenced probe applied $HEAD stale-epoch frames" "$OUT"
    OUT=$(curl -sf --max-time 5 "http://$PROBE_ADDR/metrics")
    REJECTS=$(printf '%s' "$OUT" | sed -n 's/.*"epoch_rejections": *\([0-9]*\).*/\1/p')
    [ -n "$REJECTS" ] && [ "$REJECTS" -gt 0 ] \
      || fail "cycle $CYCLE: fenced probe never counted an epoch rejection" "$OUT"
    kill -9 "$PROBE_PID" 2>/dev/null || true
    wait "$PROBE_PID" 2>/dev/null || true
    rm -rf "$WORK/probe$CYCLE"
  fi

  # Anti-entropy: the new primary absorbs whatever the deposed one
  # acked but never shipped. Single writer per KB, so nothing may need
  # a Δ merge and nothing may be skipped.
  OUT=$(curl -sf --max-time 30 -d "{\"peer\": \"$OLD_ADDR\"}" \
    "http://$R_ADDR/v1/replication/reconcile") \
    || fail "cycle $CYCLE: reconcile failed" "$(cat "$R_LOG")"
  MERGED=$(json_num merged "$OUT"); SKIPPED=$(json_num skipped "$OUT")
  [ "$MERGED" = "0" ] && [ "$SKIPPED" = "0" ] \
    || fail "cycle $CYCLE: reconcile merged=$MERGED skipped=$SKIPPED (single-writer KBs diverged)" "$OUT"

  kill -9 "$OLD_PID" 2>/dev/null || true
  wait "$OLD_PID" 2>/dev/null || true

  # Every commit acked this cycle is on the new primary, content intact.
  while read -r NAME FORMULA; do
    case "$NAME" in "s${CYCLE}_"*) verify_kb "$R_ADDR" "$NAME" "$FORMULA" "cycle $CYCLE" ;; esac
  done <"$ACKED"

  echo "cycle $CYCLE: $CYCLE_ACKS acks survived kill-9 failover, epoch now $EPOCH"
  rm -rf "$OLD_DIR"
  P_PID="$R_PID"; P_ADDR="$R_ADDR"; P_DIR="$R_DIR"
done

# Belt and braces: sample the full acked history against the final
# primary (every 17th commit plus the very last one).
N=0
while read -r NAME FORMULA; do
  N=$(( N + 1 ))
  [ $(( N % 17 )) -eq 0 ] && verify_kb "$P_ADDR" "$NAME" "$FORMULA" "final sweep"
done <"$ACKED"
TOTAL="$N"
LAST="$(tail -n1 "$ACKED")"
verify_kb "$P_ADDR" "${LAST%% *}" "${LAST#* }" "final sweep"

kill -TERM "$P_PID"
wait "$P_PID" || fail "final SIGTERM should exit 0"
echo "replication storm: $CYCLES kill-9 failovers survived, $TOTAL acked commits intact, final epoch $EPOCH"
