#!/usr/bin/env bash
# Chained-chaos storm for per-shard replica chains: N cycles of "storm
# routed commits through the cluster, SIGKILL the chain *head*
# mid-storm, let the failure detector promote the enlisted replica,
# revive the deposed head on its old port, let the new head
# Δ-reconcile and re-enlist it, verify". Unlike shard_storm.sh there is
# no operator choreography — no leave, no explicit promote, no manual
# reconcile; the detector does everything. Every cycle asserts:
#
#   * every acknowledged commit is still readable through the router
#     with its exact formula after the failover — zero acked loss,
#     including anything the dead head acked but never shipped (the
#     revival Δ-reconcile must bring it back);
#   * after the revived head resyncs, every copy of an acked KB across
#     the whole cluster carries byte-identical (seq, hash) digests;
#   * the chain's replication epoch ticked up by exactly one per
#     failover and both chain members agree on it.
#
# The storm writer runs through the whole cycle, following 307
# redirects (curl -L re-POSTs on 307) and shrugging off fences and the
# detection blackout — only `"seq":1` acks enter the oracle.
#
#   cargo build --release
#   scripts/chained_chaos.sh [path-to-arbx] [cycles]
set -euo pipefail

ARBX="${1:-target/release/arbx}"
CYCLES="${2:-3}"
[ -x "$ARBX" ] || { echo "missing binary: $ARBX (cargo build --release first)"; exit 1; }

. "$(dirname "$0")/storm_lib.sh"

WORK="$(mktemp -d)"
ACKED="$WORK/acked.txt"
: >"$ACKED"
STORM_RM=("$WORK")
trap storm_cleanup EXIT

# A chained member: 3 workers, fast failure detector so a cycle fits
# in CI time (probe 100 ms, suspect after 2 — a 200 ms detection
# floor, same envelope E21 measures).
chain_server() { # chain_server <logfile> <extra-args...>
  local LOG="$1"; shift
  start_server "$LOG" --addr 127.0.0.1:0 --threads 3 --snapshot-every 32 \
    --shard-ring auto --probe-interval-ms 100 --suspect-after 2 "$@"
}

# wait_for <timeout-s> <label> <check-fn...>: poll until the check
# passes or the deadline fails the run.
wait_for() {
  local DEADLINE=$(( $(date +%s) + $1 )) LABEL="$2"; shift 2
  until "$@"; do
    [ "$(date +%s)" -lt "$DEADLINE" ] || fail "timed out waiting for $LABEL"
    sleep 0.1
  done
}

role_of() { # role_of <addr> -> primary|replica|""
  json_str role "$(curl -s --max-time 5 "http://$1/v1/replication/status" 2>/dev/null)"
}

is_primary() { [ "$(role_of "$1")" = "primary" ]; }
is_replica_at_epoch() { # <addr> <epoch>
  local OUT
  OUT=$(curl -s --max-time 5 "http://$1/v1/replication/status" 2>/dev/null) || return 1
  [ "$(json_str role "$OUT")" = "replica" ] && [ "$(json_num epoch "$OUT")" = "$2" ]
}

chain_digests_agree() { # <addr-a> <addr-b>
  local A B
  A=$(listing "$1" | sort) || return 1
  B=$(listing "$2" | sort) || return 1
  [ -n "$A" ] && [ "$A" = "$B" ]
}

# Topology: a coordinator/voter (never killed, the client entry point
# and the quorum's tie-breaker) plus one chain of two. The chain's
# head and tail swap roles every cycle — each failover's survivor is
# the next cycle's victim.
chain_server "$WORK/voter.log" --state-dir "$WORK/voter"
VOTER_ADDR="$ADDR"
chain_server "$WORK/a.log" --state-dir "$WORK/a"
A_PID="$SERVER_PID"; A_ADDR="$ADDR"
OUT=$(cluster_post "$VOTER_ADDR" join "$A_ADDR") || fail "seed join failed"
chain_server "$WORK/b.log" --state-dir "$WORK/b"
B_PID="$SERVER_PID"; B_ADDR="$ADDR"
OUT=$(curl -sf --max-time 30 \
  -d "{\"host\": \"$A_ADDR\", \"addr\": \"$B_ADDR\"}" \
  "http://$VOTER_ADDR/v1/cluster/enlist") || fail "seed enlist failed"
case "$OUT" in
  *'"enlisted":true'*|*'"enlisted": true'*) ;;
  *) fail "seed enlist refused" "$OUT" ;;
esac

HEAD_PID="$A_PID"; HEAD_ADDR="$A_ADDR"; HEAD_DIR="$WORK/a"; HEAD_LOG_TAG="a"
TAIL_PID="$B_PID"; TAIL_ADDR="$B_ADDR"; TAIL_DIR="$WORK/b"; TAIL_LOG_TAG="b"
EPOCH=1

for CYCLE in $(seq 1 "$CYCLES"); do
  # Storm writer: routed puts at the voter for the whole cycle. -L
  # follows the 307 to the chain head; the detection blackout and any
  # post-rotation fence simply do not ack.
  rm -f "$WORK/stop"
  (
    J=0
    while [ ! -f "$WORK/stop" ]; do
      NAME="f${CYCLE}_${J}"
      FORMULA="$(oracle_formula "$J")"
      BODY="{\"action\": \"put\", \"formula\": \"$FORMULA\"}"
      OUT=$(curl -sL --max-time 2 -d "$BODY" "http://$VOTER_ADDR/v1/kb/$NAME" 2>/dev/null) || OUT=""
      case "$OUT" in
        *'"seq":1'*|*'"seq": 1'*) echo "$NAME $FORMULA" >>"$ACKED" ;;
      esac
      J=$(( J + 1 ))
      sleep 0.01
    done
  ) &
  WRITER_PID=$!
  PIDS+=("$WRITER_PID")
  sleep 0.8

  # Kill-9 the chain head mid-storm: no drain, no shutdown snapshot,
  # no operator. Its state dir (holding anything acked but unshipped)
  # is the only survivor.
  kill -9 "$HEAD_PID" 2>/dev/null || true
  wait "$HEAD_PID" 2>/dev/null || true

  # The tail must suspect, confirm with the voter, and self-promote.
  wait_for 30 "automatic promotion of $TAIL_ADDR" is_primary "$TAIL_ADDR"
  EPOCH=$(( EPOCH + 1 ))
  OUT=$(curl -sf --max-time 5 "http://$TAIL_ADDR/v1/replication/status")
  GOT=$(json_num epoch "$OUT")
  [ "$GOT" = "$EPOCH" ] \
    || fail "cycle $CYCLE: promotion epoch $GOT, want $EPOCH" "$OUT"

  # Revive the deposed head on its OLD port from its surviving state
  # dir: the new head is probing that address, and on revival it must
  # Δ-reconcile the dead head's unshipped tail, re-enlist it, and the
  # rejoiner must demote and resync to the new epoch.
  chain_server "$WORK/${HEAD_LOG_TAG}-c${CYCLE}.log" --state-dir "$HEAD_DIR" \
    --addr "$HEAD_ADDR"
  REVIVED_PID="$SERVER_PID"
  [ "$ADDR" = "$HEAD_ADDR" ] || fail "cycle $CYCLE: revival rebound to $ADDR, want $HEAD_ADDR"
  wait_for 45 "revived $HEAD_ADDR to demote at epoch $EPOCH" \
    is_replica_at_epoch "$HEAD_ADDR" "$EPOCH"

  sleep 0.5
  touch "$WORK/stop"
  wait "$WRITER_PID" 2>/dev/null || true

  # Byte-identical digests across the chain after reconcile + resync.
  wait_for 30 "chain digests to converge" \
    chain_digests_agree "$HEAD_ADDR" "$TAIL_ADDR"

  # Zero acked loss: every acknowledged commit — including this
  # cycle's, committed right up to the kill — is readable through the
  # router with its exact formula, and every copy anywhere in the
  # cluster agrees byte-for-byte.
  listing "$VOTER_ADDR" >"$WORK/digest0" || fail "cycle $CYCLE: no listing from voter"
  listing "$HEAD_ADDR" >"$WORK/digest1" || fail "cycle $CYCLE: no listing from revived head"
  listing "$TAIL_ADDR" >"$WORK/digest2" || fail "cycle $CYCLE: no listing from new head"
  CYCLE_ACKS=0
  while read -r NAME FORMULA; do
    case "$NAME" in "f${CYCLE}_"*) ;; *) continue ;; esac
    CYCLE_ACKS=$(( CYCLE_ACKS + 1 ))
    COPIES=$(grep -h "^$NAME " "$WORK"/digest[0-2] | sort -u | wc -l)
    HOLDERS=$(grep -h "^$NAME " "$WORK"/digest[0-2] | wc -l)
    [ "$HOLDERS" -ge 1 ] || fail "cycle $CYCLE: acked KB \`$NAME\` is on no member"
    [ "$COPIES" = "1" ] \
      || fail "cycle $CYCLE: \`$NAME\` has $COPIES divergent digests across its copies" \
        "$(grep -h "^$NAME " "$WORK"/digest[0-2])"
    verify_kb "$VOTER_ADDR" "$NAME" "$FORMULA" "cycle $CYCLE"
  done <"$ACKED"
  [ "$CYCLE_ACKS" -gt 0 ] || fail "cycle $CYCLE: no commit was ever acknowledged"
  echo "cycle $CYCLE: $CYCLE_ACKS acks survived kill-9 of head $HEAD_ADDR, epoch now $EPOCH"

  # Swap: the promoted tail is the next cycle's victim, the revived
  # head its successor.
  OLD_HEAD_PID="$REVIVED_PID"; OLD_HEAD_ADDR="$HEAD_ADDR"
  OLD_HEAD_DIR="$HEAD_DIR"; OLD_HEAD_TAG="$HEAD_LOG_TAG"
  HEAD_PID="$TAIL_PID"; HEAD_ADDR="$TAIL_ADDR"; HEAD_DIR="$TAIL_DIR"; HEAD_LOG_TAG="$TAIL_LOG_TAG"
  TAIL_PID="$OLD_HEAD_PID"; TAIL_ADDR="$OLD_HEAD_ADDR"; TAIL_DIR="$OLD_HEAD_DIR"; TAIL_LOG_TAG="$OLD_HEAD_TAG"
done

# Belt and braces: the full acked history is still served through the
# router, content intact.
TOTAL=0
while read -r NAME FORMULA; do
  TOTAL=$(( TOTAL + 1 ))
  verify_kb "$VOTER_ADDR" "$NAME" "$FORMULA" "final sweep"
done <"$ACKED"
echo "chained chaos: $CYCLES kill-9 head failovers survived, $TOTAL acked commits intact, final epoch $EPOCH"
