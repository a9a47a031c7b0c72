#!/usr/bin/env bash
# Membership-churn storm for the sharded cluster: N cycles of "storm
# commits through the routing layer, SIGKILL a shard owner mid-storm,
# drop it from the ring, restart it from its surviving state dir on a
# fresh port, join it back, verify". Every cycle asserts:
#
#   * every acknowledged commit is still readable through the router
#     with its exact formula after the churn — kill-9, the leave-
#     triggered rebalance (which must tolerate the dead source), and
#     the join-triggered handoff may not lose an acked write;
#   * every copy of an acked KB left anywhere in the cluster carries
#     byte-identical state: the `/v1/kbs` digests (seq, content hash)
#     agree across every member that still holds the name;
#   * the ring converges: after the churn every member reports the same
#     ring epoch and the same membership.
#
# The storm writer runs through the whole cycle, following 307
# redirects to shard owners (curl -L re-POSTs on 307) and shrugging off
# the typed 503 handoff fence — only `"seq":1` acks enter the oracle.
#
#   cargo build --release -p arbitrex-cli
#   scripts/shard_storm.sh [path-to-arbx] [cycles]
set -euo pipefail

ARBX="${1:-target/release/arbx}"
CYCLES="${2:-3}"
[ -x "$ARBX" ] || { echo "missing binary: $ARBX (cargo build --release -p arbitrex-cli first)"; exit 1; }

. "$(dirname "$0")/storm_lib.sh"

WORK="$(mktemp -d)"
ACKED="$WORK/acked.txt"
: >"$ACKED"
STORM_RM=("$WORK")
trap storm_cleanup EXIT

# A shard member: 3 workers, advertising its bound address as ring
# identity.
shard_server() { # shard_server <logfile> <extra-args...>
  local LOG="$1"; shift
  start_server "$LOG" --addr 127.0.0.1:0 --threads 3 --snapshot-every 32 \
    --shard-ring auto "$@"
}

# Three members: node0 is the coordinator (never killed, the client
# entry point); the victims rotate over the other two slots.
shard_server "$WORK/node0.log" --state-dir "$WORK/node0"
COORD_ADDR="$ADDR"
shard_server "$WORK/slot1.log" --state-dir "$WORK/slot1"
SLOT_PID[1]="$SERVER_PID"; SLOT_ADDR[1]="$ADDR"; SLOT_DIR[1]="$WORK/slot1"
shard_server "$WORK/slot2.log" --state-dir "$WORK/slot2"
SLOT_PID[2]="$SERVER_PID"; SLOT_ADDR[2]="$ADDR"; SLOT_DIR[2]="$WORK/slot2"
for SLOT in 1 2; do
  OUT=$(cluster_post "$COORD_ADDR" join "${SLOT_ADDR[$SLOT]}") \
    || fail "seed join of slot $SLOT failed"
done

for CYCLE in $(seq 1 "$CYCLES"); do
  SLOT=$(( (CYCLE - 1) % 2 + 1 ))
  VICTIM_PID="${SLOT_PID[$SLOT]}"
  VICTIM_ADDR="${SLOT_ADDR[$SLOT]}"
  VICTIM_DIR="${SLOT_DIR[$SLOT]}"

  # Storm writer: routed puts at the coordinator for the whole cycle.
  # -L follows the 307 to the shard owner; fenced 503s and the dead
  # window simply do not ack (holes in the name space are fine).
  rm -f "$WORK/stop"
  (
    J=0
    while [ ! -f "$WORK/stop" ]; do
      NAME="c${CYCLE}_${J}"
      FORMULA="$(oracle_formula "$J")"
      BODY="{\"action\": \"put\", \"formula\": \"$FORMULA\"}"
      OUT=$(curl -sL --max-time 2 -d "$BODY" "http://$COORD_ADDR/v1/kb/$NAME" 2>/dev/null) || OUT=""
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

  # Kill-9 a shard owner mid-storm: no drain, no shutdown snapshot;
  # its state dir is the only survivor.
  kill -9 "$VICTIM_PID" 2>/dev/null || true
  wait "$VICTIM_PID" 2>/dev/null || true
  sleep 0.3

  # Drop it from the ring. The leave-triggered rebalance must tolerate
  # the unreachable source (its slice stays dark until the rejoin).
  OUT=$(cluster_post "$COORD_ADDR" leave "$VICTIM_ADDR") \
    || fail "cycle $CYCLE: leave of dead member failed"
  LEFT=$(json_num epoch "$OUT")

  # Restart it from the surviving state dir on a fresh port and join it
  # back: the join-triggered handoff pulls every acked KB to its
  # post-rebalance owner, wherever the new ring places it.
  shard_server "$WORK/slot${SLOT}-c${CYCLE}.log" --state-dir "$VICTIM_DIR"
  SLOT_PID[$SLOT]="$SERVER_PID"; SLOT_ADDR[$SLOT]="$ADDR"
  OUT=$(cluster_post "$COORD_ADDR" join "${SLOT_ADDR[$SLOT]}") \
    || fail "cycle $CYCLE: rejoin failed"
  JOINED=$(json_num epoch "$OUT")
  [ "$JOINED" = "$(( LEFT + 1 ))" ] \
    || fail "cycle $CYCLE: join epoch $JOINED, want $(( LEFT + 1 ))" "$OUT"

  sleep 0.5
  touch "$WORK/stop"
  wait "$WRITER_PID" 2>/dev/null || true

  # Ring convergence: every member reports the same epoch + membership.
  WANT_RING=""
  for MEMBER in "$COORD_ADDR" "${SLOT_ADDR[1]}" "${SLOT_ADDR[2]}"; do
    OUT=$(curl -sf --max-time 5 "http://$MEMBER/v1/cluster/ring") \
      || fail "cycle $CYCLE: no ring from $MEMBER"
    RING="epoch $(json_num epoch "$OUT") members $(printf '%s' "$OUT" \
      | tr ',' '\n' | grep -c '"127\.0\.0\.1:')"
    if [ -z "$WANT_RING" ]; then WANT_RING="$RING"; fi
    [ "$RING" = "$WANT_RING" ] \
      || fail "cycle $CYCLE: $MEMBER sees \`$RING\`, coordinator sees \`$WANT_RING\`" "$OUT"
  done

  # Digest convergence: every copy of an acked KB still present anywhere
  # carries identical (seq, hash) — a torn or replayed handoff that left
  # divergent bytes would disagree here.
  listing "$COORD_ADDR" >"$WORK/digest0" || fail "cycle $CYCLE: no listing from coordinator"
  listing "${SLOT_ADDR[1]}" >"$WORK/digest1" || fail "cycle $CYCLE: no listing from slot 1"
  listing "${SLOT_ADDR[2]}" >"$WORK/digest2" || fail "cycle $CYCLE: no listing from slot 2"
  CYCLE_ACKS=0
  while read -r NAME FORMULA; do
    case "$NAME" in "c${CYCLE}_"*) ;; *) continue ;; esac
    CYCLE_ACKS=$(( CYCLE_ACKS + 1 ))
    COPIES=$(grep -h "^$NAME " "$WORK"/digest[0-2] | sort -u | wc -l)
    HOLDERS=$(grep -h "^$NAME " "$WORK"/digest[0-2] | wc -l)
    [ "$HOLDERS" -ge 1 ] || fail "cycle $CYCLE: acked KB \`$NAME\` is on no member"
    [ "$COPIES" = "1" ] \
      || fail "cycle $CYCLE: \`$NAME\` has $COPIES divergent digests across its copies" \
        "$(grep -h "^$NAME " "$WORK"/digest[0-2])"
    verify_kb "$COORD_ADDR" "$NAME" "$FORMULA" "cycle $CYCLE"
  done <"$ACKED"
  [ "$CYCLE_ACKS" -gt 0 ] || fail "cycle $CYCLE: no commit was ever acknowledged"
  echo "cycle $CYCLE: $CYCLE_ACKS acks survived kill-9 churn of $VICTIM_ADDR, ring epoch $JOINED"
done

# Belt and braces: the full acked history is still served through the
# router, content intact.
TOTAL=0
while read -r NAME FORMULA; do
  TOTAL=$(( TOTAL + 1 ))
  verify_kb "$COORD_ADDR" "$NAME" "$FORMULA" "final sweep"
done <"$ACKED"
echo "shard storm: $CYCLES kill-9 churn cycles survived, $TOTAL acked commits intact"
