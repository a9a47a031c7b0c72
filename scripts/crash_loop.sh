#!/usr/bin/env bash
# Crash-loop the durable KB store: N cycles of "start the release server
# on a persistent state directory, storm commits at it, SIGKILL it
# mid-storm, restart, verify". The oracle is sequential: every cycle
# checks that the recovered seq covers every acknowledged commit and
# that the stored formula is the one that seq acknowledged. CI runs this
# after the release build; run it locally the same way:
#
#   cargo build --release -p arbitrex-cli
#   scripts/crash_loop.sh [path-to-arbx] [cycles]
set -euo pipefail

ARBX="${1:-target/release/arbx}"
CYCLES="${2:-5}"
[ -x "$ARBX" ] || { echo "missing binary: $ARBX (cargo build --release -p arbitrex-cli first)"; exit 1; }

. "$(dirname "$0")/storm_lib.sh"

STATE="$(mktemp -d)"
LOG="$(mktemp)"
STORM_RM=("$STATE" "$LOG")
trap storm_cleanup EXIT

expect() { # expect <label> <needle> <haystack>
  case "$3" in *"$2"*) ;; *) fail "$1 (wanted \`$2\`)" "got: $3" "log: $(cat "$LOG")" ;; esac
}

boot() {
  start_server "$LOG" --addr 127.0.0.1:0 --threads 2 \
    --state-dir "$STATE" --snapshot-every 16
}

# The sequential oracle: the i-th acknowledged commit stores formula
# "A & B" when i is even, "A | B" when i is odd, so the recovered state
# is fully determined by its seq. (Unlike the storms' per-name cube
# oracle, this one keys on the single KB's seq.)
seq_formula() { # seq_formula <seq>
  if [ $(( $1 % 2 )) -eq 0 ]; then echo "A & B"; else echo "A | B"; fi
}

LAST_ACKED=0
for CYCLE in $(seq 1 "$CYCLES"); do
  boot

  # Verify recovery against the oracle before storming more commits.
  if [ "$LAST_ACKED" -gt 0 ]; then
    OUT=$(curl -sf "http://$ADDR/v1/kb/loop")
    SEQ=$(json_num seq "$OUT")
    [ -n "$SEQ" ] || fail "cycle $CYCLE: no seq in recovered KB" "$OUT"
    if [ "$SEQ" -lt "$LAST_ACKED" ] || [ "$SEQ" -gt $(( LAST_ACKED + 1 )) ]; then
      fail "cycle $CYCLE: recovered seq $SEQ vs last acked $LAST_ACKED" "$OUT"
    fi
    expect "cycle $CYCLE: oracle formula for seq $SEQ" "$(seq_formula "$SEQ")" "$OUT"
    LAST_ACKED="$SEQ"
  fi

  # Commit storm with a kill timer racing it: SIGKILL, never SIGTERM —
  # no drain, no shutdown snapshot, the WAL alone must carry the state.
  ( sleep 0.7; kill -9 "$SERVER_PID" 2>/dev/null ) &
  KILLER_PID=$!
  I="$LAST_ACKED"
  while :; do
    NEXT=$(( I + 1 ))
    BODY="{\"action\": \"put\", \"formula\": \"$(seq_formula "$NEXT")\", \"if_seq\": $I}"
    OUT=$(curl -s --max-time 5 -d "$BODY" "http://$ADDR/v1/kb/loop" 2>/dev/null) || break
    case "$OUT" in
      *'"seq": '"$NEXT"*|*'"seq":'"$NEXT"*) I="$NEXT" ;;
      '') break ;;
      *) fail "cycle $CYCLE: unexpected storm response" "$OUT" ;;
    esac
  done
  LAST_ACKED="$I"
  wait "$KILLER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  [ "$LAST_ACKED" -gt 0 ] || fail "cycle $CYCLE: no commit was ever acknowledged" "(none)"
  echo "cycle $CYCLE: killed at seq $LAST_ACKED"
done

# Final verification pass: recover once more and check the oracle.
boot
OUT=$(curl -sf "http://$ADDR/v1/kb/loop")
SEQ=$(json_num seq "$OUT")
if [ "$SEQ" -lt "$LAST_ACKED" ] || [ "$SEQ" -gt $(( LAST_ACKED + 1 )) ]; then
  fail "final: recovered seq $SEQ vs last acked $LAST_ACKED" "$OUT"
fi
expect "final oracle formula for seq $SEQ" "$(seq_formula "$SEQ")" "$OUT"
expect "recovery line printed" "arbitrex-server recovered" "$(cat "$LOG")"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "final SIGTERM should exit 0" "exit status $?"
SERVER_PID=""

echo "crash loop: $CYCLES kill-9 cycles survived, final seq $SEQ"
