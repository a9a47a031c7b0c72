#!/usr/bin/env bash
# Smoke-test the release server binary over real sockets: every endpoint
# answers, the cache hits on resubmission, malformed input gets a 400,
# and SIGTERM produces a clean drain and exit 0. CI runs this after the
# release build; run it locally the same way:
#
#   cargo build --release -p arbitrex-cli
#   scripts/server_smoke.sh [path-to-arbx]
set -euo pipefail

ARBX="${1:-target/release/arbx}"
[ -x "$ARBX" ] || { echo "missing binary: $ARBX (cargo build --release -p arbitrex-cli first)"; exit 1; }

LOG="$(mktemp)"
cleanup() {
  [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -f "$LOG"
}
trap cleanup EXIT

# Port 0: let the kernel pick, parse the announced address back out of
# the eagerly-flushed "listening on" line.
"$ARBX" serve --addr 127.0.0.1:0 --threads 2 --queue-depth 32 --cache-entries 256 >"$LOG" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^arbitrex-server listening on \([0-9.:]*\) .*$/\1/p' "$LOG" | head -n1)"
  [ -n "$ADDR" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server exited before listening"; cat "$LOG"; exit 1
  fi
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: never saw the listening line"; cat "$LOG"; exit 1; }
echo "server up at $ADDR"

fail() { echo "FAIL: $1"; echo "--- got:"; echo "$2"; exit 1; }
expect() { # expect <label> <needle> <haystack>
  case "$3" in *"$2"*) ;; *) fail "$1 (wanted \`$2\`)" "$3" ;; esac
}

OUT=$(curl -sf -d '{"psi": "A & B", "phi": "!A & !B"}' "http://$ADDR/v1/arbitrate")
expect "arbitrate exact" '"quality":"exact"' "$OUT"
expect "arbitrate cold" '"cache":"miss"' "$OUT"

OUT=$(curl -sf -d '{"psi": "A & B", "phi": "!A & !B"}' "http://$ADDR/v1/arbitrate")
expect "arbitrate warm" '"cache":"hit"' "$OUT"

# Alpha-variant of the same query: still a hit.
OUT=$(curl -sf -d '{"psi": "Y & X", "phi": "!X & !Y"}' "http://$ADDR/v1/arbitrate")
expect "arbitrate alpha-variant" '"cache":"hit"' "$OUT"

OUT=$(curl -sf -d '{"psi": "A & B", "mu": "!A | !B", "op": "dalal"}' "http://$ADDR/v1/fit")
expect "fit dalal" '"op":"dalal"' "$OUT"
expect "fit exact" '"quality":"exact"' "$OUT"

OUT=$(curl -sf -d '{"psi": "A | B", "phi": "!A", "psi_weight": 3}' "http://$ADDR/v1/warbitrate")
expect "warbitrate" '"endpoint":"warbitrate"' "$OUT"

OUT=$(curl -sf -d '{"action": "put", "formula": "A & B"}' "http://$ADDR/v1/kb/smoke")
expect "kb put" '"seq":1' "$OUT"
OUT=$(curl -sf -d '{"action": "arbitrate", "formula": "!A & !B"}' "http://$ADDR/v1/kb/smoke")
expect "kb arbitrate commits" '"committed":true' "$OUT"
OUT=$(curl -sf "http://$ADDR/v1/kb/smoke")
expect "kb get" '"seq":2' "$OUT"
OUT=$(curl -sf -X DELETE "http://$ADDR/v1/kb/smoke")
expect "kb delete" '"deleted":true' "$OUT"

# Malformed bodies: typed 400, server stays up.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d 'not json at all' "http://$ADDR/v1/arbitrate")
[ "$CODE" = "400" ] || fail "malformed body should be 400" "$CODE"

# Pipelining: two requests in a single write on one connection; both
# responses come back, in order, on that same connection. Driven with
# bash's /dev/tcp so the smoke needs no client beyond the shell.
HOST="${ADDR%:*}"; PORT="${ADDR##*:}"
BODY='{"psi": "A", "phi": "!A"}'
REQ1=$(printf 'POST /v1/arbitrate HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\n\r\n%s' "${#BODY}" "$BODY")
REQ2=$(printf 'POST /v1/arbitrate HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\nContent-Length: %s\r\n\r\n%s' "${#BODY}" "$BODY")
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '%s%s' "$REQ1" "$REQ2" >&3
PIPELINED=$(timeout 10 cat <&3 || true)
exec 3<&- 3>&-
OKS=$(printf '%s' "$PIPELINED" | grep -c 'HTTP/1.1 200' || true)
[ "$OKS" = "2" ] || fail "pipelined write should yield two 200s" "$PIPELINED"

OUT=$(curl -sf "http://$ADDR/metrics")
expect "metrics sections" '"server"' "$OUT"
expect "metrics histograms" '"latency_ns"' "$OUT"
expect "metrics gauges" '"kb_count"' "$OUT"

# Clean shutdown: SIGTERM drains workers and the process exits 0.
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
[ "$STATUS" = "0" ] || fail "SIGTERM should exit 0" "exit status $STATUS"
expect "clean shutdown message" 'server stopped' "$(cat "$LOG")"
SERVER_PID=""

echo "server smoke: all checks passed"
