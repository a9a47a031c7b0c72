#!/usr/bin/env bash
# Observability doc audit: every name the server emits over /metrics —
# counter, timer, latency histogram, gauge — must appear (backticked) in
# OBSERVABILITY.md. Starts the release server on an ephemeral port,
# fetches one /metrics document, and diffs the emitted names against the
# doc. Fails listing every emitted-but-undocumented name; also warns on
# doc-table entries that are no longer emitted (stale rows), without
# failing, since prose may legitimately mention retired names.
#
#   cargo build --release -p arbitrex-cli
#   scripts/check_observability.sh [path-to-arbx]
set -euo pipefail

ARBX="${1:-target/release/arbx}"
DOC="OBSERVABILITY.md"
[ -x "$ARBX" ] || { echo "missing binary: $ARBX (cargo build --release -p arbitrex-cli first)"; exit 1; }
[ -f "$DOC" ] || { echo "missing $DOC (run from the repo root)"; exit 1; }

LOG="$(mktemp)"
METRICS="$(mktemp)"
cleanup() {
  [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -f "$LOG" "$METRICS"
}
trap cleanup EXIT

"$ARBX" serve --addr 127.0.0.1:0 --threads 1 >"$LOG" &
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

curl -fsS "http://$ADDR/metrics" >"$METRICS"
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Emitted names: section counters (timers collapse from <name>_ns +
# <name>_spans to their base name, which is how the doc tables list
# them), latency histogram names, and gauge names.
EMITTED="$(python3 - "$METRICS" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
names = set()
for section, body in doc["telemetry"].items():
    if not isinstance(body, dict):
        continue  # telemetry_enabled
    for k in body:
        if k.endswith("_ns") and k[: -len("_ns")] + "_spans" in body:
            names.add(k[: -len("_ns")])
        elif k.endswith("_spans") and k[: -len("_spans")] + "_ns" in body:
            pass
        else:
            names.add(k)
for h in doc["latency_ns"]:
    names.add(h)
for g in doc["gauges"]:
    names.add(g)
print("\n".join(sorted(names)))
PY
)"
[ -n "$EMITTED" ] || { echo "FAIL: parsed no names out of /metrics"; cat "$METRICS"; exit 1; }

FAILED=0
TOTAL=0
while IFS= read -r name; do
  TOTAL=$((TOTAL + 1))
  if ! grep -q "\`$name\`" "$DOC"; then
    echo "UNDOCUMENTED: \`$name\` is emitted by /metrics but has no $DOC entry"
    FAILED=1
  fi
done <<<"$EMITTED"

# Reverse direction: table rows documenting names nobody emits anymore.
DOCUMENTED="$(sed -n 's/^| `\([a-z_0-9]*\)` |.*/\1/p' "$DOC" | sort -u)"
while IFS= read -r name; do
  [ -n "$name" ] || continue
  if ! grep -qx "$name" <<<"$EMITTED"; then
    echo "warning: $DOC documents \`$name\` but /metrics does not emit it"
  fi
done <<<"$DOCUMENTED"

if [ "$FAILED" -ne 0 ]; then
  echo "FAIL: /metrics emits names missing from $DOC (see above)"
  exit 1
fi
echo "observability check: all $TOTAL emitted names documented in $DOC"
