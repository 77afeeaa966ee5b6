#!/usr/bin/env bash
# End-to-end smoke of the qlosured daemon with the real binaries: boot on
# a temp socket, route a QUEKO circuit through qlosure-client, assert the
# response verifies, assert the repeated request reports a cache hit
# without importing its QASM again,
# assert from traces that only a mapper reading omega computes it,
# cancel an in-flight deep route mid-flight (protocol v2), and shut the
# daemon down cleanly over the protocol. Run by ctest (service-smoke) and
# the CI service job.
#
# usage: service_smoke.sh BIN_DIR QUEKO_QASM
set -euo pipefail

BIN_DIR=${1:?usage: service_smoke.sh BIN_DIR QUEKO_QASM}
QASM=${2:?usage: service_smoke.sh BIN_DIR QUEKO_QASM}
SOCK="/tmp/qlosured-smoke-$$.sock"
RESP="/tmp/qlosured-smoke-$$.json"
DEEP="/tmp/qlosured-smoke-$$-deep.qasm"
LOOP="/tmp/qlosured-smoke-$$-loop.qasm"
STATS_ERR="/tmp/qlosured-smoke-$$-stats.err"
STORE="/tmp/qlosured-smoke-$$.qstore"

cleanup() {
  [[ -n "${DAEMON_PID:-}" ]] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -f "$RESP" "$SOCK" "$DEEP" "$LOOP" "$STATS_ERR" "$STORE" \
    "$STORE.compact"
}
trap cleanup EXIT

"$BIN_DIR/qlosured" --socket "$SOCK" --workers 2 &
DAEMON_PID=$!

# First request: --connect-timeout retries until the daemon has bound.
# Exit code 0 implies a non-error response; the stats must say verified.
"$BIN_DIR/qlosure-client" --socket "$SOCK" --connect-timeout 10 \
  route --backend aspen16 --stats-only "$QASM" > "$RESP"
grep -q '"verified":true' "$RESP"
grep -q '"cache_hit":false' "$RESP"
echo "service-smoke: first request verified (cold)"

# The daemon's QASM import count (stats.latency.import_qasm.count).
import_count() {
  "$BIN_DIR/qlosure-client" --socket "$SOCK" stats 2> /dev/null |
    grep -o '"import_qasm":{"type":"histogram","count":[0-9]*' |
    grep -o '[0-9]*$'
}
IMPORTS_BEFORE=$(import_count)

# The identical request again must be served from the cache — without
# importing its QASM again.
"$BIN_DIR/qlosure-client" --socket "$SOCK" \
  route --backend aspen16 --stats-only --expect-cache-hit "$QASM" > "$RESP"
grep -q '"verified":true' "$RESP"
grep -q '"result_cache_hit":true' "$RESP"
IMPORTS_AFTER=$(import_count)
[[ -n "$IMPORTS_BEFORE" && "$IMPORTS_BEFORE" -ge 1 ]]
[[ "$IMPORTS_AFTER" == "$IMPORTS_BEFORE" ]]
echo "service-smoke: repeated request hit the cache without an import"

# Malformed traffic must produce structured errors, never kill the daemon.
"$BIN_DIR/qlosure-client" --socket "$SOCK" route --mapper nope \
  --backend aspen16 "$QASM" > "$RESP" && status=0 || status=$?
[[ "$status" -eq 1 ]] # error response, not a transport failure
grep -q '"code":"unknown_mapper"' "$RESP"
echo "service-smoke: malformed request answered with a structured error"

# omega is computed only for a mapper that reads it: a traced cold sabre
# route carries no ctx_weights span, and qlosure over the same (now
# cached) context computes omega on first read.
"$BIN_DIR/qlosure-client" --socket "$SOCK" route --mapper sabre \
  --backend ankaa3 --stats-only --trace "$QASM" > "$RESP" 2> /dev/null
grep -q '"context_cache_hit":false' "$RESP"
if grep -q '"ctx_weights"' "$RESP"; then
  echo "service-smoke: sabre route computed omega" >&2
  exit 1
fi
"$BIN_DIR/qlosure-client" --socket "$SOCK" route --mapper qlosure \
  --backend ankaa3 --stats-only --trace "$QASM" > "$RESP" 2> /dev/null
grep -q '"context_cache_hit":true' "$RESP"
grep -q '"ctx_weights"' "$RESP"
echo "service-smoke: omega computed by qlosure only, on the shared context"

# Affine fast path over the wire: a hand-rolled periodic circuit (one CX
# ladder repeated eight times) routed with "affine":true must verify, and
# the stats document must expose the affine counters as plain numbers —
# both in the raw JSON (stdout) and in the client's stderr summary.
{
  echo 'OPENQASM 2.0;'
  echo 'include "qelib1.inc";'
  echo 'qreg q[8];'
  for _ in 1 2 3 4 5 6 7 8; do
    for i in 0 1 2 3 4 5 6; do echo "cx q[$i],q[$((i+1))];"; done
  done
} > "$LOOP"
"$BIN_DIR/qlosure-client" --socket "$SOCK" \
  route --backend aspen16 --affine --stats-only "$LOOP" > "$RESP"
grep -q '"verified":true' "$RESP"
"$BIN_DIR/qlosure-client" --socket "$SOCK" stats \
  > "$RESP" 2> "$STATS_ERR"
grep -Eq '"affine_replays":[0-9]+' "$RESP"
grep -Eq '"affine_fallbacks":[0-9]+' "$RESP"
grep -Eq 'affine replays [0-9]+, affine fallbacks [0-9]+' "$STATS_ERR"
echo "service-smoke: affine route verified; stats expose the counters"

# Mid-route cancellation (protocol v2): generate a QUEKO circuit deep
# enough that qmap needs many seconds on sherbrooke2x, submit it, cancel
# it 300 ms later on the same connection, and require the final response
# to be the structured `cancelled` error — promptly, not after the full
# route.
"$BIN_DIR/qlosure-queko" --device kings9x9 --depth 1200 --seed 3 \
  --output "$DEEP" 2> /dev/null
SECONDS=0  # bash's built-in timer: portable, unlike date +%N
"$BIN_DIR/qlosure-client" --socket "$SOCK" route --mapper qmap \
  --backend sherbrooke2x --stats-only --id slow --cancel-after-ms 300 \
  "$DEEP" > "$RESP" 2> /dev/null && status=0 || status=$?
ELAPSED_S=$SECONDS
[[ "$status" -eq 1 ]] # the final response is an error response
grep -q '"code":"cancelled"' "$RESP"
[[ "$ELAPSED_S" -le 2 ]] # cancelled ~300 ms in, answered well under the multi-second full route
echo "service-smoke: in-flight route cancelled after ~${ELAPSED_S}s (cancel sent at 300ms)"

# Graceful protocol shutdown: the daemon must exit 0 and unlink its socket.
"$BIN_DIR/qlosure-client" --socket "$SOCK" shutdown > /dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
[[ ! -e "$SOCK" ]]
echo "service-smoke: daemon shut down cleanly"

# Durable result store: routed results written under --store must be
# served as cache hits by a fresh daemon restarted on the same file
# (tests/store_crash.sh covers the crash/corruption legs).
"$BIN_DIR/qlosured" --socket "$SOCK" --store "$STORE" --workers 2 &
DAEMON_PID=$!
"$BIN_DIR/qlosure-client" --socket "$SOCK" --connect-timeout 10 \
  route --backend aspen16 --stats-only "$QASM" > "$RESP"
grep -q '"result_cache_hit":false' "$RESP"
"$BIN_DIR/qlosure-client" --socket "$SOCK" shutdown > /dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
"$BIN_DIR/qlosured" --socket "$SOCK" --store "$STORE" --workers 2 &
DAEMON_PID=$!
"$BIN_DIR/qlosure-client" --socket "$SOCK" --connect-timeout 10 \
  route --backend aspen16 --stats-only --expect-cache-hit "$QASM" > "$RESP"
grep -q '"result_cache_hit":true' "$RESP"
"$BIN_DIR/qlosure-client" --socket "$SOCK" stats > "$RESP"
grep -Eq '"store":\{' "$RESP"
grep -Eq '"records":[1-9]' "$RESP"
"$BIN_DIR/qlosure-client" --socket "$SOCK" shutdown > /dev/null
wait "$DAEMON_PID"
DAEMON_PID=""
echo "service-smoke: warm result survived a daemon restart via --store"
