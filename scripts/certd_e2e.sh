#!/usr/bin/env bash
# End-to-end exercise of the ccal-certd certification service over real
# processes and sockets:
#
#   stage 1 — daemon + two shard processes: a chunked ticket certification
#             runs entirely on the shards; recertifying the unchanged
#             stack is answered from the content-addressed store with
#             ZERO exploration steps.
#   stage 1b — a single shard certifies the two-unit qlock stack; the
#             second unit reports family_hits > 0, proving the semantic
#             ShareKey in the lease frame let it reuse the first unit's
#             warm exploration state.
#   stage 2 — a delayed shard is SIGKILLed mid-lease; the re-leased run
#             produces the bit-identical verdict and index-least
#             counterexample that the healthy baseline produced.
#   stage 3 — a --no-cache request forces recertification, and the
#             store survives daemon restarts (a fresh daemon on the same
#             directory answers with zero steps).
#
# Works without network access; everything binds 127.0.0.1 ephemeral
# ports.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/ccal-certd
if [ ! -x "$BIN" ]; then
  cargo build --release -p ccal-certd
fi

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

# start_daemon NAME [ENV=VAL ...] — starts a daemon on an ephemeral port
# with the shared store directory, waits for its port file, and leaves
# the address in $ADDR and the pid in $DAEMON_PID.
start_daemon() {
  local name=$1
  shift
  rm -f "$TMP/$name.port"
  env "$@" "$BIN" serve --store "$TMP/store" --port-file "$TMP/$name.port" \
    >"$TMP/$name.log" 2>&1 &
  DAEMON_PID=$!
  PIDS+=("$DAEMON_PID")
  for _ in $(seq 1 100); do
    [ -f "$TMP/$name.port" ] && break
    sleep 0.1
  done
  [ -f "$TMP/$name.port" ] || {
    echo "certd e2e: daemon $name never wrote its port file" >&2
    cat "$TMP/$name.log" >&2
    exit 1
  }
  ADDR=$(cat "$TMP/$name.port")
}

# start_shard [ENV=VAL ...] — connects a shard process to $ADDR; leaves
# its pid in $SHARD_PID.
start_shard() {
  env "$@" "$BIN" shard --connect "$ADDR" >/dev/null 2>&1 &
  SHARD_PID=$!
  PIDS+=("$SHARD_PID")
  # Drop the job-table entry so a SIGKILLed shard doesn't print an
  # asynchronous "Killed" notice into the verify log.
  disown "$SHARD_PID"
}

stop_daemon() {
  "$BIN" shutdown --connect "$ADDR"
  wait "$DAEMON_PID" 2>/dev/null || true
}

# total_steps FILE — the response's total_steps value.
total_steps() {
  sed -n 's/.*"total_steps": \([0-9]*\).*/\1/p' "$1" | head -1
}

# response_line FILE KEY — the first (top-level: units sort last) line
# holding "KEY": in the pretty JSON.
response_line() {
  grep "\"$2\":" "$1" | head -1
}

echo "-- certd stage 1: sharded certification, then a zero-step cache hit --"
start_daemon a
start_shard
start_shard
sleep 1 # let both shards connect and start polling
"$BIN" certify ticket --connect "$ADDR" --chunk-cases 3 --json >"$TMP/ticket1.json"
grep -q '"certified": true' "$TMP/ticket1.json"
grep -q '"cache_hits": 0' "$TMP/ticket1.json"
[ "$(total_steps "$TMP/ticket1.json")" -gt 0 ]
if grep -q '"remote_chunks": 0,' "$TMP/ticket1.json"; then
  echo "certd e2e: expected every chunk to run on a shard" >&2
  exit 1
fi
"$BIN" certify ticket --connect "$ADDR" --json >"$TMP/ticket2.json"
grep -q '"certified": true' "$TMP/ticket2.json"
[ "$(grep -c '"cache_hit": true' "$TMP/ticket2.json")" -eq 9 ]
[ "$(total_steps "$TMP/ticket2.json")" -eq 0 ]
# Healthy-shard baseline for the failing stack (exit 1 is the verdict).
"$BIN" certify scratch --connect "$ADDR" --no-cache --json >"$TMP/scratch_base.json" || true
grep -q '"certified": false' "$TMP/scratch_base.json"
stop_daemon

echo "-- certd stage 1b: semantic families share warm state across a request's units --"
# A single shard receives both qlock leases; the lease frame carries the
# semantic ShareKey, and both units hash to one family, so the second
# unit (rel_q) starts from the first unit's warm exploration state —
# family_hits must be nonzero for rel_q and zero for the family-opening
# acq_q.
start_daemon a2
start_shard
sleep 1 # let the shard connect and start polling
"$BIN" certify qlock --connect "$ADDR" --no-cache >"$TMP/qlock1.txt"
grep -q '^verdict: CERTIFIED' "$TMP/qlock1.txt"
grep -q '^unit acq_q: .*remote=1 .*family_hits=0$' "$TMP/qlock1.txt"
if grep -q '^unit rel_q: .*family_hits=0$' "$TMP/qlock1.txt"; then
  echo "certd e2e: rel_q did not reuse acq_q's warm family state" >&2
  grep '^unit ' "$TMP/qlock1.txt" >&2
  exit 1
fi
grep -q '^unit rel_q: .*remote=1 .*family_hits=[1-9]' "$TMP/qlock1.txt"
stop_daemon

echo "-- certd stage 2: SIGKILL a shard mid-lease; verdict and evidence unchanged --"
start_daemon b
start_shard CCAL_CERTD_SHARD_DELAY_MS=2000
sleep 1 # the shard is connected and will sleep 2s on its first lease
"$BIN" certify scratch --connect "$ADDR" --no-cache --chunk-cases 1 --json \
  >"$TMP/scratch_kill.json" &
CERT_PID=$!
sleep 1 # the shard now holds a lease and is mid-delay
kill -9 "$SHARD_PID"
wait "$CERT_PID" || true
grep -q '"certified": false' "$TMP/scratch_kill.json"
grep -q '"retries": [1-9]' "$TMP/scratch_kill.json"
for key in certified failed_unit failure; do
  base=$(response_line "$TMP/scratch_base.json" "$key")
  killed=$(response_line "$TMP/scratch_kill.json" "$key")
  if [ "$base" != "$killed" ]; then
    echo "certd e2e: $key diverged after the SIGKILL" >&2
    echo "  baseline: $base" >&2
    echo "  killed:   $killed" >&2
    exit 1
  fi
done
stop_daemon

echo "-- certd stage 3: --no-cache recertifies; the store survives restarts --"
start_daemon c
"$BIN" certify ticket --connect "$ADDR" --no-cache --json >"$TMP/ticket3.json"
grep -q '"certified": true' "$TMP/ticket3.json"
grep -q '"cache_hits": 0' "$TMP/ticket3.json"
[ "$(total_steps "$TMP/ticket3.json")" -gt 0 ]
stop_daemon
start_daemon d
"$BIN" certify ticket --connect "$ADDR" --json >"$TMP/ticket4.json"
grep -q '"certified": true' "$TMP/ticket4.json"
[ "$(total_steps "$TMP/ticket4.json")" -eq 0 ]
stop_daemon

echo "certd e2e: all green"
