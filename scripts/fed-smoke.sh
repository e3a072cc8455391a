#!/usr/bin/env bash
# fed-smoke: end-to-end federation check.
#
#  1. Two harmonyd peers tune in partition: peer A runs session s1, peer B
#     runs session s2, each persisting to its own measurement database with
#     a distinct origin.
#  2. One `measuredb sync` round against the live peer B unions the two
#     stores; a second round must ship nothing ("pulled 0, pushed 0") —
#     anti-entropy is idempotent.
#  3. Both stores must export byte-identical aggregate CSVs.
#  4. A third peer C that never measured anything warm-starts from B over
#     live -peers sync, then serves a rerun of session s1 with zero client
#     measurements, zero db_miss events, and the bit-identical best point
#     the original partitioned run found.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=fedsmoke
rm -rf "$WORK"
mkdir -p "$WORK/bin"
trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true' EXIT

go build -o "$WORK/bin/harmonyd" ./cmd/harmonyd
go build -o "$WORK/bin/harmonyclient" ./cmd/harmonyclient
go build -o "$WORK/bin/measuredb" ./cmd/measuredb

# start_peer <name> <extra flags...> — boots a harmonyd on an ephemeral
# port, waits for the listening line, and sets ADDR/PID. The log exists
# before harmonyd starts, so the first sed cannot race the redirect that
# creates it and end the script under set -e.
start_peer() {
	local name=$1
	shift
	: > "$WORK/$name.log"
	"$WORK/bin/harmonyd" -addr 127.0.0.1:0 "$@" > "$WORK/$name.log" 2>&1 &
	PID=$!
	for _ in $(seq 1 100); do
		ADDR=$(sed -n 's/^harmonyd listening on \([0-9.:]*\).*/\1/p' "$WORK/$name.log")
		[ -n "$ADDR" ] && return 0
		kill -0 "$PID" 2>/dev/null || { echo "fed-smoke: $name died at startup"; cat "$WORK/$name.log"; exit 1; }
		sleep 0.1
	done
	echo "fed-smoke: $name never started listening"
	exit 1
}

stop_peer() {
	kill -TERM "$1" 2>/dev/null || true
	wait "$1" 2>/dev/null || true
}

wait_for() { # file pattern what
	for _ in $(seq 1 200); do
		grep -q "$2" "$1" 2>/dev/null && return 0
		sleep 0.1
	done
	echo "fed-smoke: timed out waiting for $3"
	exit 1
}

echo "== phase 1: partitioned tuning"
start_peer a -db "$WORK/a/store" -db-origin na
A_PID=$PID
"$WORK/bin/harmonyclient" -addr "$ADDR" -session s1 -seed 1 -rho 0.3 > "$WORK/client-a.out"
grep -q "converged after" "$WORK/client-a.out"
stop_peer "$A_PID"

start_peer b -db "$WORK/b/store" -db-origin nb
B_PID=$PID
"$WORK/bin/harmonyclient" -addr "$ADDR" -session s2 -seed 2 -rho 0.3 > "$WORK/client-b.out"
grep -q "converged after" "$WORK/client-b.out"
stop_peer "$B_PID"

echo "== phase 2: anti-entropy union via measuredb sync"
start_peer b -db "$WORK/b/store" -db-origin nb
B_PID=$PID
"$WORK/bin/measuredb" sync "$WORK/a/store" "$ADDR" > "$WORK/sync1.out"
cat "$WORK/sync1.out"
"$WORK/bin/measuredb" sync "$WORK/a/store" "$ADDR" > "$WORK/sync2.out"
cat "$WORK/sync2.out"
grep -q "pulled 0, pushed 0" "$WORK/sync2.out" || { echo "fed-smoke: second sync round still shipped frames"; exit 1; }
stop_peer "$B_PID"

"$WORK/bin/measuredb" export -format csv "$WORK/a/store" > "$WORK/a.csv"
"$WORK/bin/measuredb" export -format csv "$WORK/b/store" > "$WORK/b.csv"
cmp "$WORK/a.csv" "$WORK/b.csv" || { echo "fed-smoke: stores diverged after sync"; exit 1; }
echo "stores byte-identical after sync"

echo "== phase 3: zero-round-trip warm start on a never-measured peer"
start_peer b2 -db "$WORK/b/store" -db-origin nb
B_PID=$PID
B_ADDR=$ADDR
start_peer c -db "$WORK/c/store" -db-origin nc -peers "$B_ADDR" -sync-interval 200ms -trace "$WORK/c-trace.jsonl"
C_PID=$PID
wait_for "$WORK/c-trace.jsonl" '"kind":"sync_complete"' "peer C's first sync round"
"$WORK/bin/harmonyclient" -addr "$ADDR" -session s1 -seed 1 -rho 0.3 > "$WORK/client-c.out"
cat "$WORK/client-c.out"
grep -q "(0 measurements" "$WORK/client-c.out" || { echo "fed-smoke: warm start still issued measurements"; exit 1; }
if grep -q '"kind":"db_miss"' "$WORK/c-trace.jsonl"; then
	echo "fed-smoke: warm-started peer recorded db_miss events"
	exit 1
fi
# Converged peers keep exchanging empty rounds.
wait_for "$WORK/c-trace.jsonl" '"kind":"sync_complete","event":{"peer":"[0-9.:]*","pulled":0,"pushed":0' "a quiet steady-state sync round"
stop_peer "$C_PID"
stop_peer "$B_PID"

want=$(grep "best config" "$WORK/client-a.out")
got=$(grep "best config" "$WORK/client-c.out")
if [ "$want" != "$got" ]; then
	echo "fed-smoke: best point diverged"
	echo "  partitioned: $want"
	echo "  federated:   $got"
	exit 1
fi
echo "warm start reproduced the partitioned best point: $got"

rm -rf "$WORK"
echo "fed-smoke: OK"
