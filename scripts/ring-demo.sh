#!/usr/bin/env bash
# ring-demo.sh — boots 3 chronosd replicas joined into one rendezvous-hash
# ring and demonstrates the point of plan-key sharding: a plan computed via
# replica A is a cache hit when the same job is requested via replica B,
# because both forward the key to its single owning replica. It then sends a
# request with a caller-chosen X-Chronosd-Trace-Id through a non-owning
# replica and greps that ID out of BOTH replicas' structured logs — the
# out-of-process proof that one trace ID spans a forward hop. Then it shows
# that each peer's circuit breaker is the fleet's only liveness judge: it
# SIGKILLs the plan owner, shows the very next request solved by the replica
# it was sent to (a counted local fallback), restarts the owner, and asserts
# that within one breaker cooldown the key is forwarded to it again. Finally
# it exercises the tenant pool: admits sent through all three replicas are
# decided on the tenant's one pool owner; it SIGKILLs that owner mid-run,
# asserts that both survivors refuse the tenant at once instead of opening a
# second pool, restarts it from its data dir, and asserts that it restored
# its pre-crash pool level from the WAL. It ends by reading
# every replica's stderr file back: request lines and operational lines share
# one stream, and through two SIGKILLs every line of it must still be one
# complete JSON object. Also used as the CI smoke step for the ring serving
# path (make ring-demo).
set -euo pipefail
cd "$(dirname "$0")/.."
command -v jq >/dev/null \
  || { echo "FAIL: jq is required (the log-stream checks parse every line)"; exit 1; }

PORT_BASE="${RING_DEMO_PORT_BASE:-18080}"
BIN="$(mktemp -d)/chronosd"
echo "== building chronosd =="
go build -o "$BIN" ./cmd/chronosd

PORTS=($((PORT_BASE + 1)) $((PORT_BASE + 2)) $((PORT_BASE + 3)))
PEERS=""
for p in "${PORTS[@]}"; do
  PEERS="${PEERS:+$PEERS,}http://127.0.0.1:$p"
done

LOG_DIR="$(mktemp -d)"
DATA_DIR="$(mktemp -d)"
TENANTS="$LOG_DIR/tenants.json"
cat > "$TENANTS" <<'EOF'
{"tenants": [{"name": "demo", "budget": 100000, "theta": 0.0001, "unitPrice": 1}]}
EOF
declare -A PID_OF
cleanup() {
  for p in "${!PID_OF[@]}"; do kill "${PID_OF[$p]}" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$(dirname "$BIN")" "$LOG_DIR" "$DATA_DIR"
}
trap cleanup EXIT

# start_replica <port> <logfile>: one ring member with a per-port durable
# data dir.
start_replica() {
  local p="$1" log="$2"
  "$BIN" -addr "127.0.0.1:$p" -self "http://127.0.0.1:$p" -peers "$PEERS" \
    -tenants "$TENANTS" -data-dir "$DATA_DIR/$p" 2>"$log" &
  PID_OF[$p]=$!
}

# local_fallbacks <base url>: the replica's count of non-owned keys it
# computed itself because the owner was unreachable.
local_fallbacks() {
  curl -sf "$1/metrics" | awk '$1 == "chronosd_ring_local_fallbacks_total" {print $2}'
}

# served_by <base url> <body>: POST /v1/plan and print who answered it.
served_by() {
  curl -sf -o /dev/null -D - -X POST -H 'Content-Type: application/json' -d "$2" "$1/v1/plan" \
    | awk -F': ' 'tolower($1)=="x-chronosd-served-by" {gsub(/\r/,"",$2); print $2}'
}

wait_healthy() {
  local p="$1"
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$p/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "FAIL: replica on port $p never became healthy"
  exit 1
}

# Each replica's structured JSON logs go to a per-port file so the trace
# propagation check below can grep a specific replica's view of a request.
echo "== starting 3 replicas (ring: $PEERS; logs in $LOG_DIR) =="
for p in "${PORTS[@]}"; do
  start_replica "$p" "$LOG_DIR/$p.log"
done
for p in "${PORTS[@]}"; do
  wait_healthy "$p"
done

BODY='{"job":{"tasks":100,"deadline":3600,"tmin":40,"beta":1.6,"tauEst":300,"tauKill":600},"econ":{"theta":0.0001,"unitPrice":1}}'
A="http://127.0.0.1:${PORTS[0]}"
B="http://127.0.0.1:${PORTS[1]}"

echo "== plan via replica A ($A) =="
HDRS_A="$(mktemp)"
R1="$(curl -sf -D "$HDRS_A" -X POST -H 'Content-Type: application/json' -d "$BODY" "$A/v1/plan")"
echo "$R1"
OWNER="$(awk -F': ' 'tolower($1)=="x-chronosd-served-by" {gsub(/\r/,"",$2); print $2}' "$HDRS_A")"
echo "   served by: $OWNER"
grep -q '"cached":false' <<<"$R1" \
  || { echo "FAIL: first plan should not be cached"; exit 1; }

echo "== same job via replica B ($B) =="
HDRS_B="$(mktemp)"
R2="$(curl -sf -D "$HDRS_B" -X POST -H 'Content-Type: application/json' -d "$BODY" "$B/v1/plan")"
echo "$R2"
OWNER2="$(awk -F': ' 'tolower($1)=="x-chronosd-served-by" {gsub(/\r/,"",$2); print $2}' "$HDRS_B")"
echo "   served by: $OWNER2"
grep -q '"cached":true' <<<"$R2" \
  || { echo "FAIL: plan via B should hit the cache entry planned via A"; exit 1; }
[ "$OWNER" = "$OWNER2" ] \
  || { echo "FAIL: the two requests were served by different owners ($OWNER vs $OWNER2)"; exit 1; }
rm -f "$HDRS_A" "$HDRS_B"

echo "== ring metrics on replica A =="
curl -sf "$A/metrics" | grep '^chronosd_ring_'

# --- one trace ID across the forward hop -----------------------------------
# Send a request with an explicit trace ID through a replica that does NOT
# own the key (the owner is known from the requests above), then find that
# ID in the logs of both the entry replica and the owner.
ENTRY=""
for p in "${PORTS[@]}"; do
  [ "http://127.0.0.1:$p" != "$OWNER" ] && { ENTRY="http://127.0.0.1:$p"; break; }
done
OWNER_PORT="${OWNER##*:}"
ENTRY_PORT="${ENTRY##*:}"
TRACE_ID="ring-demo-$$"

echo "== traced plan via non-owner $ENTRY (trace ID $TRACE_ID) =="
HDRS_T="$(mktemp)"
curl -sf -D "$HDRS_T" -X POST -H 'Content-Type: application/json' \
  -H "X-Chronosd-Trace-Id: $TRACE_ID" -d "$BODY" "$ENTRY/v1/plan" >/dev/null
ECHOED="$(awk -F': ' 'tolower($1)=="x-chronosd-trace-id" {gsub(/\r/,"",$2); print $2}' "$HDRS_T")"
rm -f "$HDRS_T"
[ "$ECHOED" = "$TRACE_ID" ] \
  || { echo "FAIL: response echoed trace ID '$ECHOED', want '$TRACE_ID'"; exit 1; }

for port in "$ENTRY_PORT" "$OWNER_PORT"; do
  # Log writes are asynchronous to the HTTP response; give them a moment.
  for _ in $(seq 1 20); do
    grep -q "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$port.log" 2>/dev/null && break
    sleep 0.1
  done
  grep -q "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$port.log" \
    || { echo "FAIL: trace $TRACE_ID missing from replica :$port's request log"; exit 1; }
  echo "   replica :$port logged the trace:"
  grep "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$port.log" | head -1 | sed 's/^/     /'
done
grep "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$ENTRY_PORT.log" | grep -q '"forward"' \
  || { echo "FAIL: entry replica's log line has no forward span"; exit 1; }
grep "\"traceId\":\"$TRACE_ID\"" "$LOG_DIR/$OWNER_PORT.log" | head -1 \
  | jq -e '.msg == "request" and .forwardHop == true' >/dev/null \
  || { echo "FAIL: owner's request line for the forwarded trace lacks \"forwardHop\":true"; exit 1; }

echo
echo "OK: cross-replica cache hit — planned via A, hit via B, owned by $OWNER"
echo "OK: trace $TRACE_ID spans the forward hop ($ENTRY -> $OWNER)"

# --- the breaker judges liveness: kill the owner, solve where the request lands
# Plans are never copied between replicas: solving one costs less than moving
# it, and nothing remaps a dead member's keys. SIGKILL the owner: the next
# request through a survivor must be answered by that survivor (its forward
# fails, it solves the plan itself — a counted local fallback). Restarted, the
# owner gets the key back at the latest on the first half-open probe, one
# breaker cooldown (5 s) after the circuit opened.
echo
echo "== SIGKILL the plan owner (:$OWNER_PORT) =="
FALLBACKS_BEFORE="$(local_fallbacks "$ENTRY")"
kill -9 "${PID_OF[$OWNER_PORT]}"
unset "PID_OF[$OWNER_PORT]"

BY="$(served_by "$ENTRY" "$BODY")"
[ "$BY" = "$ENTRY" ] \
  || { echo "FAIL: with the owner dead, the plan sent to $ENTRY was served by '$BY'"; exit 1; }
FALLBACKS_AFTER="$(local_fallbacks "$ENTRY")"
[ "$FALLBACKS_AFTER" -gt "$FALLBACKS_BEFORE" ] \
  || { echo "FAIL: chronosd_ring_local_fallbacks_total on $ENTRY stayed at $FALLBACKS_AFTER"; exit 1; }
echo "   the dead owner's key was solved by the replica that took the request ($BY)"
echo "   local fallbacks on $ENTRY: $FALLBACKS_BEFORE -> $FALLBACKS_AFTER"

echo "== restarting the dead owner (:$OWNER_PORT) =="
start_replica "$OWNER_PORT" "$LOG_DIR/$OWNER_PORT.rejoin.log"
wait_healthy "$OWNER_PORT"
# One default cooldown (5 s) plus slack.
BY=""
for _ in $(seq 1 50); do
  BY="$(served_by "$ENTRY" "$BODY")"
  [ "$BY" = "$OWNER" ] && break
  sleep 0.2
done
[ "$BY" = "$OWNER" ] \
  || { echo "FAIL: 10 s after the restart the plan sent to $ENTRY was served by '$BY', want $OWNER"; exit 1; }
echo "   back; $ENTRY forwards the key to $OWNER again"

echo
echo "OK: dead owner's key solved where the request landed, the restarted owner took it back within a cooldown"

# --- tenant pool: admits land on the owner; kill it, restore it -----------
# Every admit is decided on the tenant's pool owner (the ring owner of the
# tenant key), whichever replica receives it: admits sent through all three
# replicas are all served by one replica, and only its pool moves. The owner
# is then SIGKILLed mid-run — no final snapshot. The tenant's pool stays with
# it: both survivors refuse the tenant at once with budget_exhausted, even a
# job the pool could pay many times over, instead of opening a second pool.
# Restarted from its data dir, the owner replays the snapshot+WAL and comes
# back with its pre-crash pool level.
echo
echo "== tenant pool: admits through every replica (tenant 'demo') =="
# admit <port> <tasks>: one admit for tenant 'demo'; prints the body, then
# the X-Chronosd-Served-By value on the last line.
admit() {
  local hdr
  hdr="$(mktemp)"
  curl -sf -D "$hdr" -X POST -H 'Content-Type: application/json' \
    -d "{\"tenant\":\"demo\",\"job\":{\"tasks\":$2,\"deadline\":3600,\"tmin\":40,\"beta\":1.6,\"tauEst\":300,\"tauKill\":600}}" \
    "http://127.0.0.1:$1/v1/admit"
  echo
  awk -F': ' 'tolower($1)=="x-chronosd-served-by" {gsub(/\r/,"",$2); print $2}' "$hdr"
  rm -f "$hdr"
}
POOL_OWNER=""
for i in 1 2 3 4 5 6; do
  port="${PORTS[$((i % 3))]}"
  OUT="$(admit "$port" $((90 + i)))"
  head -n 1 <<<"$OUT" | grep -q '"admitted":true' \
    || { echo "FAIL: admit $i via :$port rejected: $OUT"; exit 1; }
  BY="$(tail -n 1 <<<"$OUT")"
  [ -z "$POOL_OWNER" ] && POOL_OWNER="$BY"
  [ "$BY" = "$POOL_OWNER" ] \
    || { echo "FAIL: admit $i via :$port was decided by '$BY', earlier ones by $POOL_OWNER"; exit 1; }
done
POOL_OWNER_PORT="${POOL_OWNER##*:}"
echo "   every admit decided by the pool owner, 127.0.0.1:$POOL_OWNER_PORT"

# pool_level <port>: the replica's chronosd_tenant_budget_remaining for 'demo'.
pool_level() {
  curl -sf "http://127.0.0.1:$1/metrics" | awk -v k='chronosd_tenant_budget_remaining{tenant="demo"}' '$1 == k {print $2}'
}
SURVIVORS=()
for p in "${PORTS[@]}"; do
  [ "$p" != "$POOL_OWNER_PORT" ] && SURVIVORS+=("$p")
done
for p in "${SURVIVORS[@]}"; do
  [ "$(pool_level "$p")" = "100000" ] \
    || { echo "FAIL: non-owner :$p spent its copy of the pool: $(pool_level "$p")"; exit 1; }
done
LEVEL_BEFORE="$(pool_level "$POOL_OWNER_PORT")"
awk -v l="$LEVEL_BEFORE" 'BEGIN {exit !(l < 100000)}' \
  || { echo "FAIL: the owner's pool is '$LEVEL_BEFORE' after six admits, want below 100000"; exit 1; }
echo "   before the crash: owner's pool $LEVEL_BEFORE, the survivors' copies untouched"

echo "== SIGKILL the pool owner (:$POOL_OWNER_PORT) =="
kill -9 "${PID_OF[$POOL_OWNER_PORT]}"
wait "${PID_OF[$POOL_OWNER_PORT]}" 2>/dev/null || true
unset "PID_OF[$POOL_OWNER_PORT]"

for i in 0 1 2 3; do
  p="${SURVIVORS[$((i % 2))]}"
  R4="$(admit "$p" $((10 + i)) | head -n 1)"
  jq -e '.admitted == false and .reason == "budget_exhausted"' <<<"$R4" >/dev/null \
    || { echo "FAIL: with the pool owner dead, survivor :$p answered $R4, want budget_exhausted"; exit 1; }
done
echo "   pool owner dead; both survivors refuse the tenant at once (budget_exhausted), no second pool"

echo "== restarting the owner from $DATA_DIR/$POOL_OWNER_PORT =="
start_replica "$POOL_OWNER_PORT" "$LOG_DIR/$POOL_OWNER_PORT.restart.log"
wait_healthy "$POOL_OWNER_PORT"

# The restarted owner's pool must be the pre-crash one (it came back from
# snapshot+WAL, not from the config default).
LEVEL="$(pool_level "$POOL_OWNER_PORT")"
[ "$LEVEL" = "$LEVEL_BEFORE" ] \
  || { echo "FAIL: restarted owner's pool is '$LEVEL', want the pre-crash $LEVEL_BEFORE"; exit 1; }
echo "   restored: pool $LEVEL / 100000 machine-seconds"

echo
echo "OK: every admit decided on the pool owner; owner crash refused the tenant on the survivors; restart restored the pool from the WAL"

# --- one stream, whole lines -----------------------------------------------
# Stop the fleet so the files are final, then require every line of every
# stderr file (three replicas, two of them with a second file from their
# restart) to parse as one JSON object on its own.
for p in "${!PID_OF[@]}"; do kill "${PID_OF[$p]}" 2>/dev/null || true; done
wait 2>/dev/null || true
PID_OF=()
LINES=0
for log in "$LOG_DIR"/*.log; do
  jq -e -R -n '[inputs | fromjson | type == "object"] | length > 0 and all' "$log" >/dev/null \
    || { echo "FAIL: $(basename "$log") holds a line that is not one complete JSON object"; exit 1; }
  LINES=$((LINES + $(wc -l < "$log")))
done
echo
echo "OK: all $LINES log lines across $(ls "$LOG_DIR"/*.log | wc -l) stderr files are complete JSON objects"
