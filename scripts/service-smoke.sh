#!/usr/bin/env bash
# End-to-end smoke test of the corrd service subsystem (run by CI):
#
#   1. start corrd on its state directory (-wal-dir: the log, and the
#      snapshots beside it)
#   2. drive it with corrgen -target (chunked HTTP ingest)
#   3. query, scrape /v1/stats and /metrics
#   4. SIGTERM (graceful shutdown writes a final snapshot)
#   5. restart from the snapshot and prove the answer is identical, and
#      bootstrap a second daemon from a copy of the snapshot alone
#   6. site -> coordinator log forwarding: kill -9 the site, then the
#      coordinator, mid-forward; the coordinator ends up holding every
#      acknowledged tuple once, its /v1/summary byte-identical to the site's
#   7. WAL crash-exactness: kill -9 a daemon mid-ingest and
#      prove the restarted /v1/summary is byte-identical to a
#      crash-free oracle run over the same acknowledged batches
#   8. streaming ingest: corrgen -stream clients and an HTTP generator
#      against one daemon, kill -9 mid-stream, prove whole-frame
#      recovery and byte-identical successive recoveries
#   9. multi-tenant crash-exactness: concurrent keyed namespaces over
#      one WAL, kill -9 mid-ingest, prove every tenant's recovered
#      summary is byte-identical to its own crash-free oracle, and
#      that the tenant-count governance cap refuses a new namespace
#  10. observability: stage tracing, access log, request IDs, pprof
#  11. standby failover: a -standby daemon in the primary's -push-to
#      takes its log as forwards, the primary is kill -9ed mid-ingest,
#      the standby is promoted via POST /v1/promote, and its summary is
#      byte-identical to a crash-free oracle over the prefix its mark
#      for the primary names
#  12. fault drill: injected ENOSPC, degraded mode, operator recovery
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:17070"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SNAP="$WORK/corrd-wal/snapshot"
LOG="$WORK/corrd.log"
N=200000
CUTOFF=500000

cleanup() {
  [ -n "${CORRD_PID:-}" ] && kill "$CORRD_PID" 2>/dev/null || true
  [ -n "${SITE_PID:-}" ] && kill "$SITE_PID" 2>/dev/null || true
  [ -n "${FCOORD_PID:-}" ] && kill "$FCOORD_PID" 2>/dev/null || true
  [ -n "${WAL_PID:-}" ] && kill -9 "$WAL_PID" 2>/dev/null || true
  [ -n "${REPL_PID:-}" ] && kill "$REPL_PID" 2>/dev/null || true
  [ -n "${ORACLE_PID:-}" ] && kill "$ORACLE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/corrd" ./cmd/corrd
go build -o "$WORK/corrgen" ./cmd/corrgen

start_corrd() {
  "$WORK/corrd" -addr "$ADDR" -agg f2 -eps 0.15 -delta 0.1 \
    -ymax 1000000 -maxn 1048576 -maxx 500001 -seed 42 -shards 2 \
    -snapshot-interval 5s -wal-dir "$WORK/corrd-wal" >>"$LOG" 2>&1 &
  CORRD_PID=$!
  for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "corrd did not become healthy; log:" >&2
  cat "$LOG" >&2
  exit 1
}

echo "== start corrd"
start_corrd

echo "== drive with corrgen -target"
"$WORK/corrgen" -dataset zipf1 -n "$N" -seed 7 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk 8192

echo "== text-format ingest (curl path)"
printf '1,2\n3,4,2\n' | curl -fsS -X POST -H 'Content-Type: text/csv' \
  --data-binary @- "$BASE/v1/ingest" >/dev/null

echo "== stats + query + metrics"
STATS=$(curl -fsS "$BASE/v1/stats")
echo "$STATS"
COUNT=$(echo "$STATS" | grep -o '"count":[0-9]*' | cut -d: -f2)
EXPECTED=$((N + 2))
if [ "$COUNT" != "$EXPECTED" ]; then
  echo "FAIL: count $COUNT != $EXPECTED" >&2; exit 1
fi
# The memory ledger: the summaries hold something, and what they hold is
# inside what the kernel says is resident.
mem() { echo "$STATS" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2; }
echo "$STATS" | grep -q '"memory":{' || { echo "FAIL: /v1/stats has no memory object" >&2; exit 1; }
HELD=$(mem held_bytes); POOLED=$(mem pooled_bytes); HEADERS=$(mem header_bytes); RSS=$(mem vm_rss_bytes)
if [ "${HELD:-0}" -le 0 ] || [ $((HELD + POOLED + HEADERS)) -gt "${RSS:-0}" ]; then
  echo "FAIL: memory ledger: held $HELD + pooled $POOLED + headers $HEADERS against VmRSS $RSS" >&2; exit 1
fi
echo "memory: held $HELD + pooled $POOLED + headers $HEADERS of VmRSS $RSS"
Q1=$(curl -fsS "$BASE/v1/query?op=le&c=$CUTOFF")
echo "query: $Q1"
# Fetch the exposition once, then grep the buffer: grep -q on a live
# curl pipe exits at first match and EPIPEs curl into a false failure.
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -E 'corrd_tuples_ingested_total|corrd_snapshot' | head -6
echo "$METRICS" | grep -q "corrd_tuples_ingested_total $EXPECTED" \
  || { echo "FAIL: ingest metric missing" >&2; exit 1; }

echo "== SIGTERM (graceful: flush + final snapshot)"
kill -TERM "$CORRD_PID"
wait "$CORRD_PID" || { echo "FAIL: corrd exited non-zero; log:" >&2; cat "$LOG" >&2; exit 1; }
CORRD_PID=""
[ -s "$SNAP" ] || { echo "FAIL: no snapshot written" >&2; exit 1; }

echo "== restart from snapshot, re-query"
start_corrd
grep -q "restored state" "$LOG" || { echo "FAIL: restart did not restore" >&2; exit 1; }
Q2=$(curl -fsS "$BASE/v1/query?op=le&c=$CUTOFF")
echo "query after restart: $Q2"
if [ "$(echo "$Q1" | grep -o '"estimate":[^}]*')" != "$(echo "$Q2" | grep -o '"estimate":[^}]*')" ]; then
  echo "FAIL: answers differ across restart: $Q1 vs $Q2" >&2; exit 1
fi
COUNT2=$(curl -fsS "$BASE/v1/stats" | grep -o '"count":[0-9]*' | cut -d: -f2)
if [ "$COUNT2" != "$EXPECTED" ]; then
  echo "FAIL: restored count $COUNT2 != $EXPECTED" >&2; exit 1
fi

kill -TERM "$CORRD_PID"; wait "$CORRD_PID" || true
CORRD_PID=""

echo "== bootstrap a daemon from a copy of the snapshot"
# The snapshot alone, copied into an empty -wal-dir — never site-id,
# which would make the copy forward under the original's id.
mkdir "$WORK/boot-wal"
cp "$SNAP" "$WORK/boot-wal/snapshot"
if "$WORK/corrd" -addr "$ADDR" -snapshot "$SNAP" -wal-dir "$WORK/boot-wal" >"$WORK/snapshot-flag.txt" 2>&1; then
  echo "FAIL: corrd started with the removed -snapshot flag" >&2; exit 1
fi
grep -q 'flag provided but not defined: -snapshot' "$WORK/snapshot-flag.txt" \
  || { echo "FAIL: a -snapshot start did not name the unknown flag" >&2; cat "$WORK/snapshot-flag.txt" >&2; exit 1; }
"$WORK/corrd" -addr "$ADDR" -agg f2 -eps 0.15 -delta 0.1 \
  -ymax 1000000 -maxn 1048576 -maxx 500001 -seed 42 \
  -wal-dir "$WORK/boot-wal" >>"$LOG" 2>&1 &
CORRD_PID=$!
for _ in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
Q3=$(curl -fsS "$BASE/v1/query?op=le&c=$CUTOFF")
if [ "$(echo "$Q1" | grep -o '"estimate":[^}]*')" != "$(echo "$Q3" | grep -o '"estimate":[^}]*')" ]; then
  echo "FAIL: the bootstrapped daemon answers differently: $Q1 vs $Q3" >&2; exit 1
fi
echo "bootstrapped from a copy of the snapshot: $Q3"
kill -TERM "$CORRD_PID"; wait "$CORRD_PID" || true
CORRD_PID=""

echo "== site -> coordinator log forwarding (kill -9 the site, then the coordinator, mid-forward)"
# A site forwards every record of its WAL to the coordinator, which applies
# each exactly once: after either side is killed mid-forward and restarted,
# the coordinator holds every tuple the site acknowledged, once, in a
# summary byte-identical to the site's.
SITE_ADDR="127.0.0.1:17071"; SITE="http://$SITE_ADDR"
FCOORD_ADDR="127.0.0.1:17072"; FCOORD="http://$FCOORD_ADDR"
FWD_FLAGS=(-agg f2 -eps 0.15 -delta 0.1 -ymax 1000000 -maxn 1048576 -maxx 500001 \
  -seed 42 -wal-fsync always -snapshot-interval 1s)
wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: $1 did not become healthy; log:" >&2; cat "$LOG" >&2; exit 1
}
start_fcoord() {
  "$WORK/corrd" -addr "$FCOORD_ADDR" "${FWD_FLAGS[@]}" \
    -wal-dir "$WORK/fcoord-wal" >>"$LOG" 2>&1 &
  FCOORD_PID=$!
  wait_healthy "$FCOORD"
}
start_site() {
  "$WORK/corrd" -addr "$SITE_ADDR" "${FWD_FLAGS[@]}" -push-to "$FCOORD" \
    -wal-dir "$WORK/site-wal" >>"$LOG" 2>&1 &
  SITE_PID=$!
  wait_healthy "$SITE"
}
count_of() { curl -fsS "$1/v1/stats" 2>/dev/null | grep -o '"count":[0-9]*' | head -1 | cut -d: -f2; }
# until_count URL MIN: wait until URL holds at least MIN tuples.
until_count() {
  for _ in $(seq 1 600); do
    [ "$(count_of "$1" || echo 0)" -ge "$2" ] 2>/dev/null && return 0
    sleep 0.05
  done
  echo "FAIL: $1 never reached $2 tuples (holds $(count_of "$1" || echo '?'))" >&2; cat "$LOG" >&2; exit 1
}
start_fcoord
start_site

"$WORK/corrgen" -dataset uniform -n 100000 -seed 9 -xdom 100001 -ydom 1000001 \
  -target "$SITE" -chunk 512 >/dev/null 2>&1 &
GEN_PID=$!
until_count "$FCOORD" 10000
kill -9 "$SITE_PID"; wait "$SITE_PID" 2>/dev/null || true
SITE_PID=""
wait "$GEN_PID" 2>/dev/null || true # refused from the kill on
echo "site killed with $(count_of "$FCOORD") tuples on the coordinator"
start_site
ACKED=$(count_of "$SITE")

"$WORK/corrgen" -dataset uniform -n 100000 -seed 10 -xdom 100001 -ydom 1000001 \
  -target "$SITE" -chunk 512 >/dev/null &
GEN_PID=$!
until_count "$FCOORD" $((ACKED + 10000))
kill -9 "$FCOORD_PID"; wait "$FCOORD_PID" 2>/dev/null || true
wait "$GEN_PID" || { echo "FAIL: the site refused ingest while its coordinator was down" >&2; exit 1; }
# More while the coordinator is down, so its restart has records to apply.
"$WORK/corrgen" -dataset uniform -n 20000 -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$SITE" -chunk 512 >/dev/null
ACKED=$((ACKED + 120000))
echo "coordinator killed mid-forward; the site acknowledged $(count_of "$SITE") tuples meanwhile"
start_fcoord
until_count "$FCOORD" "$ACKED"
sleep 1 # a duplicate applied late would show here
SITE_COUNT=$(count_of "$SITE"); FCOUNT=$(count_of "$FCOORD")
if [ "$SITE_COUNT" != "$ACKED" ] || [ "$FCOUNT" != "$ACKED" ]; then
  echo "FAIL: acked $ACKED tuples; the site holds $SITE_COUNT, the coordinator $FCOUNT" >&2; exit 1
fi
curl -fsS "$SITE/v1/summary" -o "$WORK/site.summary"
curl -fsS "$FCOORD/v1/summary" -o "$WORK/fcoord.summary"
cmp "$WORK/site.summary" "$WORK/fcoord.summary" \
  || { echo "FAIL: the coordinator's summary is not the site's" >&2; exit 1; }
curl -fsS "$FCOORD/metrics" -o "$WORK/metrics.txt"
grep -q 'corrd_forwards_total{result="applied"} [1-9]' "$WORK/metrics.txt" \
  || { echo "FAIL: forward metric missing" >&2; exit 1; }
# State enters a tenant only as tuples: POST /v1/push is not routed.
PUSH_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary x "$FCOORD/v1/push")
[ "$PUSH_CODE" = 404 ] \
  || { echo "FAIL: POST /v1/push answered $PUSH_CODE, want 404 (not routed)" >&2; exit 1; }
curl -fsS "$SITE/metrics" -o "$WORK/metrics.txt"
grep -q 'corrd_site_forwards_total{result="sent"} [1-9]' "$WORK/metrics.txt" \
  || { echo "FAIL: site forward metric missing" >&2; exit 1; }
echo "coordinator holds the site's $ACKED acknowledged tuples once, byte-identical"
kill -TERM "$SITE_PID"; wait "$SITE_PID" || { echo "FAIL: site exited non-zero" >&2; cat "$LOG" >&2; exit 1; }
SITE_PID=""
kill -TERM "$FCOORD_PID"; wait "$FCOORD_PID" || true
FCOORD_PID=""

echo "== WAL crash-exact recovery (kill -9 mid-ingest, -wal-fsync=always)"
# A daemon with a WAL (-shards 2 is passed on purpose: the flag is
# accepted and ignored); the snapshot ticker runs so the restart
# exercises restore-snapshot-then-replay-suffix.
WAL_ADDR="127.0.0.1:17074"; WBASE="http://$WAL_ADDR"
ORACLE_ADDR="127.0.0.1:17075"; OBASE="http://$ORACLE_ADDR"
WAL_N=200000
SUMMARY_FLAGS=(-agg f2 -eps 0.15 -delta 0.1 -ymax 1000000 -maxn 1048576 \
  -maxx 500001 -seed 42 -shards 2)

start_wal_corrd() { # $1 addr, $2 name (state dirs keyed off it), extra flags in "${@:3}"
  "$WORK/corrd" -addr "$1" "${SUMMARY_FLAGS[@]}" \
    -snapshot-interval 2s \
    -wal-dir "$WORK/$2-wal" -wal-fsync always "${@:3}" >>"$LOG" 2>&1 &
  for _ in $(seq 1 50); do
    if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "corrd ($2) did not become healthy; log:" >&2; cat "$LOG" >&2; exit 1
}

start_wal_corrd "$WAL_ADDR" "walcrash"
WAL_PID=$!

# Drive ingest in the background and SIGKILL the daemon mid-stream: no
# graceful shutdown, no final snapshot — durability rides on the WAL.
"$WORK/corrgen" -dataset uniform -n "$WAL_N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$WBASE" -chunk 2048 >/dev/null 2>&1 &
GEN_PID=$!
for _ in $(seq 1 100); do
  INGESTED=$(curl -fsS "$WBASE/v1/stats" 2>/dev/null | grep -o '"count":[0-9]*' | cut -d: -f2 || echo 0)
  [ "${INGESTED:-0}" -ge 20000 ] && break
  sleep 0.1
done
kill -9 "$WAL_PID"
wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
wait "$GEN_PID" 2>/dev/null || true  # the generator dies with the connection

start_wal_corrd "$WAL_ADDR" "walcrash"
WAL_PID=$!
grep -q "wal: replayed" "$LOG" || { echo "FAIL: restart did not replay the WAL" >&2; cat "$LOG" >&2; exit 1; }
M=$(curl -fsS "$WBASE/v1/stats" | grep -o '"count":[0-9]*' | cut -d: -f2)
if [ "$M" -lt 20000 ]; then
  echo "FAIL: recovered count $M lost acknowledged ingest" >&2; exit 1
fi
if [ $((M % 2048)) -ne 0 ] && [ "$M" -ne "$WAL_N" ]; then
  echo "FAIL: recovered count $M is not a whole number of acknowledged chunks" >&2; exit 1
fi
echo "recovered $M acknowledged tuples after kill -9"

# Crash-free oracle: same configuration, the same acknowledged prefix of
# the same deterministic stream (corrgen is sequential, so -n M is the
# prefix), the same chunking — its summary must match byte for byte.
start_wal_corrd "$ORACLE_ADDR" "oracle"
ORACLE_PID=$!
"$WORK/corrgen" -dataset uniform -n "$M" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$OBASE" -chunk 2048
curl -fsS -o "$WORK/recovered.summary" "$WBASE/v1/summary"
curl -fsS -o "$WORK/oracle.summary" "$OBASE/v1/summary"
if ! cmp -s "$WORK/recovered.summary" "$WORK/oracle.summary"; then
  echo "FAIL: recovered /v1/summary differs from crash-free oracle" >&2
  ls -l "$WORK/recovered.summary" "$WORK/oracle.summary" >&2
  exit 1
fi
echo "recovered summary is byte-identical to the crash-free oracle ($(wc -c <"$WORK/recovered.summary") bytes)"

# The recovered daemon keeps serving durable ingest, and the WAL shows
# up in the exposition.
printf '5,7\n' | curl -fsS -X POST -H 'Content-Type: text/csv' \
  --data-binary @- "$WBASE/v1/ingest" >/dev/null
curl -fsS "$WBASE/metrics" -o "$WORK/wal-metrics.txt"
grep -q 'corrd_wal_segments' "$WORK/wal-metrics.txt" \
  || { echo "FAIL: WAL metrics missing" >&2; exit 1; }
curl -fsS "$WBASE/v1/stats" -o "$WORK/wal-stats.json"
LAST_LSN=$(grep -o '"wal_last_lsn":[0-9]*' "$WORK/wal-stats.json" | cut -d: -f2)
[ "${LAST_LSN:-0}" -gt 0 ] || { echo "FAIL: stats report no wal_last_lsn" >&2; exit 1; }

kill -TERM "$ORACLE_PID"; wait "$ORACLE_PID" || true
ORACLE_PID=""
kill -TERM "$WAL_PID"; wait "$WAL_PID" || true
WAL_PID=""

echo "== WAL crash-exact recovery under concurrency (8 ingesters, kill -9, group commit)"
# Eight concurrent generators drive the commit pipeline into real groups
# (one fsync per group, not per request), then the daemon dies mid-load.
# With concurrent clients no external oracle can know which requests
# landed in which group, so exactness is checked structurally: every
# acknowledged request is a whole 2048-tuple chunk (count divides), and
# two successive recoveries of the same log must produce byte-identical
# /v1/summary images — replay of the group records is deterministic.
CONC_ADDR="127.0.0.1:17076"; CBASE="http://$CONC_ADDR"
start_wal_corrd "$CONC_ADDR" "walconc"
WAL_PID=$!
GEN_PIDS=()
for i in $(seq 1 8); do
  "$WORK/corrgen" -dataset uniform -n 200000 -seed $((20 + i)) -xdom 100001 \
    -ydom 1000001 -target "$CBASE" -chunk 2048 >/dev/null 2>&1 &
  GEN_PIDS+=($!)
done
for _ in $(seq 1 100); do
  CINGESTED=$(curl -fsS "$CBASE/v1/stats" 2>/dev/null | grep -o '"count":[0-9]*' | cut -d: -f2 || echo 0)
  [ "${CINGESTED:-0}" -ge 30000 ] && break
  sleep 0.1
done
kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
for pid in "${GEN_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done

start_wal_corrd "$CONC_ADDR" "walconc"
WAL_PID=$!
CM=$(curl -fsS "$CBASE/v1/stats" | grep -o '"count":[0-9]*' | cut -d: -f2)
if [ "$CM" -lt 30000 ]; then
  echo "FAIL: concurrent recovery count $CM lost acknowledged ingest" >&2; exit 1
fi
if [ $((CM % 2048)) -ne 0 ]; then
  echo "FAIL: concurrent recovery count $CM is not a whole number of acknowledged chunks" >&2; exit 1
fi
# Buffer the exposition before grepping (same EPIPE-under-pipefail
# avoidance as the metrics checks above).
curl -fsS "$CBASE/metrics" -o "$WORK/conc-metrics.txt"
REPLAYED=$(awk '/^corrd_wal_replay_records /{print $2}' "$WORK/conc-metrics.txt")
echo "recovered $CM acknowledged tuples from $REPLAYED replayed records after concurrent kill -9"
curl -fsS -o "$WORK/conc1.summary" "$CBASE/v1/summary"
kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""

start_wal_corrd "$CONC_ADDR" "walconc"
WAL_PID=$!
curl -fsS -o "$WORK/conc2.summary" "$CBASE/v1/summary"
if ! cmp -s "$WORK/conc1.summary" "$WORK/conc2.summary"; then
  echo "FAIL: two recoveries of the same concurrent-ingest log diverged" >&2
  ls -l "$WORK/conc1.summary" "$WORK/conc2.summary" >&2
  exit 1
fi
echo "two successive recoveries are byte-identical ($(wc -c <"$WORK/conc1.summary") bytes)"
kill -TERM "$WAL_PID"; wait "$WAL_PID" || true
WAL_PID=""

echo "== streaming ingest crash-exactness (corrgen -stream + HTTP, kill -9 mid-stream)"
# Mixed transports against one durable daemon: four corrgen clients pump
# the persistent length-framed transport while an HTTP generator runs
# alongside, then the daemon dies mid-stream. Every acknowledged unit —
# HTTP chunk or stream frame — is exactly 2048 tuples, so the recovered
# count must divide by 2048, and two successive recoveries of the same
# log must produce byte-identical summaries (streamed frames ride the
# same group-commit WAL records as HTTP batches).
STRM_ADDR="127.0.0.1:17077"; SBASE="http://$STRM_ADDR"
STRM_INGEST="127.0.0.1:17078"
STRM_N=204800   # 4 clients x 25 frames x 2048 tuples
start_wal_corrd "$STRM_ADDR" "walstream" -stream-addr "$STRM_INGEST"
WAL_PID=$!
"$WORK/corrgen" -dataset uniform -n "$STRM_N" -seed 31 -xdom 100001 -ydom 1000001 \
  -target "$SBASE" -stream "$STRM_INGEST" -chunk 2048 -clients 4 >/dev/null 2>&1 &
STRM_GEN=$!
"$WORK/corrgen" -dataset uniform -n 65536 -seed 32 -xdom 100001 -ydom 1000001 \
  -target "$SBASE" -chunk 2048 >/dev/null 2>&1 &
HTTP_GEN=$!
for _ in $(seq 1 100); do
  SINGESTED=$(curl -fsS "$SBASE/v1/stats" 2>/dev/null | grep -o '"count":[0-9]*' | cut -d: -f2 || echo 0)
  [ "${SINGESTED:-0}" -ge 30000 ] && break
  sleep 0.1
done
kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
for pid in "$STRM_GEN" "$HTTP_GEN"; do kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done

start_wal_corrd "$STRM_ADDR" "walstream" -stream-addr "$STRM_INGEST"
WAL_PID=$!
SM=$(curl -fsS "$SBASE/v1/stats" | grep -o '"count":[0-9]*' | cut -d: -f2)
if [ "$SM" -lt 30000 ]; then
  echo "FAIL: stream recovery count $SM lost acknowledged ingest" >&2; exit 1
fi
if [ $((SM % 2048)) -ne 0 ]; then
  echo "FAIL: stream recovery count $SM is not a whole number of acknowledged frames/chunks" >&2; exit 1
fi
echo "recovered $SM acknowledged tuples after kill -9 mid-stream"
# The recovered daemon still serves the streaming transport.
"$WORK/corrgen" -dataset uniform -n 2048 -seed 33 -xdom 100001 -ydom 1000001 \
  -target "$SBASE" -stream "$STRM_INGEST" -chunk 2048 -clients 1 >/dev/null
curl -fsS "$SBASE/metrics" -o "$WORK/stream-metrics.txt"
grep -q 'corrd_stream_tuples_total 2048' "$WORK/stream-metrics.txt" \
  || { echo "FAIL: stream metrics missing after recovery" >&2; exit 1; }
curl -fsS -o "$WORK/stream1.summary" "$SBASE/v1/summary"
kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""

start_wal_corrd "$STRM_ADDR" "walstream"
WAL_PID=$!
curl -fsS -o "$WORK/stream2.summary" "$SBASE/v1/summary"
if ! cmp -s "$WORK/stream1.summary" "$WORK/stream2.summary"; then
  echo "FAIL: two recoveries of the mixed HTTP+stream log diverged" >&2
  ls -l "$WORK/stream1.summary" "$WORK/stream2.summary" >&2
  exit 1
fi
echo "two successive recoveries of the mixed-transport log are byte-identical ($(wc -c <"$WORK/stream1.summary") bytes)"
kill -TERM "$WAL_PID"; wait "$WAL_PID" || true
WAL_PID=""

echo "== multi-tenant crash-exact recovery (4 keyed namespaces, kill -9)"
# Four concurrent generators, one per keyed namespace (?tenant=tNNN),
# all sharing one WAL. Within a tenant ingest is sequential (one awaited
# request at a time), so each tenant's acknowledged prefix is a
# deterministic chunk sequence: a crash-free oracle daemon driven with
# the same per-tenant prefix must match byte for byte — per tenant.
MT_ADDR="127.0.0.1:17079"; MBASE="http://$MT_ADDR"
MTO_ADDR="127.0.0.1:17080"; MOBASE="http://$MTO_ADDR"
MT_TENANTS=4
start_wal_corrd "$MT_ADDR" "walmt" -max-tenants $((MT_TENANTS + 1))
WAL_PID=$!
GEN_PIDS=()
for t in $(seq 0 $((MT_TENANTS - 1))); do
  "$WORK/corrgen" -dataset uniform -n 200000 -seed $((41 + t)) -xdom 100001 \
    -ydom 1000001 -target "$MBASE" -tenant "$(printf 't%03d' "$t")" \
    -chunk 2048 >/dev/null 2>&1 &
  GEN_PIDS+=($!)
done
# Wait until the slowest tenant has several acknowledged chunks, so the
# kill lands mid-ingest for every namespace.
for _ in $(seq 1 200); do
  MT_MIN=999999999
  for t in $(seq 0 $((MT_TENANTS - 1))); do
    TC=$(curl -fsS "$MBASE/v1/stats?tenant=$(printf 't%03d' "$t")" 2>/dev/null \
      | grep -o '"count":[0-9]*' | cut -d: -f2 || echo 0)
    [ "${TC:-0}" -lt "$MT_MIN" ] && MT_MIN=${TC:-0}
  done
  [ "$MT_MIN" -ge 8192 ] && break
  sleep 0.1
done
kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
for pid in "${GEN_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done

start_wal_corrd "$MT_ADDR" "walmt" -max-tenants $((MT_TENANTS + 1))
WAL_PID=$!
MT_SEEN=$(curl -fsS "$MBASE/v1/stats" | grep -o '"tenants":[0-9]*' | cut -d: -f2)
if [ "$MT_SEEN" != "$((MT_TENANTS + 1))" ]; then
  echo "FAIL: recovery registered $MT_SEEN tenants, want $((MT_TENANTS + 1)) (default included)" >&2; exit 1
fi
start_wal_corrd "$MTO_ADDR" "mtoracle"
ORACLE_PID=$!
for t in $(seq 0 $((MT_TENANTS - 1))); do
  NAME=$(printf 't%03d' "$t")
  TM=$(curl -fsS "$MBASE/v1/stats?tenant=$NAME" | grep -o '"count":[0-9]*' | cut -d: -f2)
  if [ "${TM:-0}" -lt 8192 ] || [ $((TM % 2048)) -ne 0 ]; then
    echo "FAIL: tenant $NAME recovered count ${TM:-0} is not a whole chunk sequence" >&2; exit 1
  fi
  "$WORK/corrgen" -dataset uniform -n "$TM" -seed $((41 + t)) -xdom 100001 \
    -ydom 1000001 -target "$MOBASE" -tenant "$NAME" -chunk 2048
  curl -fsS -o "$WORK/mt-$NAME.rec" "$MBASE/v1/summary?tenant=$NAME"
  curl -fsS -o "$WORK/mt-$NAME.ora" "$MOBASE/v1/summary?tenant=$NAME"
  if ! cmp -s "$WORK/mt-$NAME.rec" "$WORK/mt-$NAME.ora"; then
    echo "FAIL: tenant $NAME recovered summary differs from its crash-free oracle" >&2
    ls -l "$WORK/mt-$NAME.rec" "$WORK/mt-$NAME.ora" >&2; exit 1
  fi
  echo "tenant $NAME: $TM tuples recovered, summary byte-identical to its oracle"
done
# The recovered registry sits exactly at the -max-tenants cap, so a new
# namespace must be refused with 429 (and counted) while existing
# tenants keep serving.
MT_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: text/csv' \
  --data-binary '1,2' "$MBASE/v1/ingest?tenant=overcap")
[ "$MT_CODE" = "429" ] || { echo "FAIL: over-cap tenant got $MT_CODE, want 429" >&2; exit 1; }
curl -fsS "$MBASE/metrics" -o "$WORK/mt-metrics.txt"
grep -q "corrd_tenants $((MT_TENANTS + 1))" "$WORK/mt-metrics.txt" \
  || { echo "FAIL: corrd_tenants gauge missing/wrong" >&2; exit 1; }
grep -q 'corrd_tenant_rejected_total{reason="limit"} 1' "$WORK/mt-metrics.txt" \
  || { echo "FAIL: tenant rejection not counted" >&2; exit 1; }
echo "over-cap namespace refused with 429; all $MT_TENANTS tenants crash-exact"
kill -TERM "$ORACLE_PID"; wait "$ORACLE_PID" || true
ORACLE_PID=""
kill -TERM "$WAL_PID"; wait "$WAL_PID" || true
WAL_PID=""

echo "== observability: stage tracing, access log, request IDs, debug surface"
# A WAL daemon with the access log, a 1ns slow-request threshold (so
# every request promotes), and the pprof listener; ingest through it and
# assert the whole observability surface end to end.
OBS_ADDR="127.0.0.1:17081"; OBSBASE="http://$OBS_ADDR"
OBS_DEBUG="127.0.0.1:17082"
ACCESS_LOG="$WORK/access.log"
start_wal_corrd "$OBS_ADDR" "walobs" \
  -access-log "$ACCESS_LOG" -slow-request 1ns -debug-addr "$OBS_DEBUG"
WAL_PID=$!
"$WORK/corrgen" -dataset uniform -n 20000 -seed 51 -xdom 100001 -ydom 1000001 \
  -target "$OBSBASE" -chunk 2048 -clients 4 >/dev/null 2>&1

# X-Request-ID round trip: supplied IDs are echoed on the response and
# land in the access log; requests without one get a minted ID.
RID="smoke-rid-$$"
ECHOED=$(printf '1,2\n' | curl -fsS -X POST -H 'Content-Type: text/csv' \
  -H "X-Request-ID: $RID" --data-binary @- -o /dev/null \
  -D - "$OBSBASE/v1/ingest" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ "$ECHOED" = "$RID" ] || { echo "FAIL: X-Request-ID echo: got '$ECHOED', want '$RID'" >&2; exit 1; }
MINTED=$(curl -fsS -o /dev/null -D - "$OBSBASE/v1/stats" | tr -d '\r' \
  | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ -n "$MINTED" ] || { echo "FAIL: no minted X-Request-ID on a bare request" >&2; exit 1; }
# The access-log writer drains asynchronously; poll for the ID.
for _ in $(seq 1 50); do
  grep -q "$RID" "$ACCESS_LOG" 2>/dev/null && break
  sleep 0.1
done
grep -q "\"request_id\":\"$RID\"" "$ACCESS_LOG" \
  || { echo "FAIL: supplied request ID never reached the access log" >&2; cat "$ACCESS_LOG" >&2; exit 1; }
grep -q '"transport":"http"' "$ACCESS_LOG" \
  || { echo "FAIL: access log has no HTTP records" >&2; exit 1; }
grep -q "slow request:" "$LOG" \
  || { echo "FAIL: -slow-request 1ns promoted nothing to the main log" >&2; exit 1; }

# Pipeline-stage histograms: all five stages fired under concurrent
# ingest with -wal-fsync=always, and the group-shape histograms exist.
curl -fsS "$OBSBASE/metrics" -o "$WORK/obs-metrics.txt"
for stage in enqueue apply append fsync ack; do
  SC=$(grep -F "corrd_pipeline_stage_seconds_count{stage=\"$stage\"}" "$WORK/obs-metrics.txt" | awk '{print $2}')
  if [ -z "$SC" ] || [ "$SC" -eq 0 ]; then
    echo "FAIL: pipeline stage '$stage' has no observations (got '$SC')" >&2; exit 1
  fi
done
grep -q 'corrd_ingest_group_size_bucket' "$WORK/obs-metrics.txt" \
  || { echo "FAIL: group-size histogram missing" >&2; exit 1; }
grep -q 'corrd_build_info{' "$WORK/obs-metrics.txt" \
  || { echo "FAIL: corrd_build_info missing" >&2; exit 1; }
grep -q 'corrd_go_goroutines' "$WORK/obs-metrics.txt" \
  || { echo "FAIL: runtime metrics missing" >&2; exit 1; }
# At quiescence the group-size histogram is /v1/stats' group counts: its
# _count is ingest_groups and its _sum ingest_group_requests.
curl -fsS "$OBSBASE/v1/stats" -o "$WORK/obs-stats.json"
GCOUNT=$(awk '/^corrd_ingest_group_size_count /{print $2}' "$WORK/obs-metrics.txt")
GSUM=$(awk '/^corrd_ingest_group_size_sum /{print $2}' "$WORK/obs-metrics.txt")
SGROUPS=$(grep -o '"ingest_groups":[0-9]*' "$WORK/obs-stats.json" | cut -d: -f2)
SREQS=$(grep -o '"ingest_group_requests":[0-9]*' "$WORK/obs-stats.json" | cut -d: -f2)
awk -v c="$GCOUNT" -v s="$GSUM" -v g="${SGROUPS:-0}" -v r="${SREQS:-0}" \
  'BEGIN { exit !(g > 0 && c == g && s == r) }' \
  || { echo "FAIL: corrd_ingest_group_size _count $GCOUNT / _sum $GSUM vs stats ingest_groups $SGROUPS / ingest_group_requests $SREQS" >&2; exit 1; }

# The load-report JSON carries the same stage breakdown.
"$WORK/corrgen" -dataset uniform -n 20000 -seed 52 -xdom 100001 -ydom 1000001 \
  -target "$OBSBASE" -chunk 2048 -clients 4 -load-json "$WORK/obs-load.json" >/dev/null 2>&1
grep -q '"pipeline_stages"' "$WORK/obs-load.json" \
  || { echo "FAIL: load report has no pipeline_stages" >&2; cat "$WORK/obs-load.json" >&2; exit 1; }
grep -q '"fsync"' "$WORK/obs-load.json" \
  || { echo "FAIL: load report stages missing fsync" >&2; exit 1; }

# The debug listener serves pprof; the serving address does not.
curl -fsS "http://$OBS_DEBUG/debug/pprof/cmdline" -o /dev/null \
  || { echo "FAIL: pprof not served on -debug-addr" >&2; exit 1; }
MAIN_PPROF=$(curl -s -o /dev/null -w '%{http_code}' "$OBSBASE/debug/pprof/cmdline")
[ "$MAIN_PPROF" = "404" ] || { echo "FAIL: serving address exposes pprof (HTTP $MAIN_PPROF)" >&2; exit 1; }

kill -TERM "$WAL_PID"; wait "$WAL_PID" || true
WAL_PID=""

echo "== standby failover (-standby in the primary's -push-to, kill -9, promote, byte-identity)"
# A durable primary forwards its log to a standby. A single sequential
# generator means the acknowledged prefix is deterministic, so the
# promoted standby's state must match a crash-free oracle driven with the
# prefix its mark for the primary names — byte for byte.
PRI_ADDR="127.0.0.1:17083"; PBASE="http://$PRI_ADDR"
REPL_ADDR="127.0.0.1:17085"; RBASE="http://$REPL_ADDR"
FO_ADDR="127.0.0.1:17086"; FOBASE="http://$FO_ADDR"
ADMIN_TOKEN="smoke-admin-$$"
# -standby makes a standby; a command line that still passes the removed
# -primary flag fails at start-up and names it.
if "$WORK/corrd" -primary "$PRI_ADDR" >"$WORK/primary-flag.txt" 2>&1; then
  echo "FAIL: corrd started with the removed -primary flag" >&2; exit 1
fi
grep -q 'flag provided but not defined: -primary' "$WORK/primary-flag.txt" \
  || { echo "FAIL: a -primary start did not name the unknown flag" >&2; cat "$WORK/primary-flag.txt" >&2; exit 1; }
start_wal_corrd "$REPL_ADDR" "replstandby" -standby -admin-token "$ADMIN_TOKEN"
REPL_PID=$!
start_wal_corrd "$PRI_ADDR" "replpri" -push-to "$RBASE"
WAL_PID=$!

"$WORK/corrgen" -dataset uniform -n 200000 -seed 61 -xdom 100001 -ydom 1000001 \
  -target "$PBASE" -chunk 2048 >/dev/null 2>&1 &
GEN_PID=$!
# Wait until the standby holds a healthy prefix, so the kill lands
# mid-ingest.
until_count "$RBASE" 20000
# While both are live: the standby declares its role, rejects client
# writes with 503, and the primary reports what the standby confirmed.
curl -fsS "$RBASE/v1/stats" -o "$WORK/repl-stats.json"
grep -q '"role":"replica"' "$WORK/repl-stats.json" \
  || { echo "FAIL: standby stats missing role" >&2; exit 1; }
RW_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: text/csv' \
  --data-binary '1,2' "$RBASE/v1/ingest")
[ "$RW_CODE" = "503" ] || { echo "FAIL: standby accepted a write (HTTP $RW_CODE)" >&2; exit 1; }
curl -fsS "$PBASE/v1/stats" -o "$WORK/repl-pri-stats.json"
grep -q '"forward_acked_lsn":[1-9]' "$WORK/repl-pri-stats.json" \
  || { echo "FAIL: the primary reports nothing its standby confirmed" >&2; exit 1; }

kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
kill "$GEN_PID" 2>/dev/null || true; wait "$GEN_PID" 2>/dev/null || true

# Promotion is admin-gated: no token and a bad token are refused, the
# real one lifts the standby's refusal in place.
NT_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$RBASE/v1/promote")
[ "$NT_CODE" = "403" ] || { echo "FAIL: tokenless promote got $NT_CODE, want 403" >&2; exit 1; }
BT_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -H 'X-Admin-Token: wrong' "$RBASE/v1/promote")
[ "$BT_CODE" = "403" ] || { echo "FAIL: bad-token promote got $BT_CODE, want 403" >&2; exit 1; }
curl -fsS -X POST -H "X-Admin-Token: $ADMIN_TOKEN" "$RBASE/v1/promote" \
  -o "$WORK/promote.json"
grep -q '"promoted":true' "$WORK/promote.json" \
  || { echo "FAIL: promote response: $(cat "$WORK/promote.json")" >&2; exit 1; }

RM=$(count_of "$RBASE")
if [ "${RM:-0}" -lt 20000 ] || [ $((RM % 2048)) -ne 0 ]; then
  echo "FAIL: promoted count ${RM:-0} is not a whole number of acknowledged chunks" >&2; exit 1
fi
# Crash-free oracle over the prefix the standby's mark names.
start_wal_corrd "$FO_ADDR" "failover-oracle"
ORACLE_PID=$!
"$WORK/corrgen" -dataset uniform -n "$RM" -seed 61 -xdom 100001 -ydom 1000001 \
  -target "$FOBASE" -chunk 2048
curl -fsS -o "$WORK/promoted.summary" "$RBASE/v1/summary"
curl -fsS -o "$WORK/failover-oracle.summary" "$FOBASE/v1/summary"
if ! cmp -s "$WORK/promoted.summary" "$WORK/failover-oracle.summary"; then
  echo "FAIL: promoted summary differs from crash-free oracle at the same prefix" >&2
  ls -l "$WORK/promoted.summary" "$WORK/failover-oracle.summary" >&2
  exit 1
fi
echo "promoted standby is byte-identical to the crash-free oracle at $RM tuples"

# The promoted node serves writes into its own log and counts the
# promotion.
printf '9,9\n' | curl -fsS -X POST -H 'Content-Type: text/csv' \
  --data-binary @- "$RBASE/v1/ingest" >/dev/null
RM2=$(count_of "$RBASE")
[ "$RM2" = "$((RM + 1))" ] || { echo "FAIL: promoted node did not ingest ($RM2)" >&2; exit 1; }
curl -fsS "$RBASE/v1/stats" -o "$WORK/promoted-stats.json"
grep -q '"role":"coordinator"' "$WORK/promoted-stats.json" \
  || { echo "FAIL: promoted node still reports the replica role" >&2; exit 1; }
curl -fsS "$RBASE/metrics" -o "$WORK/promoted-metrics.txt"
grep -q 'corrd_replica_promotions_total 1' "$WORK/promoted-metrics.txt" \
  || { echo "FAIL: promotion not counted" >&2; exit 1; }
ls "$WORK/replstandby-wal" | grep -q '\.seg$' \
  || { echo "FAIL: the standby keeps no log of its own" >&2; exit 1; }

kill -TERM "$ORACLE_PID"; wait "$ORACLE_PID" || true
ORACLE_PID=""
kill -TERM "$REPL_PID"; wait "$REPL_PID" || true
REPL_PID=""

# --- 12. fault drill: injected ENOSPC, degraded mode, operator recovery
#
# A daemon armed with -fault-plan runs out of (injected) disk mid-
# ingest: writes start failing, the health machine trips degraded
# (writes 503 + Retry-After, /readyz not ready, reads still served,
# /healthz still 200). The operator clears the plan over POST /v1/fault,
# forces recovery with POST /v1/recover, and traffic resumes; a second
# fault (every fsync fails) is then met by ingest into a tenant of its own,
# which must fail, degrade the daemon again and leave no trace. A final
# kill -9 + restart proves the log held exactly the acknowledged
# chunks through the whole episode: the recovered summary is
# byte-identical to a crash-free oracle over acked run 1 + run 2.
FAULT_ADDR="127.0.0.1:17087"; FDBASE="http://$FAULT_ADDR"
FORC_ADDR="127.0.0.1:17088"; FORCBASE="http://$FORC_ADDR"
DRILL_TOKEN="drill-admin-$$"
# ~128 KiB of WAL writes succeed, then every write to a wal- file hits
# ENOSPC: run 1's 60 000 tuples log about 3.5 B each, so it dies partway.
# Snapshots are pushed out of the window so recovery state is purely
# snapshot-free log replay.
start_wal_corrd "$FAULT_ADDR" "faultdrill" -snapshot-interval 1h \
  -admin-token "$DRILL_TOKEN" -fault-plan "write/wal-:enospc@131072"
WAL_PID=$!
grep -q "FAULT INJECTION ARMED" "$LOG" \
  || { echo "FAIL: armed daemon did not announce its fault plan" >&2; exit 1; }

# Run 1 dies partway through the budget; the generator's error is the
# point, not a failure of the drill.
"$WORK/corrgen" -dataset uniform -n 60000 -seed 71 -xdom 100001 -ydom 1000001 \
  -target "$FDBASE" -chunk 2048 >/dev/null 2>&1 || true
# Keep poking until the failure streak trips the machine.
for _ in $(seq 1 30); do
  curl -s -o /dev/null -X POST -H 'Content-Type: text/csv' \
    --data-binary '1,2' "$FDBASE/v1/ingest" || true
  READY=$(curl -s -o /dev/null -w '%{http_code}' "$FDBASE/readyz")
  [ "$READY" = "503" ] && break
  sleep 0.1
done
[ "$READY" = "503" ] || { echo "FAIL: /readyz still $READY after sustained WAL faults" >&2; cat "$LOG" >&2; exit 1; }

# Degraded contract: writes 503 with Retry-After, stats say degraded,
# reads and liveness still fine.
curl -s -D "$WORK/degraded.hdr" -o /dev/null -X POST -H 'Content-Type: text/csv' \
  --data-binary '1,2' "$FDBASE/v1/ingest"
grep -q '^HTTP/1.1 503' "$WORK/degraded.hdr" \
  || { echo "FAIL: degraded ingest not 503: $(head -1 "$WORK/degraded.hdr")" >&2; exit 1; }
grep -qi '^Retry-After:' "$WORK/degraded.hdr" \
  || { echo "FAIL: degraded 503 carries no Retry-After" >&2; exit 1; }
curl -fsS "$FDBASE/v1/stats" -o "$WORK/degraded-stats.json"
grep -q '"health":"degraded"' "$WORK/degraded-stats.json" \
  || { echo "FAIL: stats do not report degraded" >&2; exit 1; }
curl -fsS "$FDBASE/v1/query?op=le&c=500000" >/dev/null \
  || { echo "FAIL: degraded daemon refused a read" >&2; exit 1; }
curl -fsS "$FDBASE/healthz" >/dev/null \
  || { echo "FAIL: degraded daemon failed liveness" >&2; exit 1; }

# The disk "heals": clear the plan, force recovery, readiness returns.
curl -fsS -X POST --data-binary 'off' "$FDBASE/v1/fault" >/dev/null
curl -fsS -X POST -H "X-Admin-Token: $DRILL_TOKEN" "$FDBASE/v1/recover" \
  -o "$WORK/recover.json"
grep -q '"state":"healthy"' "$WORK/recover.json" \
  || { echo "FAIL: recover response: $(cat "$WORK/recover.json")" >&2; exit 1; }
READY=$(curl -s -o /dev/null -w '%{http_code}' "$FDBASE/readyz")
[ "$READY" = "200" ] || { echo "FAIL: /readyz $READY after recovery" >&2; exit 1; }

# Fsync drill: every fsync fails, so an ingest is refused (500: not
# durable, rewound out of the log, never applied), the refusals count
# toward the failure streak, and once the machine trips the ingest is
# turned away at the gate (503). The tenant holds one acked batch first,
# so after the restart below its summary can be compared with an oracle
# that took the batch and never saw the nacked ones.
printf '1,2\n3,4,2\n' | curl -fsS -X POST -H 'Content-Type: text/csv' \
  --data-binary @- "$FDBASE/v1/ingest?tenant=fsyncdrill" >/dev/null
curl -fsS -X POST --data-binary 'sync/wal-:err@1+' "$FDBASE/v1/fault" >/dev/null
SAW_500=0; INGEST_CODE=""
for i in $(seq 1 10); do
  INGEST_CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: text/csv' \
    --data-binary "$i,$((i + 5))" "$FDBASE/v1/ingest?tenant=fsyncdrill")
  case "$INGEST_CODE" in
    500) SAW_500=1 ;;
    503) break ;;
    *) echo "FAIL: ingest under a failing fsync answered $INGEST_CODE" >&2; exit 1 ;;
  esac
done
if [ "$SAW_500" != 1 ] || [ "$INGEST_CODE" != 503 ]; then
  echo "FAIL: ingest under a failing fsync: saw_500=$SAW_500 last=$INGEST_CODE, want 500s then 503 (log failures must degrade)" >&2; exit 1
fi
curl -fsS -X POST --data-binary 'off' "$FDBASE/v1/fault" >/dev/null
curl -fsS -X POST -H "X-Admin-Token: $DRILL_TOKEN" "$FDBASE/v1/recover" \
  -o "$WORK/recover2.json"
grep -q '"state":"healthy"' "$WORK/recover2.json" \
  || { echo "FAIL: recover after the fsync drill: $(cat "$WORK/recover2.json")" >&2; exit 1; }

# Run 2 lands in full on the healed daemon.
"$WORK/corrgen" -dataset uniform -n 20000 -seed 72 -xdom 100001 -ydom 1000001 \
  -target "$FDBASE" -chunk 2048 >/dev/null

# kill -9 + clean restart: the log must hold exactly the acked chunks.
kill -9 "$WAL_PID"; wait "$WAL_PID" 2>/dev/null || true
start_wal_corrd "$FAULT_ADDR" "faultdrill" -snapshot-interval 1h
WAL_PID=$!
DM=$(curl -fsS "$FDBASE/v1/stats" | grep -o '"count":[0-9]*' | cut -d: -f2)
DM1=$((DM - 20000))
if [ "$DM1" -lt 2048 ] || [ "$DM1" -ge 60000 ] || [ $((DM1 % 2048)) -ne 0 ]; then
  echo "FAIL: recovered drill count $DM implies a non-whole acked run-1 prefix ($DM1)" >&2; exit 1
fi
start_wal_corrd "$FORC_ADDR" "faultdrill-oracle" -snapshot-interval 1h
ORACLE_PID=$!
"$WORK/corrgen" -dataset uniform -n "$DM1" -seed 71 -xdom 100001 -ydom 1000001 \
  -target "$FORCBASE" -chunk 2048 >/dev/null
"$WORK/corrgen" -dataset uniform -n 20000 -seed 72 -xdom 100001 -ydom 1000001 \
  -target "$FORCBASE" -chunk 2048 >/dev/null
printf '1,2\n3,4,2\n' | curl -fsS -X POST -H 'Content-Type: text/csv' \
  --data-binary @- "$FORCBASE/v1/ingest?tenant=fsyncdrill" >/dev/null
for T in "" "fsyncdrill"; do
  curl -fsS -o "$WORK/drill.summary" "$FDBASE/v1/summary?tenant=$T"
  curl -fsS -o "$WORK/drill-oracle.summary" "$FORCBASE/v1/summary?tenant=$T"
  if ! cmp -s "$WORK/drill.summary" "$WORK/drill-oracle.summary"; then
    echo "FAIL: post-drill summary of tenant '$T' differs from crash-free oracle (acked $DM1 + 20000; the nacked ingests must be gone)" >&2
    ls -l "$WORK/drill.summary" "$WORK/drill-oracle.summary" >&2
    exit 1
  fi
done
echo "fault drill recovered byte-identical over $DM1 + 20000 acked tuples, nacked ingests absent"
kill -9 "$WAL_PID" 2>/dev/null || true
wait "$WAL_PID" 2>/dev/null || true
WAL_PID=""
kill -TERM "$ORACLE_PID"; wait "$ORACLE_PID" || true
ORACLE_PID=""
echo "service smoke test PASSED"
