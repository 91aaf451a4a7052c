#!/usr/bin/env bash
# Service-level load benchmark: start a corrd with the WAL on
# (-wal-fsync=always — the durability configuration the group-commit
# pipeline is built for) and drive it with corrgen's concurrent load
# mode, in three phases:
#
#   ingest  8 concurrent ingest clients, no queries — the acknowledged-
#           ingest headline (fsync + drain amortization; on hardware
#           with fast fsync this phase is CPU-bound and roughly flat,
#           but fsyncs-per-request drops to the group-commit ratio).
#   mixed   the same ingest with 4 hot multi-cutoff query loops and a
#           500ms query staleness budget — the serving scenario where
#           memoized answers keep a hot query loop off the commit path
#           (the pre-group-commit server collapses here: every query
#           held the ingest lock for a full cross-shard merge).
#   stream  the same tuples over the persistent length-framed streaming
#           transport (corrd -stream-addr, corrgen -stream) next to an
#           HTTP run at the same chunking — both at wire-speed
#           granularity (small per-request batches, LOAD_STREAM_CHUNK).
#           At large chunks both transports converge on the engine-
#           apply ceiling; at fine granularity HTTP pays a request
#           round trip per handful of tuples while the framed transport
#           pipelines frames ahead of acks with pooled zero-alloc
#           decode — that gap is the wire-speed headline
#           scripts/load-compare.sh prints.
#   tenants the mixed workload fanned out over LOAD_TENANTS keyed
#           namespaces (corrgen -tenants): every chunk and query
#           carries a tenant key, the daemon keeps one engine per
#           namespace behind the shared WAL, and query clients rotate
#           across tenants — the multi-tenant serving headline (keyed
#           routing + per-tenant flush cost on top of group commit).
#   replicas the ingest workload against a primary with 0, 1, and 2
#           attached replicas tailing its WAL over the stream listener
#           (what replication shipping costs the acknowledged ingest
#           path), plus a query-only run against a replica while it
#           tails the live 2-replica ingest (corrgen -query-for) —
#           the read-scaling headline.
#
# Reports land in benchmarks/service-load-{ingest,mixed,stream,
# stream-http,tenants,replicas-0,replicas-1,replicas-2,replica-query}
# .json; promote them to the matching benchmarks/service-baseline-*
# .json to make scripts/load-compare.sh (and CI) print a before/after
# table.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${LOAD_ADDR:-127.0.0.1:17090}"
STREAM_ADDR="${LOAD_STREAM_ADDR:-127.0.0.1:17091}"
BASE="http://$ADDR"
N="${LOAD_N:-100000}"
CLIENTS="${LOAD_CLIENTS:-8}"
QUERY_CLIENTS="${LOAD_QUERY_CLIENTS:-4}"
CHUNK="${LOAD_CHUNK:-512}"
STREAM_CHUNK="${LOAD_STREAM_CHUNK:-16}"
MAX_STALE="${LOAD_QUERY_MAX_STALE:-500ms}"
TENANTS="${LOAD_TENANTS:-64}"
OUT_PREFIX="${LOAD_OUT_PREFIX:-benchmarks/service-load}"
WORK="$(mktemp -d)"

cleanup() {
  [ -n "${CORRD_PID:-}" ] && kill "$CORRD_PID" 2>/dev/null || true
  [ -n "${R1_PID:-}" ] && kill "$R1_PID" 2>/dev/null || true
  [ -n "${R2_PID:-}" ] && kill "$R2_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

mkdir -p benchmarks
go build -o "$WORK/corrd" ./cmd/corrd
go build -o "$WORK/corrgen" ./cmd/corrgen

start_corrd() { # extra corrd flags in "$@"
  rm -rf "$WORK/wal" "$WORK/corrd.snapshot"
  "$WORK/corrd" -addr "$ADDR" -agg f2 -eps 0.15 -delta 0.1 \
    -ymax 1000000 -maxn 1048576 -maxx 500001 -seed 42 -shards 2 \
    -snapshot "$WORK/corrd.snapshot" -snapshot-interval 1h \
    -wal-dir "$WORK/wal" -wal-fsync always "$@" >"$WORK/corrd.log" 2>&1 &
  CORRD_PID=$!
  for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "corrd did not start:" >&2; cat "$WORK/corrd.log" >&2; exit 1
}

stop_corrd() {
  kill -TERM "$CORRD_PID" 2>/dev/null || true
  wait "$CORRD_PID" 2>/dev/null || true
  CORRD_PID=""
}

# One read replica following the benchmark primary over $STREAM_ADDR.
# Its own (empty until promotion) WAL dir and snapshot path, keyed by
# name; the caller captures $! as the pid.
start_replica() { # $1 addr, $2 name
  rm -rf "$WORK/$2-wal" "$WORK/$2.snapshot"
  "$WORK/corrd" -addr "$1" -agg f2 -eps 0.15 -delta 0.1 \
    -ymax 1000000 -maxn 1048576 -maxx 500001 -seed 42 -shards 2 \
    -role=replica -primary "$STREAM_ADDR" \
    -snapshot "$WORK/$2.snapshot" -snapshot-interval 1h \
    -wal-dir "$WORK/$2-wal" -wal-fsync always >"$WORK/$2.log" 2>&1 &
  for _ in $(seq 1 50); do
    if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "replica $2 did not start:" >&2; cat "$WORK/$2.log" >&2; exit 1
}

echo "== phase 1: ingest-only ($CLIENTS clients, fsync=always)"
start_corrd
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$CHUNK" -clients "$CLIENTS" \
  -load-json "${OUT_PREFIX}-ingest.json"
curl -fsS "$BASE/metrics" | grep -E '^corrd_(ingest_requests_total|ingest_groups_total|wal_fsyncs_total)' || true
stop_corrd

echo "== phase 2: mixed ($CLIENTS ingest + $QUERY_CLIENTS query clients, -query-max-stale $MAX_STALE)"
# The mixed phase also runs the structured access log, so the run leaves
# a sample of real access records next to the load reports (CI uploads
# it with the bench artifacts).
start_corrd -query-max-stale "$MAX_STALE" -access-log "$WORK/access.log"
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$CHUNK" -clients "$CLIENTS" \
  -query-clients "$QUERY_CLIENTS" -query-cutoffs 250000,500000,750000 \
  -load-json "${OUT_PREFIX}-mixed.json"
curl -fsS "$BASE/metrics" | grep -E '^corrd_(ingest_requests_total|ingest_groups_total|wal_fsyncs_total|query_cache_(hits|rebuilds)_total|pipeline_stage_seconds_count)' || true
stop_corrd
head -n 200 "$WORK/access.log" > "${OUT_PREFIX}-access.log" 2>/dev/null || true

echo "== phase 3: stream vs HTTP at wire-speed granularity ($CLIENTS clients, $STREAM_CHUNK-tuple batches, fsync=always)"
start_corrd -stream-addr "$STREAM_ADDR"
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$STREAM_CHUNK" -clients "$CLIENTS" \
  -load-json "${OUT_PREFIX}-stream-http.json"
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -stream "$STREAM_ADDR" -chunk "$STREAM_CHUNK" -clients "$CLIENTS" \
  -load-json "${OUT_PREFIX}-stream.json"
curl -fsS "$BASE/metrics" | grep -E '^corrd_(stream_(conns_total|frames_total|tuples_total)|ingest_groups_total|wal_fsyncs_total)' || true
stop_corrd

echo "== phase 4: multi-tenant mixed load ($TENANTS tenants over $CLIENTS clients + $QUERY_CLIENTS query clients)"
start_corrd -query-max-stale "$MAX_STALE" -max-tenants $((TENANTS + 8))
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$CHUNK" -clients "$CLIENTS" -tenants "$TENANTS" \
  -query-clients "$QUERY_CLIENTS" -query-cutoffs 250000,500000,750000 \
  -load-json "${OUT_PREFIX}-tenants.json"
curl -fsS "$BASE/metrics" | grep -E '^corrd_(tenants|tenant_bytes|tenant_created_total|ingest_groups_total|wal_fsyncs_total)' || true
stop_corrd

echo "== phase 5: replication (ingest with 0/1/2 attached replicas + replica reads)"
# Each run restarts the primary fresh (same wiped WAL and snapshot) so
# the three ingest numbers differ only in how many followers tail the
# log. The replica-query run rides the 2-replica phase: a query-only
# corrgen (-query-for) hammers replica 1 while it applies the live
# ingest — read throughput on a node that is simultaneously replaying.
R1_ADDR="${LOAD_REPLICA1_ADDR:-127.0.0.1:17092}"
R2_ADDR="${LOAD_REPLICA2_ADDR:-127.0.0.1:17093}"
QUERY_FOR="${LOAD_REPLICA_QUERY_FOR:-5s}"

start_corrd -stream-addr "$STREAM_ADDR"
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$CHUNK" -clients "$CLIENTS" \
  -load-json "${OUT_PREFIX}-replicas-0.json"
stop_corrd

start_corrd -stream-addr "$STREAM_ADDR"
start_replica "$R1_ADDR" replica1
R1_PID=$!
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$CHUNK" -clients "$CLIENTS" \
  -load-json "${OUT_PREFIX}-replicas-1.json"
kill -TERM "$R1_PID" 2>/dev/null || true; wait "$R1_PID" 2>/dev/null || true
R1_PID=""
stop_corrd

start_corrd -stream-addr "$STREAM_ADDR"
start_replica "$R1_ADDR" replica1
R1_PID=$!
start_replica "$R2_ADDR" replica2
R2_PID=$!
"$WORK/corrgen" -dataset uniform -n "$N" -seed 11 -xdom 100001 -ydom 1000001 \
  -target "$BASE" -chunk "$CHUNK" -clients "$CLIENTS" \
  -load-json "${OUT_PREFIX}-replicas-2.json" &
INGEST_PID=$!
"$WORK/corrgen" -target "http://$R1_ADDR" -n 0 \
  -query-clients "$QUERY_CLIENTS" -query-cutoffs 250000,500000,750000 \
  -query-for "$QUERY_FOR" -load-json "${OUT_PREFIX}-replica-query.json"
wait "$INGEST_PID"
curl -fsS "$BASE/metrics" | grep -E '^corrd_replica_(conns|records_sent_total|heartbeats_sent_total)' || true
curl -fsS "http://$R1_ADDR/metrics" | grep -E '^corrd_replica_(records_applied_total|applied_lsn|lag_records)' || true
kill -TERM "$R1_PID" 2>/dev/null || true; wait "$R1_PID" 2>/dev/null || true
R1_PID=""
kill -TERM "$R2_PID" 2>/dev/null || true; wait "$R2_PID" 2>/dev/null || true
R2_PID=""
stop_corrd

echo "Wrote ${OUT_PREFIX}-{ingest,mixed,stream,stream-http,tenants,replicas-0,replicas-1,replicas-2,replica-query}.json (+ ${OUT_PREFIX}-access.log sample)"
