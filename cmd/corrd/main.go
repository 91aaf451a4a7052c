// Command corrd is the correlated-aggregation network daemon: the
// paper's site/coordinator model as an HTTP service over the mergeable
// summaries, one per tenant.
//
// Coordinator (the default role) — ingest tuples and the records its sites
// forward, answer queries:
//
//	corrd -addr :7070 -agg f2 -eps 0.15 -delta 0.1 -ymax 1048575 \
//	      -snapshot /var/lib/corrd/f2.snapshot \
//	      -wal-dir /var/lib/corrd/wal -wal-fsync always
//
// With -wal-dir set, every acknowledged ingest batch, push image and
// forwarded site record is appended to a write-ahead log before the HTTP 200; startup restores
// the snapshot and replays the log suffix, so a kill -9 loses nothing
// that was acknowledged (under -wal-fsync=always). Snapshots checkpoint
// and prune the log. Concurrent ingest requests are group-committed:
// everything queued while the previous group was fsyncing is applied
// (one AddBatch per touched tenant) and made durable as one unit (one
// fsync, up to -ingest-group-max requests), so acknowledged throughput
// under -wal-fsync=always scales with the offered concurrency instead of
// being gated by fsync latency times request count. Query answers are
// memoized per tenant until its state moves (or for -query-max-stale),
// so a repeated query does not block ingest. -shards is accepted and
// ignored (the benchmark's command line still passes it): it selected
// the worker count of a per-tenant sharded engine this daemon no longer
// has. The log, the snapshot and the replication stream are versioned
// together; files or peers from before the break are refused by name
// (README "Storage format").
//
// With -stream-addr set, the daemon also serves the persistent
// length-framed streaming-ingest transport on that address: clients
// (client.DialStream, corrgen -stream) hold one TCP connection, pump
// counted tuple-batch frames back-to-back, and read per-frame acks that
// carry the WAL group LSN — the wire-speed alternative to per-request
// HTTP ingest, riding the same group-commit pipeline and the same
// durability contract.
//
// Every ingest, push, and query endpoint accepts a ?tenant=NAME key
// selecting one of N independent summaries behind the same daemon (the
// streaming transport carries the key per frame); the WAL and snapshot
// keep each tenant's recovery byte-exact. -max-tenants and
// -max-tenant-bytes cap the namespace, and -tenant-idle-spill compacts
// idle tenants to their marshaled images until their next touch.
//
// Site — summarize a local stream and forward the records of its log to
// the coordinator, as many as are ready in one request, which applies each
// exactly once into one summary per tenant (no merge of summaries, so no
// merge's error term):
//
//	corrd -addr :7071 -push-to http://coordinator:7070 \
//	      -wal-dir /var/lib/corrd/site-wal -snapshot /var/lib/corrd/site.snapshot \
//	      -agg f2 -eps 0.15 -delta 0.1 -ymax 1048575 -seed 42
//
// -push-to needs -wal-dir: the log is what is forwarded, and the site's
// checkpoints prune it only as far as the coordinator has confirmed. The
// site id that names the log's LSN space is kept in the WAL directory. A
// record the coordinator refuses (a tenant cap) holds back the records
// behind it: /v1/stats reports it as forward_stalled.
// Sites and their coordinator must share every summary flag (-agg, -k,
// -eps, -delta, -ymax, -maxn, -maxx, -seed, -pred, and the alpha
// overrides) verbatim: the seed regenerates the hash functions, and a
// forwarded image built with other options is rejected with HTTP 409.
//
// Replica — follow a primary's WAL over its -stream-addr and serve the
// read path as a warm standby:
//
//	corrd -addr :7072 -role=replica -primary coordinator:7071 \
//	      -primary-timeout 10s -admin-token s3cret \
//	      -agg f2 -eps 0.15 -delta 0.1 -ymax 1048575 -seed 42
//
// A replica replays the primary's log continuously into a live engine
// registry (every tenant, byte-exact), answers /v1/query, /v1/stats,
// and /v1/summary through the same read path as a primary,
// and rejects writes with HTTP 503. /v1/stats and /metrics expose the
// replication lag in records and seconds. Failover: POST /v1/promote
// (gated by -admin-token) — or -primary-timeout of total primary
// silence — promotes the replica in place: it seals its replayed log
// position, opens its own WAL in -wal-dir numbered from the next LSN,
// and begins accepting writes. Replicas must share the primary's
// summary flags, exactly like sites.
//
// Endpoints: POST /v1/ingest (binary tuple stream or text/csv
// "x,y[,w]" lines), POST /v1/forward (records of a site's log),
// POST /v1/push (marshaled summary image, merged),
// GET /v1/query?op=le|ge&c=N, GET /v1/stats, GET /v1/summary,
// POST /v1/promote (replica → primary, admin-gated),
// POST /v1/recover (force a recovery probe on a degraded daemon,
// admin-gated), POST /v1/fault (swap the fault plan; only with
// -fault-plan), GET /healthz (liveness), GET /readyz (503 while degraded
// or draining), GET /metrics (Prometheus text).
//
// Edge hardening: -http-read-header-timeout, -http-read-timeout, and
// -http-idle-timeout bound slow-loris and idle keep-alive connections
// on the main and debug listeners (the streaming transport enforces its
// own per-frame deadlines), alongside the -max-body request cap.
//
// Observability: -access-log writes one JSON line per HTTP request and
// stream frame (request IDs accepted or minted via X-Request-ID) from a
// lock-cheap ring buffer that drops rather than blocks the hot path;
// -slow-request promotes slow requests to the main logger; -debug-addr
// serves net/http/pprof on a separate listener. /metrics carries the
// commit pipeline's per-stage latency histograms
// (corrd_pipeline_stage_seconds) alongside WAL, snapshot, tenant, and
// Go runtime series.
//
// SIGINT/SIGTERM trigger a graceful shutdown: drain HTTP, commit what
// is queued, final forward (site role), final snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/fault"
	"github.com/streamagg/correlated/service"
)

// options is everything the command line selects: the service
// configuration, plus what main wires around it (listeners, HTTP
// timeouts, and the two destinations it opens before service.New — the
// access log and the fault plan's injector).
type options struct {
	svc service.Config

	addr, streamAddr, debugAddr  string
	readHeaderTO, readTO, idleTO time.Duration
	accessLog, faultPlan         string
}

// parseFlags turns the command line into options. Usage and parse
// errors go to stderr; a flag combination that names no valid role is an
// error here, before anything is opened.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("corrd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o options
		c = &o.svc

		pred     = fs.String("pred", "both", "query directions: le, ge, or both")
		roleFlag = fs.String("role", "", `force the role: "replica" follows -primary and serves reads only (empty = coordinator, or site with -push-to)`)
	)
	fs.StringVar(&o.addr, "addr", ":7070", "listen address")
	fs.StringVar(&o.streamAddr, "stream-addr", "", "streaming-ingest listen address (empty = disabled); serves the persistent length-framed transport")
	fs.StringVar(&c.Aggregate, "agg", "f2", "aggregate: f2, fk, count, or sum")
	fs.IntVar(&c.K, "k", 3, "moment order for -agg fk")
	fs.Float64Var(&c.Options.Eps, "eps", 0.15, "target relative error ε ∈ (0,1)")
	fs.Float64Var(&c.Options.Delta, "delta", 0.1, "failure probability δ ∈ (0,1)")
	fs.Uint64Var(&c.Options.YMax, "ymax", 1<<20-1, "largest y value")
	fs.Uint64Var(&c.Options.MaxStreamLen, "maxn", 1<<32, "stream length bound")
	fs.Uint64Var(&c.Options.MaxX, "maxx", 1<<32, "identifier bound (SUM/F0 sizing)")
	fs.Uint64Var(&c.Options.Seed, "seed", 1, "hash seed; must match across sites and coordinator")
	fs.IntVar(&c.Options.Alpha, "alpha", 0, "per-level bucket capacity override (0 = derive)")
	fs.Int("shards", 1, "ignored: each tenant is one summary; parsed only because benchmarks/corrdbench still passes it, and goes when it stops")
	fs.IntVar(&c.IngestGroupMax, "ingest-group-max", 256, "max ingest requests committed (and fsynced) as one group")
	fs.DurationVar(&c.QueryMaxStale, "query-max-stale", 0, "serve a memoized query answer up to this old even though the tenant's state moved (0 = only while it has not)")

	fs.StringVar(&c.SnapshotPath, "snapshot", "", "snapshot file path (empty = no durability)")
	fs.DurationVar(&c.SnapshotInterval, "snapshot-interval", 30*time.Second, "time between snapshots")
	fs.IntVar(&c.SnapshotKeep, "snapshot-keep", 2, "snapshot retention slots (path, path.1, ...); restore falls back past a corrupt newest")

	fs.StringVar(&c.WALDir, "wal-dir", "", "write-ahead log directory (empty = no WAL); with a WAL every acknowledged write survives kill -9")
	fs.StringVar(&c.WALFsync, "wal-fsync", "always", "WAL fsync policy: always, interval, or off")
	fs.DurationVar(&c.WALFsyncInterval, "wal-fsync-interval", 100*time.Millisecond, "fsync ticker period for -wal-fsync=interval")
	fs.Int64Var(&c.WALSegmentBytes, "wal-segment-bytes", 64<<20, "WAL segment rotation threshold")

	fs.StringVar(&c.PushTo, "push-to", "", "coordinator base URL; setting it makes this daemon a site that forwards its log there (requires -wal-dir)")

	fs.StringVar(&c.PrimaryAddr, "primary", "", "primary's stream address (host:port) to replicate the WAL from; requires -role=replica")
	fs.DurationVar(&c.PrimaryTimeout, "primary-timeout", 0, "replica auto-promotes itself after this much total primary silence (0 = promote only on POST /v1/promote)")
	fs.DurationVar(&c.HeartbeatInterval, "heartbeat-interval", time.Second, "primary→replica heartbeat period on replication connections")
	fs.StringVar(&c.AdminToken, "admin-token", "", "X-Admin-Token required on POST /v1/promote (empty = promotion over HTTP disabled)")

	fs.Int64Var(&c.MaxBodyBytes, "max-body", 64<<20, "request body cap in bytes")

	fs.DurationVar(&o.readHeaderTO, "http-read-header-timeout", 10*time.Second, "time allowed to read a request's headers on the main and debug listeners")
	fs.DurationVar(&o.readTO, "http-read-timeout", 0, "time allowed to read a full request including body (0 = unlimited; bodies are capped by -max-body)")
	fs.DurationVar(&o.idleTO, "http-idle-timeout", 2*time.Minute, "keep-alive connections idle longer than this are closed (0 = unlimited)")

	fs.StringVar(&o.accessLog, "access-log", "", `structured access-log file path ("-" = stderr, empty = disabled); one JSON line per HTTP request and stream frame`)
	fs.DurationVar(&c.SlowRequest, "slow-request", 0, "also log requests slower than this to the main logger (0 = never)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "net/http/pprof listen address (empty = disabled); keep it loopback-only in production")

	fs.IntVar(&c.MaxTenants, "max-tenants", 0, "tenant count cap (0 = unlimited); creation past it gets HTTP 429")
	fs.Int64Var(&c.MaxTenantBytes, "max-tenant-bytes", 0, "aggregate tenant memory cap in bytes (0 = unlimited); creation past it gets HTTP 413")
	fs.DurationVar(&c.TenantIdleSpill, "tenant-idle-spill", 0, "spill tenants idle longer than this to compact in-memory images (0 = never)")

	fs.IntVar(&c.IngestQueueMax, "ingest-queue-max", 4096, "commit-pipeline queue bound; requests past it are shed with HTTP 429 / AckBusy (0 = unbounded)")
	fs.StringVar(&o.faultPlan, "fault-plan", "", `fault-injection plan for WAL/snapshot I/O, e.g. "sync:err@3+;write:enospc@4096" (testing only; empty = disabled, "off" = injector armed but idle, reconfigurable via POST /v1/fault)`)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	switch *pred {
	case "le":
		c.Options.Predicate = correlated.LE
	case "ge":
		c.Options.Predicate = correlated.GE
	case "both":
		c.Options.Predicate = correlated.Both
	default:
		return nil, fmt.Errorf("bad -pred %q (want le, ge, or both)", *pred)
	}
	switch *roleFlag {
	case "":
		if c.PrimaryAddr != "" {
			return nil, errors.New("-primary requires -role=replica")
		}
	case "replica":
		if c.PrimaryAddr == "" {
			return nil, errors.New("-role=replica requires -primary=HOST:PORT")
		}
	default:
		return nil, fmt.Errorf("bad -role %q (want replica or empty)", *roleFlag)
	}
	if c.PushTo != "" && c.WALDir == "" {
		return nil, errors.New("-push-to requires -wal-dir: a site forwards its log")
	}
	return &o, nil
}

// gcPercent is the collector's headroom as corrd sets it: the heap may grow
// by half of what the last cycle found live before the next one starts, where
// the runtime's default lets it double. The collector's CPU goes as allocation
// rate ÷ headroom; the sketch makers' free lists cut what the apply path
// allocates to about twice what it keeps, and this spends part of that back
// as bytes. The value is measured, one for every workload: at 50, ten paired
// corrdbench runs a workload read the resident set 14 % lower on http-small
// and 5–7 % lower on the other three with no metric resolved worse; at 25 it
// read 19 % and 7–14 % lower, but tenants-restart — which grows its heap from
// nothing, so a tighter pace means many early cycles — lost ack_p99_ms and
// cpu_s_per_mtuple in nine pairs of ten. No flag: GOGC, the runtime's own
// variable, overrides it.
const gcPercent = 50

// paceCollector applies gcPercent unless the operator set GOGC — any value,
// "off" included, is theirs and stands; empty is unset, as the runtime reads
// it.
func paceCollector() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
}

func main() {
	paceCollector()
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrd: %v\n", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)

	// A non-empty -fault-plan arms the injector between corrd and the
	// real filesystem — "off" arms it with no active rules, so a test
	// harness can inject later through POST /v1/fault. An armed injector
	// is loudly logged: it exists to break durability on purpose.
	if o.faultPlan != "" {
		plan, err := fault.ParsePlan(o.faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corrd: -fault-plan: %v\n", err)
			os.Exit(2)
		}
		inj := fault.NewInjector(fault.OS())
		inj.SetPlan(plan)
		o.svc.FS = inj
		logger.Printf("corrd: FAULT INJECTION ARMED (testing only): plan %q", o.faultPlan)
	}

	var accessFile *os.File
	switch o.accessLog {
	case "":
	case "-":
		o.svc.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(o.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corrd: access log: %v\n", err)
			os.Exit(1)
		}
		o.svc.AccessLog, accessFile = f, f
	}
	o.svc.Logger = logger

	svc, err := service.New(o.svc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corrd: %v\n", err)
		os.Exit(1)
	}
	if svc.Restored() {
		logger.Printf("corrd: restored state from %s", o.svc.SnapshotPath)
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: o.readHeaderTO,
		ReadTimeout:       o.readTO,
		IdleTimeout:       o.idleTO,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("corrd: %s role listening on %s (agg=%s)",
			roleOf(o.svc.PushTo, o.svc.PrimaryAddr), o.addr, o.svc.Aggregate)
		errc <- httpSrv.ListenAndServe()
	}()
	if o.streamAddr != "" {
		ln, err := net.Listen("tcp", o.streamAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corrd: stream listen: %v\n", err)
			svc.Close()
			os.Exit(1)
		}
		go func() {
			logger.Printf("corrd: streaming ingest listening on %s", o.streamAddr)
			if err := svc.ServeStream(ln); err != nil {
				errc <- fmt.Errorf("stream serve: %w", err)
			}
		}()
	}
	if o.debugAddr != "" {
		// The profiling surface is its own listener on purpose: the
		// serving address never exposes pprof, and a debug-listener
		// failure only loses profiling, never the daemon.
		debugSrv := &http.Server{
			Addr:              o.debugAddr,
			Handler:           service.DebugHandler(),
			ReadHeaderTimeout: o.readHeaderTO,
			ReadTimeout:       o.readTO,
			IdleTimeout:       o.idleTO,
		}
		go func() {
			logger.Printf("corrd: debug (pprof) listening on %s", o.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("corrd: debug serve: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Printf("corrd: shutting down")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "corrd: serve: %v\n", err)
		svc.Close()
		os.Exit(1)
	}

	// Drain in-flight requests, then commit/forward/snapshot via Close.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("corrd: http shutdown: %v", err)
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "corrd: close: %v\n", err)
		os.Exit(1)
	}
	if accessFile != nil {
		// Close drained the access-log ring; the file can close now.
		if err := accessFile.Close(); err != nil {
			logger.Printf("corrd: access log close: %v", err)
		}
	}
	logger.Printf("corrd: clean shutdown")
}

func roleOf(pushTo, primary string) string {
	switch {
	case primary != "":
		return "replica"
	case pushTo != "":
		return "site"
	}
	return "coordinator"
}
