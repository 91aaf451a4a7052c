// Command corrd is the correlated-aggregation network daemon: the
// paper's site/coordinator model as an HTTP service over the mergeable
// summaries, one per tenant.
//
// Coordinator (the default role) — ingest tuples and the records its sites
// forward, answer queries:
//
//	corrd -addr :7070 -agg f2 -eps 0.15 -delta 0.1 -ymax 1048575 \
//	      -wal-dir /var/lib/corrd/wal
//
// -wal-dir, the state directory, is required: every acknowledged ingest
// batch and forwarded site record is appended to the write-ahead log there
// before the HTTP 200; a checkpoint, every -snapshot-interval and at
// shutdown, appends every tenant's summary image to the same log and
// prunes what came before. Startup restores the newest checkpoint and
// replays the records after it, so a kill -9 loses nothing acknowledged. Concurrent ingest requests are group-committed:
// everything queued while the previous group was fsyncing is applied
// (one AddBatch per touched tenant) and made durable as one unit (one
// fsync, up to 256 requests), so acknowledged throughput scales with the
// offered concurrency instead of being gated by fsync latency times
// request count. -wal-fsync accepts only always, the one contract (the
// benchmark's command line still passes it); interval and off are retired. Query answers are
// memoized per tenant until its state moves (or for -query-max-stale),
// so a repeated query does not block ingest. -shards is accepted and
// ignored (the benchmark's command line still passes it): it selected
// the worker count of a per-tenant sharded engine this daemon no longer
// has. The log and the forward body are versioned together; files or
// peers from before the break are refused by name, an earlier release's
// snapshot file in -wal-dir included (README "Storage format",
// "Upgrading").
//
// With -stream-addr set, the daemon also serves the persistent
// length-framed streaming-ingest transport on that address: clients
// (client.DialStream, corrgen -stream) hold one TCP connection, pump
// counted tuple-batch frames back-to-back, and read per-frame acks that
// carry the WAL group LSN — the wire-speed alternative to per-request
// HTTP ingest, riding the same group-commit pipeline and the same
// durability contract.
//
// Every ingest and query endpoint accepts a ?tenant=NAME key
// selecting one of N independent summaries behind the same daemon (the
// streaming transport carries the key per frame); the WAL and its
// checkpoints keep each tenant's recovery byte-exact. -max-tenants and
// -max-tenant-bytes cap the namespace, and -tenant-idle-spill compacts
// idle tenants to their marshaled images until their next touch.
//
// Site — summarize a local stream and forward the records of its log to
// each comma-separated -push-to target, as many as are ready in one
// request; a target applies each exactly once into one summary per tenant
// (no merge of summaries, so no merge's error term):
//
//	corrd -addr :7071 -push-to http://coordinator:7070,http://standby:7072 \
//	      -wal-dir /var/lib/corrd/site-wal \
//	      -agg f2 -eps 0.15 -delta 0.1 -ymax 1048575 -seed 42
//
// The log is what is forwarded, and the site's checkpoints prune it only
// as far as every target has confirmed. The
// site id that names the log's LSN space is kept in the WAL directory. A
// target behind the log's oldest record is sent the newest checkpoint,
// which bootstraps a standby on an empty -wal-dir. A record a target
// refuses (a tenant cap; a checkpoint, anywhere but at a standby) holds
// back the records behind it: /v1/stats reports it as forward_stalled. A site forwards tuples, never a summary image, so a
// target applies them under its own summary flags (-agg, -k, -eps,
// -delta, -ymax, -maxn, -maxx, -seed, -pred, and the alpha overrides); a
// tuple past its -ymax is refused.
//
// Standby — a coordinator that takes its primary's forwards and serves
// reads, and refuses client writes until promoted:
//
//	corrd -addr :7072 -standby -wal-dir /var/lib/corrd/standby-wal \
//	      -primary-timeout 10s -admin-token s3cret \
//	      -agg f2 -eps 0.15 -delta 0.1 -ymax 1048575 -seed 42
//
// The primary lists the standby in its -push-to. The standby logs each
// forward in its own WAL, answers /v1/query, /v1/stats and /v1/summary
// like any server, reports its role as replica and rejects client writes
// with HTTP 503. POST /v1/promote (gated by -admin-token) — or
// -primary-timeout with no forward from the primary, the first site it
// hears from (an idle primary sends an empty one every second) — promotes
// it in place: it starts taking writes, and
// forwards onward through its own -push-to like any site.
//
// Endpoints: POST /v1/ingest (binary tuple stream or text/csv
// "x,y[,w]" lines), POST /v1/forward (records of a site's log),
// GET /v1/query?op=le|ge&c=N, GET /v1/stats, GET /v1/summary,
// POST /v1/promote (standby → primary, admin-gated),
// POST /v1/recover (force a recovery probe on a degraded daemon,
// admin-gated), POST /v1/fault (swap the fault plan; only with
// -fault-plan), GET /healthz (liveness), GET /readyz (503 while degraded
// or draining), GET /metrics (Prometheus text).
//
// Edge hardening: the main and debug listeners give a request's headers
// 10 s and close a keep-alive connection idle for 2 min (readHeaderTimeout,
// idleTimeout); a body has no read deadline and is capped by -max-body
// instead. The streaming transport enforces its own per-frame deadlines.
//
// Observability: -access-log writes one JSON line per HTTP request and
// stream frame (request IDs accepted or minted via X-Request-ID) from a
// lock-cheap ring buffer that drops rather than blocks the hot path;
// -slow-request promotes slow requests to the main logger; -debug-addr
// serves net/http/pprof on a separate listener. /metrics carries the
// commit pipeline's per-stage latency histograms
// (corrd_pipeline_stage_seconds) alongside WAL, checkpoint, tenant, and
// Go runtime series, and takes no driver lock: a tenant's tuple count and
// space, the memory ledger and the query-memo counts are /v1/stats'.
//
// SIGINT/SIGTERM trigger a graceful shutdown: drain HTTP, commit what
// is queued, final forward (site role), final checkpoint.
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
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/fault"
	"github.com/streamagg/correlated/service"
)

// options is everything the command line selects: the service
// configuration, plus what main wires around it (listeners, and the two
// destinations it opens before service.New — the access log and the
// fault plan's injector).
type options struct {
	svc service.Config

	addr, streamAddr, debugAddr string
	accessLog, faultPlan        string
}

// The HTTP listeners' edge timeouts: a slow-loris client gets
// readHeaderTimeout to send its headers, and a keep-alive connection idle
// for idleTimeout is closed. A body has no read deadline (-max-body caps
// it).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// parseFlags turns the command line into options. Usage and parse
// errors go to stderr; a flag combination that names no valid role is an
// error here, before anything is opened. -standby makes a standby and
// -push-to a site; a standby with targets forwards onward, and with
// neither the daemon is a coordinator.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("corrd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o options
		c = &o.svc

		pred  = fs.String("pred", "both", "query directions: le, ge, or both")
		fsync = fs.String("wal-fsync", "always", "WAL fsync contract: always, the only one (every acknowledgement waits for its group's fsync); interval and off are retired")
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
	fs.DurationVar(&c.QueryMaxStale, "query-max-stale", 0, "serve a memoized query answer up to this old even though the tenant's state moved (0 = only while it has not)")

	fs.DurationVar(&c.SnapshotInterval, "snapshot-interval", 30*time.Second, "time between checkpoints, which append every tenant's image to the log and prune what came before")

	fs.StringVar(&c.WALDir, "wal-dir", "", "state directory (required): the write-ahead log every acknowledged write is in first, which survives kill -9, and holds its checkpoints; a copy of it restores")
	fs.Int64Var(&c.WALSegmentBytes, "wal-segment-bytes", 64<<20, "WAL segment rotation threshold")

	fs.StringVar(&c.PushTo, "push-to", "", "comma-separated base URLs of coordinators and standbys; setting it makes this daemon a site that forwards its log to each")

	fs.BoolVar(&c.Standby, "standby", false, "take the primary's forwards and serve reads, but refuse client writes until promoted")
	fs.DurationVar(&c.PrimaryTimeout, "primary-timeout", 0, "a standby promotes itself after this long with no forward from its primary, the first site it hears from (0 = promote only on POST /v1/promote)")
	fs.StringVar(&c.AdminToken, "admin-token", "", "X-Admin-Token required on POST /v1/promote (empty = promotion over HTTP disabled)")

	fs.Int64Var(&c.MaxBodyBytes, "max-body", 64<<20, "request body cap in bytes")

	fs.StringVar(&o.accessLog, "access-log", "", `structured access-log file path ("-" = stderr, empty = disabled); one JSON line per HTTP request and stream frame`)
	fs.DurationVar(&c.SlowRequest, "slow-request", 0, "also log requests slower than this to the main logger (0 = never)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "net/http/pprof listen address (empty = disabled); keep it loopback-only in production")

	fs.IntVar(&c.MaxTenants, "max-tenants", 0, "tenant count cap (0 = unlimited); creation past it gets HTTP 429")
	fs.Int64Var(&c.MaxTenantBytes, "max-tenant-bytes", 0, "aggregate tenant memory cap in bytes (0 = unlimited); creation past it gets HTTP 413")
	fs.DurationVar(&c.TenantIdleSpill, "tenant-idle-spill", 0, "spill tenants idle longer than this to compact in-memory images (0 = never)")

	fs.IntVar(&c.IngestQueueMax, "ingest-queue-max", 4096, "commit-pipeline queue bound; requests past it are shed with HTTP 429 / AckBusy (0 = unbounded)")
	fs.StringVar(&o.faultPlan, "fault-plan", "", `fault-injection plan for the state directory's I/O, e.g. "sync:err@3+;write:enospc@4096" (testing only; empty = disabled, "off" = injector armed but idle, reconfigurable via POST /v1/fault)`)
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
	if *fsync != "always" {
		return nil, fmt.Errorf("-wal-fsync %q: interval and off are retired, every acknowledgement waits for its group's fsync; pass always or drop the flag (README \"Upgrading\")", *fsync)
	}
	if c.WALDir == "" {
		return nil, errors.New("-wal-dir is required: every acknowledged write is in the log first")
	}
	return &o, nil
}

// gcPercent is the collector's headroom as corrd sets it: the heap may grow
// by half of what the last cycle found live before the next one starts, where
// the runtime's default lets it double. The value was measured while the
// counters were on the heap: at 50 the resident set read 14 % lower on
// http-small and 5–7 % lower on the other three workloads with no metric
// resolved worse. The counters now live in the sketch makers' arenas, off
// the heap, and the collector paces the 2–7 MB of nodes, structs and buffers
// left, so the headroom it saves is small: measured again then, five
// alternating corrdbench pairs a workload, GOGC=100 → 50 read rss_peak_mb
// 24.26 → 23.03 MB on http-small and 43.51 → 43.51 on tenants-restart, for
// cpu_s_per_mtuple 20.22 → 25.36 and 11.72 → 12.59, and ack_p99_ms 2.44 →
// 7.14 and 12.55 → 11.48 ms. No flag: GOGC, the runtime's own variable,
// overrides it.
const gcPercent = 50

// paceCollector applies gcPercent unless the operator set GOGC — any value,
// "off" included, is theirs and stands; empty is unset, as the runtime reads
// it.
func paceCollector() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
}

// sampleHeap leaves the runtime's heap-profile sampling on only where its
// profile can be read: /debug/pprof/heap is served on -debug-addr alone.
// Sampling keeps a table of stack buckets, about 1.45 MB, that the memory
// ledger reads as profiling_bytes, and turning it off here does not drop
// that table: a sample taken while the packages initialise, before main
// runs, has allocated it already. corrd without -debug-addr read
// profiling_bytes 1 443 823 after 240 000 tuples in 16-tuple HTTP batches,
// twice, and 3 207 under GODEBUG=memprofilerate=0, which acts before the
// first allocation; the table is mapped but hardly touched, and VmHWM moved
// within noise (18 284 / 18 264 kB against 18 032 / 18 312). The toolchain
// refuses a //go:debug memprofilerate=0 directive, so the variable is the
// way to keep the table out. No flag: -debug-addr is the switch.
func sampleHeap(debugAddr string) {
	if debugAddr == "" {
		runtime.MemProfileRate = 0
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
	sampleHeap(o.debugAddr)

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
		logger.Printf("corrd: restored state from a checkpoint in %s", o.svc.WALDir)
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("corrd: %s role listening on %s (agg=%s)",
			roleOf(o.svc.PushTo, o.svc.Standby), o.addr, o.svc.Aggregate)
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
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
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

	// Drain in-flight requests, then commit/forward/checkpoint via Close.
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

func roleOf(pushTo string, standby bool) string {
	switch {
	case standby:
		return "replica"
	case pushTo != "":
		return "site"
	}
	return "coordinator"
}
