// Package service implements corrd, the correlated-aggregation network
// service: the paper's distributed model (remote sites streaming tuples,
// a coordinator answering AGG{x : y <= c} queries over the union of their
// streams) as an HTTP daemon built entirely on the repo's mergeable
// summaries — one per tenant — with the standard library only, zero new
// dependencies.
//
// One Server plays every role:
//
//   - coordinator: accepts tuple batches on POST /v1/ingest and the
//     records of its sites' logs on POST /v1/forward (each applied once,
//     as the site applied it, into one summary per tenant — forward.go),
//     and answers GET /v1/query?op=le|ge&c=... from that state. Nothing
//     is merged: state enters a tenant only as tuples, so its error is
//     one summary's, never Lemma 4's k-fold merge bound.
//   - site (Config.PushTo set): ingests locally like a
//     coordinator and forwards every state record of its log to each of
//     its targets, exactly once, so a coordinator's summary is the
//     summary of the union stream with no merge at all.
//   - standby (Config.Standby): a coordinator that refuses client writes
//     until promoted. Its primary lists it as a target, so it holds what
//     its primary does, and a promotion only lifts the refusal
//     (replication.go).
//
// Durability is a write-ahead log every acknowledged write is in first
// (Config.WALDir; wal.go, pipeline.go), and the server's one artefact:
// periodic checkpoints are records of it (checkpoint.go) that let it prune.
// Observability is a Prometheus-text /metrics plus /healthz and /v1/stats,
// and shutdown is graceful: drain HTTP and streams, final forward (site
// role), final checkpoint, commit what is queued.
//
// The HTTP surface is deliberately small and wire-stable; see the
// README's "Running the service" section for the endpoint catalogue and
// curl recipes.
package service

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/fault"
	"github.com/streamagg/correlated/internal/wal"
)

// Engine is what the service needs from a tenant's summary: batched
// ingest, dual-direction queries, and the one wire form that serves
// checkpoint, spill and /v1/summary alike. Every root
// summary type (*F2Summary, *FkSummary, *CountSummary, *SumSummary)
// satisfies it as is. An Engine is not safe for concurrent use; the
// server drives each one under its driver lock.
type Engine interface {
	AddBatch(batch []correlated.Tuple) error
	QueryLE(c uint64) (float64, error)
	QueryGE(c uint64) (float64, error)
	Count() uint64
	Space() int64
	Footprint() correlated.Footprint
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// Config configures a Server. The zero value is not usable: Options
// must carry a valid (Eps, Delta, YMax) triple, exactly as for the
// library constructors.
type Config struct {
	// Aggregate selects the summary type: "f2" (default), "fk",
	// "count", or "sum".
	Aggregate string
	// K is the moment order when Aggregate is "fk".
	K int
	// Options configures every tenant's summary. A checkpoint restores
	// only under the Options — Seed included — that wrote it.
	Options correlated.Options
	// QueryMaxStale bounds how old a memoized query answer may be. 0
	// (the default) serves a memoized (op, cutoff) answer only while the
	// tenant's state has not moved since it was evaluated — every query
	// sees every acknowledged write. A positive value keeps serving an
	// answer for up to that long even though the state moved, capping
	// the evaluation rate at one per (op, cutoff) per window no matter
	// how hot the query side runs: an evaluation reads the live summary
	// under the driver lock, so a hot query loop with QueryMaxStale=0
	// under sustained ingest takes that lock once per request. Estimates
	// are approximate by construction; operators who can absorb a
	// bounded staleness window take the query side off the commit path.
	QueryMaxStale time.Duration

	// SnapshotInterval is the time between checkpoints; <= 0 means 30s.
	// A checkpoint appends every tenant's state to the log as records,
	// and the log is pruned behind it. One is also written at Close, and
	// startup restores the newest one the log holds.
	SnapshotInterval time.Duration

	// WALDir is the server's state directory, and required: the
	// write-ahead log's segments, which hold its checkpoints too, and a
	// site's id. Every accepted ingest batch and forwarded site record is
	// appended and fsynced — one fsync per commit group — before the
	// request is acknowledged, so an acknowledged request survives kill
	// -9 and an OS crash, and startup replays the log from its newest
	// checkpoint. A copy of the whole directory restores.
	WALDir string
	// WALSegmentBytes is the segment rotation threshold; <= 0 means
	// 64 MiB.
	WALSegmentBytes int64

	// FS routes the server's filesystem calls — the WAL's, and a site
	// id's; nil means the real OS. A *fault.Injector here (cmd/corrd's
	// -fault-plan) turns the daemon into its own chaos harness: disk
	// faults are injected by plan, and POST /v1/fault swaps the plan
	// live.
	FS fault.FS

	// IngestQueueMax bounds the commit pipeline's queue (jobs waiting
	// for the committer). Past it, HTTP ingest sheds with 429 +
	// Retry-After and the stream transport nacks AckBusy — backpressure
	// instead of unbounded memory growth when offered load outruns the
	// fsync budget. 0 means unbounded.
	IngestQueueMax int

	// PushTo makes the server a site: a comma-separated list of base
	// URLs — coordinators and standbys alike — to each of which it
	// forwards its log, every tenant's records, exactly once
	// (forward.go). A checkpoint prunes only what every target has
	// confirmed.
	PushTo string

	// Standby makes the server a standby: a coordinator that serves reads
	// and takes forwards — its primary lists it in PushTo — but refuses
	// client writes with 503 (AckReadOnly on the stream) until promoted;
	// see replication.go. With PushTo it forwards its own log onward.
	Standby bool
	// PrimaryTimeout, when positive, promotes a standby that has received
	// no forward for that long from its primary, the first site it hears
	// from: an idle primary sends an empty one every second. 0 leaves
	// promotion to POST /v1/promote.
	PrimaryTimeout time.Duration
	// AdminToken gates POST /v1/promote (header X-Admin-Token). Empty
	// disables the endpoint entirely — an unauthenticated promote would
	// let anyone split-brain the pair. Auto-failover (PrimaryTimeout)
	// does not need it.
	AdminToken string

	// MaxTenants caps how many keyed namespaces the daemon will hold
	// (the default tenant counts); an ingest or a forward naming a new tenant
	// past the cap is rejected with HTTP 429 (AckTenant on the stream).
	// 0 means unlimited.
	MaxTenants int
	// MaxTenantBytes caps what the tenants keep, in bytes; creating a
	// tenant past it is rejected with HTTP 413. 0 means unlimited. A live
	// tenant counts what its summary holds — sketch tables and arrays at
	// their stored widths and the rest of its makers' arenas, off the heap,
	// and the bucket and sketch structs on it (correlated.Footprint: running counts for
	// the F2 summary, true to a few per cent of a heap profile; the other
	// aggregates count eight bytes a stored word) — as of the last commit
	// or restore that touched it, and a spilled one its image
	// length, so spilling a tenant lowers its count by the empty slots and
	// structs an image does not carry. The sum (tenant_bytes in /v1/stats,
	// corrd_tenant_bytes) is kept whether or not a cap is set, except that
	// a commit to an fk, count or sum summary — whose count is a walk —
	// refreshes it only under a cap. It is three eighths to five eighths of
	// the resident set on corrdbench's workloads: the collector's headroom
	// (GOGC), the runtime's own structures and the binary come on top, and
	// /v1/stats' memory object prints each.
	MaxTenantBytes int64
	// TenantIdleSpill, when positive, spills tenants untouched for at
	// least that long: the summary is marshaled to an in-memory image
	// and dropped, and the next touch restores it bit-identically. 0
	// disables idle spill.
	TenantIdleSpill time.Duration

	// MaxBodyBytes caps request bodies; 0 means 64 MiB.
	MaxBodyBytes int64
	// Logger receives operational messages (checkpoint failures, forward
	// retries); nil discards them.
	Logger *log.Logger
	// AccessLog receives one JSON line per API request and per stream
	// frame batch (method, path, tenant, status, bytes, duration,
	// request ID). Records pass through a fixed-size ring drained by a
	// background writer: the serving path never blocks on the log
	// destination, and bursts past the ring are dropped and counted
	// (corrd_access_log_dropped_total) instead of queued. nil disables
	// access logging.
	AccessLog io.Writer
	// SlowRequest, when positive, promotes every request at least this
	// slow to Logger (and counts it in corrd_slow_requests_total);
	// 0 disables the threshold.
	SlowRequest time.Duration
}

// role is the role Config sets: a site's or a coordinator's, which a
// standby takes on at its promotion (roleNow).
func (c *Config) role() string {
	if c.PushTo != "" {
		return "site"
	}
	return "coordinator"
}

// aggregate normalizes the Aggregate field.
func (c *Config) aggregate() string {
	if c.Aggregate == "" {
		return "f2"
	}
	return c.Aggregate
}

// newEngine builds one tenant's summary for the configured aggregate.
func newEngine(cfg *Config) (Engine, error) {
	switch cfg.aggregate() {
	case "f2":
		return correlated.NewF2Summary(cfg.Options)
	case "fk":
		if cfg.K < 2 {
			return nil, fmt.Errorf("service: moment order K = %d (want >= 2)", cfg.K)
		}
		return correlated.NewFkSummary(cfg.K, cfg.Options)
	case "count":
		return correlated.NewCountSummary(cfg.Options)
	case "sum":
		return correlated.NewSumSummary(cfg.Options)
	default:
		return nil, fmt.Errorf("service: unknown aggregate %q (want f2, fk, count, or sum)", cfg.Aggregate)
	}
}

// countsBytes reports whether the configured aggregate's Footprint reads
// running counts (the F2 summary's, kept by its sketch maker) or walks every
// bucket of the summary, as Space does (fk, count, sum).
func (c *Config) countsBytes() bool { return c.aggregate() == "f2" }

// decodeState is one pooled set of ingest scratch buffers: the raw
// body (or stream frame payload) — an ingest job's member aliases it —
// and the commit-pipeline job (whose done channel is reused), recycled
// across requests so the steady-state ingest path does not allocate per
// request. The HTTP handlers and the stream readers share one pool —
// the same buffers serve both transports.
type decodeState struct {
	body      []byte
	streamSeq uint64 // stream transport only: the frame's client seq
	job       ingestJob
}

// Server is one corrd instance. Create it with New, serve its Handler,
// and Close it to drain, final-forward, and final-checkpoint.
type Server struct {
	cfg     Config
	metrics *metrics
	mux     *http.ServeMux
	logger  *log.Logger
	access  *accessLog // nil without Config.AccessLog

	// mu is the engine driver lock: a summary is single-driver by
	// contract, so every read or write of one — a commit group decided and
	// applied by the committer, a checkpoint's marshal, a tenant spill or
	// restore, a query evaluation — happens under it, across all tenants.
	// Every write is a job of the commit pipeline (pipe): the committer
	// applies under mu, in LSN order, only the records its log holds after
	// the group's barrier (see pipeline.go), so the engines hold what the
	// log does (what makes replay crash-exact). Nothing waits on a commit, or on the disk, while
	// holding mu. A query takes it only for the cutoffs its tenant's
	// answer memo (tenant.go) cannot serve. marks, guarded by it, is each
	// forwarding site's mark: the highest LSN of its log applied here.
	mu       sync.Mutex
	marks    map[uint64]uint64
	restored bool

	// Tenant registry (tenant.go): def is the default (empty-key)
	// tenant, whose engine never spills; tenants maps every key
	// (including "") to its namespace. Whoever writes the map — the commit
	// that makes a tenant, an image or a checkpoint applied — holds mu as
	// well as regMu,
	// so a read under mu needs no regMu. regMu is the innermost lock —
	// never acquire mu or a tenant's memoMu while holding it.
	// tenantsLive counts tenants holding a materialized engine (the
	// rest are spilled images), kept at create, spill and restore so a
	// scrape never takes the driver lock to count them.
	regMu       sync.RWMutex
	tenants     map[string]*tenant
	def         *tenant
	tenantBytes atomic.Int64 // Σ tenant.footprint, moved by noteFootprintLocked: the MaxTenantBytes input
	tenantsLive atomic.Int64

	// pipe, committer state: group commit, the one log writer (pipeline.go).
	pipe     commitPipeline
	groupBuf []byte             // committer-owned WAL record encode scratch
	records  []groupRecord      // committer-owned: the records of the group in flight
	applyBuf []correlated.Tuple // committer-owned sorted copy of a group's members, a span per tenant

	// fs routes the server's filesystem calls (fault.OS() unless
	// Config.FS injects faults); health is the degraded-mode state
	// machine (health.go); groupLatency is the EWMA of commit-group
	// wall time, the Retry-After input for overload shedding.
	fs           fault.FS
	health       health
	groupLatency fgauge

	// wal is the durable-ingest log, opened in New; only the committer
	// writes it.
	wal *wal.WAL

	dec  sync.Pool    // *decodeState
	fwds []*forwarder // a site's, one per PushTo target (forward.go)

	// streamMu guards the streaming-ingest transport's registries
	// (stream.go): the listeners ServeStream runs on and the live
	// connections, so Close can stop accepts and expire reads exactly
	// once per conn without racing registration.
	streamMu    sync.Mutex
	streamLns   []net.Listener
	streamConns map[net.Conn]struct{}

	// standby is true from a standby's New until Promote flips it; client
	// writes are refused while it holds. heard is the input of
	// PrimaryTimeout (replication.go, hear). appliedLSN is the last WAL
	// record the state holds, advanced under mu by the committer's apply.
	standby atomic.Bool
	heard   struct {
		site  atomic.Uint64 // the primary: the first site a forward came from
		at    atomic.Int64  // unix nanos of its last forward, or of New
		other atomic.Uint64 // the first other site, logged when heard
	}
	appliedLSN atomic.Uint64

	// done stops the background loops; wg counts them and the stream conns
	// (not the committer, which Close stops last). closeOnce runs Close's
	// body, so a second Close waits for the first and returns closeErr.
	done      chan struct{}
	wg        sync.WaitGroup
	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// New builds a Server: engine, log replay, HTTP routes, and the background
// checkpoint loop and forwarders. On error nothing is left running.
func New(cfg Config) (*Server, error) {
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.FS == nil {
		cfg.FS = fault.OS()
	}
	if cfg.WALDir == "" {
		return nil, errors.New("service: WALDir is required: every acknowledged write is in the log first")
	}
	eng, err := newEngine(&cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		logger:  cfg.Logger,
		fs:      cfg.FS,
		done:    make(chan struct{}),
		marks:   map[uint64]uint64{},
	}
	s.def = &tenant{eng: eng}
	s.def.touch()
	s.tenants = map[string]*tenant{"": s.def}
	s.tenantsLive.Store(1)
	s.noteFootprintLocked(s.def)
	if s.logger == nil {
		s.logger = log.New(io.Discard, "", 0)
	}
	s.pipe.cond = sync.NewCond(&s.pipe.mu)
	s.pipe.done = make(chan struct{})
	s.dec.New = func() any { return &decodeState{job: ingestJob{done: make(chan struct{}, 1)}} }
	s.standby.Store(cfg.Standby)
	// Recovery: the newest checkpoint, then every record after it — the
	// state that comes out is the same sequence of engine calls the
	// crashed process made.
	if err := s.refuseSnapshots(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		s.shutdownStorage()
		return nil, err
	}
	if cfg.PushTo != "" {
		if s.fwds, err = s.newForwarders(); err != nil {
			s.shutdownStorage()
			return nil, err
		}
	}
	go s.committer()
	s.routes()
	// Started after recovery so the construction error paths above never
	// leak the writer goroutine.
	if cfg.AccessLog != nil {
		s.access = newAccessLog(cfg.AccessLog, accessLogRing, &s.metrics.accessDropped)
	}
	s.logf("configured: role=%s agg=%s wal=%q access-log=%t slow-request=%s",
		s.roleNow(), cfg.aggregate(), cfg.WALDir, s.access != nil, cfg.SlowRequest)
	s.every(healthProbeInterval, func() {
		if s.health.state.Load() == healthDegraded {
			s.recoverNow() // logs its own outcome
		}
	})
	s.every(cfg.SnapshotInterval, func() {
		if err := s.Checkpoint(); err != nil {
			s.logf("%v", err)
		}
	})
	for _, f := range s.fwds {
		go f.run()
	}
	if cfg.TenantIdleSpill > 0 {
		s.every(cfg.TenantIdleSpill, func() { s.spillIdle(cfg.TenantIdleSpill) })
	}
	if cfg.Standby && cfg.PrimaryTimeout > 0 {
		s.heard.at.Store(time.Now().UnixNano())
		s.every(max(cfg.PrimaryTimeout/4, time.Millisecond), s.promoteIfSilent)
	}
	return s, nil
}

// every starts a background loop that runs fn on each tick of interval
// until Close, which waits for it: a round in flight finishes first.
func (s *Server) every(interval time.Duration, fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn()
			case <-s.done:
				return
			}
		}
	}()
}

// Handler returns the server's HTTP handler (mount it on any listener —
// http.Server, httptest, a mux of your own).
func (s *Server) Handler() http.Handler { return s.mux }

// Restored reports whether startup state came from a checkpoint.
func (s *Server) Restored() bool { return s.restored }

// Engine exposes the default tenant's engine for in-process use
// (examples, tests). It is not safe for concurrent use, and the server's
// own lock is not the caller's: use it only while the server is quiet.
func (s *Server) Engine() Engine { return s.def.eng }

func (s *Server) logf(format string, args ...any) { s.logger.Printf("corrd: "+format, args...) }

// shutdownStorage closes the WAL (used on construction failures and at
// the tail of Close).
func (s *Server) shutdownStorage() {
	if err := s.wal.Close(); err != nil {
		s.logf("wal close: %v", err)
	}
}

// Close shuts the server down gracefully: stop the background loops and
// the stream transport, forward what the log holds upstream (site role;
// the first failed attempt ends it, and the log keeps the rest for the
// next start), write a final checkpoint, and only then shut the commit pipeline —
// the committer outlives everything that hands it a job. Safe to call
// more than once; later calls return the first result. Callers should
// stop their http.Server first so no handler is mid-flight.
func (s *Server) Close() error {
	s.closeOnce.Do(s.close)
	return s.closeErr
}

// close is Close's body, run once.
func (s *Server) close() {
	s.closing.Store(true)
	s.logf("close: draining stream connections and the ingest pipeline")
	close(s.done)
	// Stop accepting stream connections and expire the live readers so
	// they enqueue nothing new; their in-flight frames still commit and
	// ack before each conn's goroutines (tracked in wg) exit, and the
	// loops finish the round they are in: the committer is still running.
	s.closeStreams()
	s.wg.Wait()
	var errs []error
	if len(s.fwds) > 0 {
		// The barrier orders the final drains after every job queued
		// before it, so each forwards all they logged.
		err := s.commit(&ingestJob{op: opBarrier})
		for _, f := range s.fwds {
			err = errors.Join(err, f.drain())
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("final forward: %w", err))
		}
	}
	if err := s.Checkpoint(); err != nil {
		errs = append(errs, err)
	}
	// Jobs are refused from here; the committer commits and acknowledges
	// what is already queued before it exits, so nothing accepted into
	// the pipeline goes unacknowledged and the log closes with no writer.
	s.closePipeline()
	if err := s.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	// Last: the handlers are done (callers stop their http.Server first,
	// and the stream conns drained above), so the final flush captures
	// every record.
	if s.access != nil {
		s.access.Close()
	}
	s.closeErr = errors.Join(errs...)
	if s.closeErr == nil {
		s.logf("close: complete")
	} else {
		s.logf("close: complete with errors: %v", s.closeErr)
	}
}
