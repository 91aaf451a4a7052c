// Package service implements corrd, the correlated-aggregation network
// service: the paper's distributed model (remote sites streaming tuples,
// a coordinator answering AGG{x : y <= c} queries over the union of their
// streams) as an HTTP daemon built entirely on the repo's mergeable
// summaries — one per tenant — with the standard library only, zero new
// dependencies.
//
// One Server plays either role:
//
//   - coordinator: accepts tuple batches on POST /v1/ingest, the records
//     of its sites' logs on POST /v1/forward (each applied once, as the
//     site applied it, into one summary per tenant — forward.go), summary
//     images on POST /v1/push (folded in via MergeMarshaled, for library
//     sites' one-shot merges: each merge adds Lemma 4's straddling term),
//     and answers GET /v1/query?op=le|ge&c=... from that state.
//   - site (Config.PushTo set, with a WALDir): ingests locally like a
//     coordinator and forwards every state record of its log upstream,
//     exactly once, so the coordinator's summary is the summary of the
//     union stream with no merge at all.
//
// Durability is a periodic snapshot (snapshot.go) plus, with
// Config.WALDir set, a write-ahead log every acknowledged write is in
// first (wal.go, pipeline.go). Observability is a Prometheus-text
// /metrics plus /healthz and /v1/stats, and shutdown is graceful: drain
// HTTP and streams, final forward (site role), final snapshot, commit
// what is queued.
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
	"github.com/streamagg/correlated/internal/replica"
	"github.com/streamagg/correlated/internal/wal"
)

// Engine is what the service needs from a tenant's summary: batched
// ingest, dual-direction queries, merge-in of pushed images, and the one
// wire form that serves snapshot, push and /v1/summary alike. Every root
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
	MergeMarshaled(data []byte) error
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
	// Options configures every tenant's summary. All sites and their
	// coordinator must share it verbatim — Seed included — or their
	// images are rejected as incompatible.
	Options correlated.Options
	// IngestGroupMax caps how many queued ingest requests one commit
	// group may carry (the group shares one WAL fsync and one AddBatch
	// per touched tenant); <= 0 means 256. See pipeline.go.
	IngestGroupMax int
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

	// SnapshotPath enables durability: the engine state is persisted
	// there on every SnapshotInterval tick and at shutdown, and
	// restored from it at startup. Empty disables snapshots.
	SnapshotPath string
	// SnapshotInterval defaults to 30s when SnapshotPath is set.
	SnapshotInterval time.Duration

	// WALDir enables the write-ahead log: every accepted ingest batch,
	// push image and forwarded site record is appended (and, per
	// WALFsync, fsynced) before the request is acknowledged, and startup
	// replays the log suffix the snapshot does not cover. Empty disables the WAL and leaves
	// the durability window at the snapshot interval. Pair it with
	// SnapshotPath so checkpoints can prune the log.
	WALDir string
	// WALFsync is the fsync policy: "always" (default — an
	// acknowledged request survives kill -9), "interval", or "off".
	WALFsync string
	// WALFsyncInterval is the ticker period for WALFsync="interval" — how
	// often a barrier job is queued; <= 0 means 100ms.
	WALFsyncInterval time.Duration
	// WALSegmentBytes is the segment rotation threshold; <= 0 means
	// 64 MiB.
	WALSegmentBytes int64

	// SnapshotKeep is how many snapshot generations to retain on disk
	// (the live file plus rotated .1, .2, ... predecessors); <= 0 means
	// 2. Startup falls back through the generations when the newest is
	// corrupt or truncated, replaying the correspondingly longer WAL
	// suffix.
	SnapshotKeep int

	// FS routes the WAL's and the snapshot writer's filesystem calls;
	// nil means the real OS. A *fault.Injector here (cmd/corrd's
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

	// PushTo switches the server into the site role: the base URL of
	// the coordinator to forward this server's log to, every tenant's
	// records (forward.go). It needs WALDir: the log is what is forwarded.
	PushTo string

	// PrimaryAddr switches the server into the replica role: the stream
	// listener address (host:port) of the primary whose WAL this server
	// follows. A replica serves reads and rejects writes with 503
	// (AckReadOnly on the stream) until promoted — see replication.go.
	// Incompatible with PushTo. WALDir, when also set, stays closed
	// until promotion: the promoted server opens its own log there,
	// continuing the primary's LSN space.
	PrimaryAddr string
	// PrimaryTimeout, when positive, is how long the replica tolerates
	// total primary silence (no frame, no successful redial) before
	// promoting itself automatically. 0 disables auto-failover: the
	// follower retries forever and promotion is manual (/v1/promote).
	PrimaryTimeout time.Duration
	// HeartbeatInterval is the primary→replica heartbeat cadence on
	// replication connections this server serves; <= 0 means 1s.
	HeartbeatInterval time.Duration
	// AdminToken gates POST /v1/promote (header X-Admin-Token). Empty
	// disables the endpoint entirely — an unauthenticated promote would
	// let anyone split-brain the pair. Auto-failover (PrimaryTimeout)
	// does not need it.
	AdminToken string

	// MaxTenants caps how many keyed namespaces the daemon will hold
	// (the default tenant counts); ingest or push naming a new tenant
	// past the cap is rejected with HTTP 429 (AckTenant on the stream).
	// 0 means unlimited.
	MaxTenants int
	// MaxTenantBytes caps what the tenants keep on the heap, in bytes;
	// creating a tenant past it is rejected with HTTP 413. 0 means
	// unlimited. A live tenant counts what its summary holds — sketch
	// tables and arrays at their stored widths, the makers' free lists, the
	// bucket and sketch structs (correlated.Footprint: running counts for
	// the F2 summary, true to a few per cent of a heap profile; the other
	// aggregates count eight bytes a stored word) — as of the last commit,
	// restore or re-seed that touched it, and a spilled one its image
	// length, so spilling a tenant lowers its count by the empty slots and
	// structs an image does not carry. The sum (tenant_bytes in /v1/stats,
	// corrd_tenant_bytes) is kept whether or not a cap is set, except that
	// a commit to an fk, count or sum summary — whose count is a walk —
	// refreshes it only under a cap. It is two fifths to two thirds of the
	// resident set on corrdbench's workloads: the collector's headroom
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
	// Logger receives operational messages (snapshot failures, forward
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

func (c *Config) role() string {
	if c.PrimaryAddr != "" {
		return "replica"
	}
	if c.PushTo != "" {
		return "site"
	}
	return "coordinator"
}

// walFsync normalizes the WALFsync field.
func (c *Config) walFsync() string {
	if c.WALFsync == "" {
		return "always"
	}
	return c.WALFsync
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
// body (or stream frame payload), the decoded tuple batch, and the
// commit-pipeline job (whose done channel is reused), recycled across
// requests so the steady-state ingest path does not allocate per
// request. The HTTP handlers and the stream readers share one pool —
// the same buffers serve both transports (the PR's pooling audit).
type decodeState struct {
	body      []byte
	tuples    []correlated.Tuple
	streamSeq uint64 // stream transport only: the frame's client seq
	job       ingestJob
}

// Server is one corrd instance. Create it with New, serve its Handler,
// and Close it to drain, final-forward, and final-snapshot.
type Server struct {
	cfg     Config
	metrics *metrics
	mux     *http.ServeMux
	logger  *log.Logger
	access  *accessLog // nil without Config.AccessLog

	// mu is the engine driver lock: a summary is single-driver by
	// contract, so every read or write of one — a commit group decided and
	// applied by the committer, a snapshot marshal, a tenant spill or
	// restore, a query evaluation, a replica's apply — happens under it,
	// across all tenants. Every write a primary makes is a job of the
	// commit pipeline (pipe): the committer applies under mu, in LSN order,
	// only the records its log holds after the group's barrier (see
	// pipeline.go), so the engines hold what the log does (what makes replay
	// crash-exact). Nothing waits on a commit, or on the disk, while
	// holding mu. A query takes it only for the cutoffs its tenant's
	// answer memo (tenant.go) cannot serve. marks, guarded by it, is each
	// forwarding site's mark: the highest LSN of its log applied here.
	mu       sync.Mutex
	marks    map[uint64]uint64
	restored bool

	// Tenant registry (tenant.go): def is the default (empty-key)
	// tenant, whose engine never spills; tenants maps every key
	// (including "") to its namespace. Whoever writes the map — the commit
	// that makes a tenant, a snapshot install — holds mu as well as regMu,
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
	groupMax int
	groupBuf []byte             // committer-owned WAL record encode scratch
	records  []groupRecord      // committer-owned: the records of the group in flight
	applyBuf []correlated.Tuple // committer-owned sorted copy of a group's members, a span per tenant

	// fs routes WAL and snapshot filesystem calls (fault.OS() unless
	// Config.FS injects faults); health is the degraded-mode state
	// machine (health.go); groupLatency is the EWMA of commit-group
	// wall time, the Retry-After input for overload shedding.
	fs           fault.FS
	health       health
	groupLatency fgauge

	// wal is the durable-ingest log (nil without Config.WALDir, and on a
	// replica until promotion stores one); only the committer writes it.
	// walReplayed counts state records replayed at the last startup.
	// snapFellBack records that startup restored an older retention
	// slot (the newest snapshot was corrupt), which relaxes the replay
	// checkpoint-staleness check in favor of the LSN-continuity check.
	wal          atomic.Pointer[wal.WAL]
	walReplayed  uint64
	snapFellBack bool

	// xferMu serializes snapshots, so two never rotate or write the
	// snapshot files at once. Its holders wait on commit jobs: never taken
	// holding mu, nor by the committer.
	xferMu sync.Mutex

	dec sync.Pool  // *decodeState
	fwd *forwarder // the site role's (forward.go); nil otherwise

	// streamMu guards the streaming-ingest transport's registries
	// (stream.go): the listeners ServeStream runs on and the live
	// connections, so Close can stop accepts and expire reads exactly
	// once per conn without racing registration.
	streamMu    sync.Mutex
	streamLns   []net.Listener
	streamConns map[net.Conn]struct{}

	// Replication (replication.go). replicaMode is true from a replica
	// New until Promote flips it; writes are rejected while it holds.
	// appliedLSN is the last WAL record the state holds, the one coverage
	// a snapshot records: advanced under mu by each apply, a primary's
	// committer's and a replica's alike; primaryLSN is the primary's last
	// observed frontier; caughtUpAt stamps (unix nanos) the last moment
	// applied covered primary, for the lag-seconds gauge. replState is the
	// decode scratch of a replica's live apply and of a forward's, guarded
	// by mu.
	replicaMode atomic.Bool
	appliedLSN  atomic.Uint64
	primaryLSN  atomic.Uint64
	caughtUpAt  atomic.Int64
	follower    *replica.Follower
	replState   *replayState

	// done stops the background loops; wg counts them and the stream conns
	// (not the committer, which Close stops last). lifeMu is the lifecycle
	// lock: Close and Promote each hold it from start to finish, so a
	// promotion in flight completes before the server starts to drain and
	// one that arrives later finds closing set. Nothing Close waits on
	// calls Promote (the follower's loss path spawns it on a goroutine of
	// its own), and Promote waits on nothing that calls Close.
	done     chan struct{}
	wg       sync.WaitGroup
	closing  atomic.Bool
	lifeMu   sync.Mutex
	closed   bool
	closeErr error
}

// New builds a Server: engine, snapshot restore (if configured), HTTP
// routes, and the background snapshot loop and forwarder. On error nothing
// is left running.
func New(cfg Config) (*Server, error) {
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.IngestGroupMax <= 0 {
		cfg.IngestGroupMax = defaultGroupMax
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = 2
	}
	if cfg.WALFsyncInterval <= 0 {
		cfg.WALFsyncInterval = 100 * time.Millisecond
	}
	if cfg.FS == nil {
		cfg.FS = fault.OS()
	}
	if cfg.PrimaryAddr != "" && cfg.PushTo != "" {
		return nil, errors.New("service: PrimaryAddr and PushTo are incompatible (a replica cannot also be a site)")
	}
	if cfg.PushTo != "" && cfg.WALDir == "" {
		return nil, errors.New("service: PushTo needs WALDir: a site forwards its log")
	}
	eng, err := newEngine(&cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		logger:   cfg.Logger,
		groupMax: cfg.IngestGroupMax,
		fs:       cfg.FS,
		done:     make(chan struct{}),
		marks:    map[uint64]uint64{},
	}
	s.replState = newReplayState(0, false)
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
	s.replicaMode.Store(cfg.PrimaryAddr != "")
	// A replica has no log of its own until promotion: its WALDir stays
	// closed so the promoted server can open a fresh log there that
	// continues the primary's LSN space.
	if cfg.WALDir != "" && cfg.PrimaryAddr == "" {
		if err := s.openWAL(0); err != nil {
			return nil, err
		}
	}
	// Recovery order: restore the snapshot (which records the LSN it
	// covers), then replay the WAL suffix past it — the state that
	// comes out is the same sequence of engine calls the crashed
	// process made. A replica restores the snapshot only and re-follows
	// the primary from its covered LSN.
	var covered uint64
	if cfg.SnapshotPath != "" {
		var err error
		if covered, err = s.restoreSnapshot(); err != nil {
			s.shutdownStorage()
			return nil, err
		}
	}
	if cfg.PrimaryAddr != "" {
		s.appliedLSN.Store(covered)
	}
	if s.walRef() != nil {
		if err := s.replayWAL(covered); err != nil {
			s.shutdownStorage()
			return nil, err
		}
	}
	if cfg.PushTo != "" {
		if s.fwd, err = s.newForwarder(); err != nil {
			s.shutdownStorage()
			return nil, err
		}
	}
	s.routes()
	// Started after recovery so the construction error paths above never
	// leak the writer goroutine.
	if cfg.AccessLog != nil {
		s.access = newAccessLog(cfg.AccessLog, accessLogRing, &s.metrics.accessDropped)
	}
	walDesc := "off"
	if cfg.WALDir != "" {
		walDesc = fmt.Sprintf("%s (fsync=%s)", cfg.WALDir, cfg.walFsync())
	}
	s.logf("configured: role=%s agg=%s group-max=%d snapshot=%q wal=%s access-log=%t slow-request=%s",
		cfg.role(), cfg.aggregate(), s.groupMax, cfg.SnapshotPath, walDesc,
		s.access != nil, cfg.SlowRequest)
	go s.committer()
	s.every(healthProbeInterval, func() {
		if s.health.state.Load() == healthDegraded {
			s.recoverNow() // logs its own outcome
		}
	})
	if cfg.WALDir != "" && cfg.walFsync() == "interval" {
		// The interval policy is a barrier job on a ticker — the log starts
		// no goroutine — and its failure a failed commit group like any
		// other. A replica's is a no-op until promotion opens the log.
		s.every(cfg.WALFsyncInterval, func() {
			if err := s.commit(&ingestJob{op: opBarrier}); err != nil {
				s.metrics.walSyncErrors.Inc()
				s.logf("wal: interval fsync: %v", err)
			}
		})
	}
	if cfg.SnapshotPath != "" {
		s.every(cfg.SnapshotInterval, func() {
			if err := s.Snapshot(); err != nil {
				s.logf("snapshot: %v", err)
			}
		})
	}
	if s.fwd != nil {
		go s.fwd.run()
	}
	if cfg.TenantIdleSpill > 0 {
		s.every(cfg.TenantIdleSpill, func() { s.spillIdle(cfg.TenantIdleSpill) })
	}
	if cfg.PrimaryAddr != "" {
		s.startFollower()
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

// Restored reports whether startup state came from a snapshot.
func (s *Server) Restored() bool { return s.restored }

// Engine exposes the default tenant's engine for in-process use
// (examples, tests). It is not safe for concurrent use, and the server's
// own lock is not the caller's: use it only while the server is quiet.
func (s *Server) Engine() Engine { return s.def.eng }

func (s *Server) logf(format string, args ...any) { s.logger.Printf("corrd: "+format, args...) }

// shutdownStorage closes the WAL (used on construction failures and at
// the tail of Close).
func (s *Server) shutdownStorage() {
	if w := s.walRef(); w != nil {
		if err := w.Close(); err != nil {
			s.logf("wal close: %v", err)
		}
	}
}

// Close shuts the server down gracefully: stop the background loops and
// the stream transport, forward what the log holds upstream (site role;
// the first failed attempt ends it, and the log keeps the rest for the
// next start), write a final snapshot, and only then shut the commit pipeline —
// the committer outlives everything that hands it a job. Safe to call
// more than once; later calls return the first result. Callers should
// stop their http.Server first so no handler is mid-flight.
func (s *Server) Close() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	s.closing.Store(true)
	s.logf("close: draining stream connections and the ingest pipeline")
	close(s.done)
	// Replication first: detach from the primary so no record applies
	// while the server drains. (No promotion is in flight or can start:
	// lifeMu is held and closing is set.)
	if s.follower != nil {
		s.follower.Stop()
	}
	// Stop accepting stream connections and expire the live readers so
	// they enqueue nothing new; their in-flight frames still commit and
	// ack before each conn's goroutines (tracked in wg) exit, and the
	// loops finish the round they are in: the committer is still running.
	s.closeStreams()
	s.wg.Wait()
	var errs []error
	if s.fwd != nil {
		// The barrier makes what -wal-fsync=interval acknowledged followable.
		if err := errors.Join(s.commit(&ingestJob{op: opBarrier}), s.fwd.drain()); err != nil {
			errs = append(errs, fmt.Errorf("final forward: %w", err))
		}
	}
	if err := s.Snapshot(); err != nil {
		errs = append(errs, err)
	}
	// Jobs are refused from here; the committer commits and acknowledges
	// what is already queued before it exits, so nothing accepted into
	// the pipeline goes unacknowledged and the log closes with no writer.
	s.closePipeline()
	if w := s.walRef(); w != nil {
		if err := w.Close(); err != nil {
			errs = append(errs, err)
		}
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
	return s.closeErr
}
