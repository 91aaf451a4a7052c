package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/fault"
	"github.com/streamagg/correlated/internal/tupleio"
)

// routes wires the HTTP surface. Method-qualified patterns (Go 1.22
// ServeMux) give wrong-method requests a 405 for free.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("POST /v1/forward", s.instrument("forward", s.handleForward))
	s.mux.HandleFunc("GET /v1/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/summary", s.instrument("summary", s.handleSummary))
	s.mux.HandleFunc("POST /v1/promote", s.instrument("promote", s.handlePromote))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/recover", s.handleRecover)
	// The fault surface exists only when the process was started with an
	// injector (cmd/corrd -fault-plan): a production daemon has no
	// endpoint to find, let alone abuse.
	if inj, ok := s.cfg.FS.(*fault.Injector); ok {
		s.mux.HandleFunc("POST /v1/fault", s.handleFault(inj))
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// handleFault is POST /v1/fault: install (or clear, with "off") a new
// fault plan on the live injector. The body is the plan DSL text.
func (s *Server) handleFault(inj *fault.Injector) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 4096))
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err)
			return
		}
		plan, err := fault.ParsePlan(string(body))
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err)
			return
		}
		inj.SetPlan(plan)
		s.logf("fault: plan set to %q (injected so far: %d)", plan.String(), inj.Injected())
		writeJSON(w, http.StatusOK, map[string]any{"plan": plan.String(), "injected": inj.Injected()})
	}
}

// maxPooledBuffer caps what a recycled decodeState may retain: a rare
// near-MaxBodyBytes request must not leave a pool entry permanently
// pinning tens of MiB, so oversized buffers are dropped and reallocated
// by the next large request instead.
const maxPooledBuffer = 4 << 20

// pooledTuples returns b for reuse, or nil when a rare huge batch grew it
// past what a long-lived scratch buffer may pin.
func pooledTuples(b []correlated.Tuple) []correlated.Tuple {
	if cap(b)*24 > maxPooledBuffer { // 24 bytes per Tuple
		return nil
	}
	return b
}

// pooledBytes is pooledTuples for an encode or body buffer.
func pooledBytes(b []byte) []byte {
	if cap(b) > maxPooledBuffer {
		return nil
	}
	return b
}

// putDecodeState recycles d unless a large request inflated it. The
// job's references are always dropped: its member aliases d.body, and
// leaving it set would keep an oversized backing array alive through
// the pool even after the trim below released d.body itself.
func (s *Server) putDecodeState(d *decodeState) {
	d.job.member, d.job.image, d.job.key, d.job.recs, d.job.tn, d.job.err = nil, nil, nil, nil, nil, nil
	d.job.n, d.job.lsn, d.streamSeq = 0, 0, 0
	d.body = pooledBytes(d.body)
	s.dec.Put(d)
}

// instrument wraps a handler with the observability spine: the
// per-handler latency histogram, X-Request-ID accept/generate/echo,
// the access-log record, and the slow-request promotion. The ID is
// echoed on every response — success or rejection — so a client can
// correlate any outcome with the server's access log.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(&sw, r)
		d := time.Since(start)
		s.metrics.observe(name, d)
		if s.access != nil {
			s.access.record(accessRecord{
				ts:        start,
				transport: "http",
				method:    r.Method,
				path:      r.URL.Path,
				tenant:    r.URL.Query().Get("tenant"),
				requestID: rid,
				status:    sw.status,
				bytesIn:   r.ContentLength,
				bytesOut:  sw.bytes,
				dur:       d,
			})
		}
		if s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
			s.metrics.slowRequests.Inc()
			s.logf("slow request: %s %s status=%d dur=%s request_id=%s",
				r.Method, r.URL.Path, sw.status, d.Round(time.Microsecond), rid)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) httpError(w http.ResponseWriter, status int, err error) {
	body := map[string]any{"error": err.Error()}
	var gap gapError
	switch {
	case errors.As(err, new(tooLargeError)):
		body["code"] = client.CodeTooLarge
	case errors.As(err, &gap):
		body["code"], body["mark"] = client.CodeGap, gap.mark
	}
	writeJSON(w, status, body)
}

// tooLargeError is a request larger than this server takes: a body past
// MaxBodyBytes, a forward past maxForwardTuples. Its 413 names
// client.CodeTooLarge, on which a site sends fewer records.
type tooLargeError struct{ error }

// readTenant resolves ?tenant= for a read path (query, summary, stats):
// reads never create a namespace, so an unknown key is a plain 404.
func (s *Server) readTenant(w http.ResponseWriter, r *http.Request) *tenant {
	name := r.URL.Query().Get("tenant")
	t := s.tenantByName(name)
	if t == nil {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", name))
		return nil
	}
	return t
}

// readBody drains the request body into dst (reusing its capacity),
// enforcing the configured byte cap. It reports 413 on overflow itself
// and returns ok=false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, dst []byte) ([]byte, bool) {
	rd := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, true
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.httpError(w, http.StatusRequestEntityTooLarge,
					tooLargeError{fmt.Errorf("body exceeds %d bytes", mbe.Limit)})
			} else {
				s.httpError(w, http.StatusBadRequest, err)
			}
			return dst, false
		}
	}
}

// nack answers a write that was refused or failed, by the outcomes table:
// the error counts, the Retry-After of the back-off outcomes, the status.
func (s *Server) nack(w http.ResponseWriter, errs *counter, kind ingestErrKind, err error) {
	errs.Inc()
	o := &outcomes[kind]
	if o.count != nil {
		o.count(s.metrics).Inc()
	}
	switch kind {
	case ingestErrDegraded:
		w.Header().Set("Retry-After", retryAfterSeconds(healthProbeInterval))
	case ingestErrBusy:
		w.Header().Set("Retry-After", retryAfterSeconds(s.overloadRetryAfter()))
	case ingestErrWAL:
		// Neither the log nor the engine holds the job: tell the client
		// the write is not durable.
		err = fmt.Errorf("wal append: %w", err)
	}
	s.httpError(w, o.status, err)
}

// writeGate reports why this server takes no writes in its current state
// — a standby's client writes go to its primary, a degraded server's wait
// for recovery — or ingestOK. A forward passes a standby's gate: it is how
// a standby is fed. Every transport asks before it reads or decodes
// anything.
func (s *Server) writeGate(forward bool) (ingestErrKind, error) {
	switch {
	case s.standby.Load() && !forward:
		return ingestErrReadOnly, errReadOnlyReplica
	case s.healthDegraded():
		return ingestErrDegraded, errDegraded
	}
	return ingestOK, nil
}

// commitRequest hands a request's job, addressed to its ?tenant= key, to
// the commit pipeline, waits for its group to commit — the reply is sent
// only after that group-wide durability barrier — and answers every outcome
// but success, admission's refusals and the commit's alike.
func (s *Server) commitRequest(w http.ResponseWriter, r *http.Request, errs *counter, j *ingestJob) bool {
	j.key = []byte(r.URL.Query().Get("tenant"))
	if s.enqueue(j) {
		<-j.done
		if j.op == opIngest {
			s.metrics.stages[stageAck].Observe(time.Since(j.wakeAt).Seconds())
		}
	}
	if j.kind != ingestOK {
		s.nack(w, errs, j.kind, j.err)
		return false
	}
	return true
}

// handleIngest accepts a batch of tuples — the binary tupleio stream
// from the Go client, or text lines "x,y[,w]" for curl-friendly ingest —
// and hands it to the commit pipeline as a counted batch, the one form a
// queued member takes: the binary body gains the count in front of its
// records, the text is parsed and encoded. A rejected batch has ingested
// nothing.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	errs := &s.metrics.ingestErrors
	if kind, err := s.writeGate(false); kind != ingestOK {
		s.nack(w, errs, kind, err)
		return
	}
	d := s.dec.Get().(*decodeState)
	defer s.putDecodeState(d)
	var ok bool
	if d.body, ok = s.readBody(w, r, d.body); !ok {
		errs.Inc()
		return
	}
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	switch ct {
	case tupleio.ContentType, "application/octet-stream", "":
		d.body = tupleio.Counted(d.body)
	case "text/csv", "text/plain":
		tuples, err := parseTextTuples(nil, d.body)
		if err != nil {
			s.nack(w, errs, ingestErrValidate, err)
			return
		}
		d.body = tupleio.AppendCountedBatch(d.body[:0], tuples)
	default:
		errs.Inc()
		s.httpError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("unsupported Content-Type %q (want %s or text/csv)", ct, tupleio.ContentType))
		return
	}
	// The committer logs the whole group behind one WAL fsync and then
	// applies it under one driver-lock section: under concurrent clients
	// the per-request ack cost is the group's divided by its size.
	d.job.op, d.job.member = opIngest, d.body
	if !s.commitRequest(w, r, errs, &d.job) {
		return
	}
	s.metrics.tuplesIngested.Add(uint64(d.job.n))
	d.job.tn.tuplesIngested.Add(uint64(d.job.n))
	writeJSON(w, http.StatusOK, map[string]uint64{"tuples": uint64(d.job.n)})
}

// parseTextTuples parses newline-separated "x,y" or "x,y,w" records
// (blank lines and #-comments ignored) into dst. A negative weight is
// refused here: the counted form the batch is queued as has none.
func parseTextTuples(dst []correlated.Tuple, body []byte) ([]correlated.Tuple, error) {
	dst = dst[:0]
	for lineNo, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 && len(parts) != 3 {
			return dst[:0], fmt.Errorf("line %d: want x,y or x,y,w", lineNo+1)
		}
		var t correlated.Tuple
		var err error
		if t.X, err = strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64); err != nil {
			return dst[:0], fmt.Errorf("line %d: bad x: %w", lineNo+1, err)
		}
		if t.Y, err = strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64); err != nil {
			return dst[:0], fmt.Errorf("line %d: bad y: %w", lineNo+1, err)
		}
		t.W = 1
		if len(parts) == 3 {
			if t.W, err = strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64); err != nil {
				return dst[:0], fmt.Errorf("line %d: bad weight: %w", lineNo+1, err)
			}
			if t.W < 0 {
				return dst[:0], fmt.Errorf("line %d: weight must be positive, got %d", lineNo+1, t.W)
			}
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// handleQuery answers GET /v1/query?op=le|ge&c=N. The c parameter may
// repeat (?op=le&c=10&c=100&c=1000): all cutoffs are answered together,
// so a drill-down loop pays one round trip instead of one per cutoff. A
// single c keeps the original wire shape; multiple return
// {"op":...,"results":[...]}.
//
// Answers are memoized per tenant: an (op, cutoff) estimate is evaluated
// on the live summary, under the driver lock, and then served without
// any lock on an engine for as long as the tenant's state has not moved
// (or, with Config.QueryMaxStale, for that long regardless). Repeated
// queries against unmoved state never block ingest; a request that
// repeats some cutoffs and adds others evaluates only the new ones.
// Read-your-writes holds: an acknowledged ingest bumped the tenant's
// epoch before its ack, so a later query finds its memoized answers
// stale and evaluates again.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	op := q.Get("op")
	if op == "" {
		op = "le"
	}
	if op != "le" && op != "ge" {
		s.metrics.queryErrors.Inc()
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad op %q (want le or ge)", op))
		return
	}
	raw := q["c"]
	if len(raw) == 0 {
		s.metrics.queryErrors.Inc()
		s.httpError(w, http.StatusBadRequest, errors.New("missing cutoff c"))
		return
	}
	if len(raw) > maxCutoffsPerQuery {
		s.metrics.queryErrors.Inc()
		s.httpError(w, http.StatusBadRequest,
			fmt.Errorf("%d cutoffs in one query (cap is %d)", len(raw), maxCutoffsPerQuery))
		return
	}
	cutoffs := make([]uint64, len(raw))
	for i, rc := range raw {
		c, err := strconv.ParseUint(rc, 10, 64)
		if err != nil {
			s.metrics.queryErrors.Inc()
			s.httpError(w, http.StatusBadRequest, fmt.Errorf("bad cutoff c=%q: %w", rc, err))
			return
		}
		cutoffs[i] = c
	}
	tn := s.readTenant(w, r)
	if tn == nil {
		s.metrics.queryErrors.Inc()
		return
	}
	// Serve what the tenant's memo can; take the driver lock — which
	// also materializes a spilled tenant — only for the rest. The memo is
	// consulted again under the lock: concurrent queries for the same
	// cutoffs queue on it, and all but the first find the answer there,
	// so the evaluation rate is bounded per cutoff, not per client.
	estimates := make([]float64, len(cutoffs))
	missing := make([]int, len(cutoffs))
	for i := range missing {
		missing[i] = i
	}
	ge, now := op == "ge", time.Now()
	missing = tn.memoServe(ge, cutoffs, estimates, missing, now, s.cfg.QueryMaxStale)
	var err error
	if len(missing) > 0 {
		s.mu.Lock()
		var eng Engine
		if eng, err = s.ensureEngineLocked(tn); err == nil {
			missing = tn.memoServe(ge, cutoffs, estimates, missing, now, s.cfg.QueryMaxStale)
			err = tn.memoEvaluate(eng, ge, cutoffs, estimates, missing, now)
		}
		s.mu.Unlock()
	}
	if len(missing) > 0 {
		s.metrics.queryCacheRebuilds.Inc()
	} else {
		s.metrics.queryCacheHits.Inc()
	}
	tn.touch()
	tn.queries.Add(uint64(len(cutoffs)))
	if err != nil {
		s.metrics.queryErrors.Inc()
		s.httpError(w, statusForQuery(err), err)
		return
	}
	results := make([]client.QueryResult, len(cutoffs))
	for i, c := range cutoffs {
		results[i] = client.QueryResult{Op: op, C: c, Estimate: estimates[i]}
	}
	if op == "le" {
		s.metrics.queriesLE.Add(uint64(len(cutoffs)))
	} else {
		s.metrics.queriesGE.Add(uint64(len(cutoffs)))
	}
	if len(results) == 1 {
		writeJSON(w, http.StatusOK, results[0])
		return
	}
	writeJSON(w, http.StatusOK, client.MultiQueryResult{Op: op, Results: results})
}

// maxCutoffsPerQuery bounds the per-request work of a multi-cutoff
// query; each cutoff not memoized costs one query on the live summary
// under the driver lock.
const maxCutoffsPerQuery = 1024

// statusForQuery maps query errors: misuse is 400, the paper's FAIL
// output (ErrNoLevel, probability <= Delta) is 503 — the client may
// retry a nearby cutoff.
func statusForQuery(err error) int {
	switch {
	case errors.Is(err, correlated.ErrDirection):
		return http.StatusBadRequest
	case errors.Is(err, correlated.ErrNoLevel):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleStats reports the serving-state counters as JSON. Without a
// ?tenant= key the engine fields describe the default tenant (the
// single-tenant wire shape, unchanged) plus registry-wide aggregates;
// with one, the engine fields and per-tenant counters describe that
// tenant — materializing it if it was spilled, like any other touch. The
// memory object (memory.go) follows the same rule for what the summaries
// hold and is process-wide for the rest.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tn := s.def
	named := r.URL.Query().Has("tenant")
	if named {
		if tn = s.readTenant(w, r); tn == nil {
			return
		}
	}
	s.mu.Lock()
	eng, err := s.ensureEngineLocked(tn)
	var count uint64
	var space int64
	var mem *client.Memory
	var accounted, arena int64
	if err == nil {
		count, space = eng.Count(), eng.Space()
		var view *tenant // nil: every tenant
		if named {
			view = tn
		}
		mem, accounted, arena = s.memoryLedgerLocked(view)
	}
	s.mu.Unlock()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	mem.QueuedMemberBytes = s.queuedMemberBytes()
	finishLedger(mem, accounted+mem.QueuedMemberBytes, arena)
	if named {
		tn.touch()
	}
	total, live := s.tenantCounts()
	st := client.Stats{
		Role:           s.roleNow(),
		Aggregate:      s.cfg.aggregate(),
		Count:          count,
		Space:          space,
		TuplesIngested: s.metrics.tuplesIngested.Load(),
		QueriesServed:  s.metrics.queriesLE.Load() + s.metrics.queriesGE.Load(),
		Restored:       s.restored,
		LastSnapshot:   s.metrics.lastSnapshotUnix.Load(),
		UptimeSeconds:  time.Since(s.metrics.start).Seconds(),

		IngestGroups:       s.metrics.groupSize.count.Load(),
		IngestGroupReqs:    s.metrics.groupSize.nanoSum() / 1e9, // each observation is a whole count of requests
		QueryCacheHits:     s.metrics.queryCacheHits.Load(),
		QueryCacheRebuilds: s.metrics.queryCacheRebuilds.Load(),

		StreamConns:      s.metrics.streamConns.Load(),
		StreamConnsTotal: s.metrics.streamConnsTotal.Load(),
		StreamFrames:     s.metrics.streamFrames.Load(),
		StreamTuples:     s.metrics.streamTuples.Load(),

		Tenants:        total,
		TenantsLive:    live,
		TenantBytes:    s.tenantBytes.Load(),
		TenantSpills:   s.metrics.tenantsSpilled.Load(),
		TenantRestores: s.metrics.tenantsRestored.Load(),

		PipelineStages: s.metrics.stageBreakdown(),

		Health:          healthName(s.health.state.Load()),
		DegradedSeconds: s.health.degradedSeconds(),

		Memory: mem,
	}
	if named {
		st.Tenant = tn.name
		st.TenantTuplesIngested = tn.tuplesIngested.Load()
		st.TenantQueriesServed = tn.queries.Load()
		st.TenantSpills = tn.spills.Load()
		st.TenantRestores = tn.restores.Load()
	}
	ws := s.wal.Stats()
	st.WALFsyncs = ws.Fsyncs
	st.WALSegments = ws.Segments
	st.WALAppendedBytes = ws.AppendedBytes
	st.WALLastLSN = ws.LastLSN
	st.WALReplayRecords = uint64(s.metrics.walReplayRecords.Load())
	st.WALReplaySeconds = s.metrics.walReplaySeconds.Load()
	var stalled []string
	for i, f := range s.fwds {
		if acked := f.acked.Load(); i == 0 || acked < st.ForwardAckedLSN {
			st.ForwardAckedLSN = acked
		}
		if msg := f.stalled.Load(); msg != nil {
			stalled = append(stalled, *msg)
		}
	}
	st.ForwardStalled = strings.Join(stalled, "; ")
	st.Promoted = s.cfg.Standby && !s.standby.Load()
	writeJSON(w, http.StatusOK, st)
}

// handleSummary serves a tenant's summary image — the bytes a snapshot
// entry holds, for an offline tool (the library's UnmarshalBinary or
// MergeMarshaled) to pull. ?tenant= selects the
// namespace; unknown keys are 404. A spilled tenant is served its parked
// image — a read does not un-spill it — unless it was installed empty (a
// snapshot entry of no bytes): the empty summary's image is not zero
// bytes, so an engine writes it.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	tn := s.readTenant(w, r)
	if tn == nil {
		return
	}
	s.mu.Lock()
	img, err := tn.imageLocked()
	if err == nil && len(img) == 0 {
		if _, err = s.ensureEngineLocked(tn); err == nil {
			img, err = tn.imageLocked()
		}
	}
	s.mu.Unlock()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	tn.touch()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(img)))
	w.Write(img)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.httpError(w, http.StatusServiceUnavailable, errors.New("shutting down"))
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}

// handleMetrics renders the Prometheus text exposition from atomics and
// the registry's counts: a scrape takes no driver lock and walks no
// summary (/v1/stats serves a tenant's count and space), and nothing it
// reads stops the world.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var ts tenantStats
	ts.total, ts.live = s.tenantCounts()
	ts.bytes = s.tenantBytes.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, ts, s.wal.Stats(), &s.health)
}
