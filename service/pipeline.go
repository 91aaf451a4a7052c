package service

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Group commit: the one admission and the one log writer. Every durable
// mutation — an ingest batch, a pushed image, the records of a site's push
// round, a checkpoint marker, a recovery probe, a bare barrier (the interval
// fsync policy is one, on a ticker) — is a job: its source (a handler, a
// background loop) enqueues it and blocks, holding no lock, until the
// committer has committed the group it rode in. enqueue admits or refuses a
// client's job on the caller's goroutine, outside every lock: the tenant
// key and the tuples are checked there, so nothing the committer takes can
// be refused for what it carries. A job names its tenant by key and only
// the commit of a write makes a tenant (tenantForWriteLocked), so a write
// that is refused, shed or invalid leaves no trace: the registry is a
// function of the log. The committer is the single goroutine that applies
// jobs and that appends to, syncs, rewinds or probes the log while the
// server runs. It takes everything queued (up to the group caps) and, under
// one critical section of the driver lock, applies the jobs in queue order
// and appends each one's record: a maximal run of ingest jobs is resolved
// to tenants member by member, sorted by y per touched tenant, handed to
// each as one AddBatch and logged as one record of those sorted batches
// (applyGroupLocked, commitRunLocked); every other job
// goes through the per-record apply that replay and a replica's apply loop
// decode into (applyJobLocked). Then, outside the lock, one Sync covers
// every record of the group — the barrier under -wal-fsync=always — and
// only then are the waiters woken. A failed barrier has already rewound the
// group's records inside the log and nacks every waiter behind it together;
// no second writer exists whose fsync could make a nacked record durable or
// whose rewind could take an acknowledged one. Under K concurrent clients
// the fsync and the per-batch sort are paid once per group — the queue
// refills while the previous group is fsyncing, so the pipeline stays full
// with no timer or batching delay — and a lone client keeps groups of one.
//
// Crash-exactness holds by construction: a summary's state depends on
// where its AddBatch calls were cut and on what each was given, and the
// log holds exactly that — the run's WAL record (RecordIngest) is, per
// touched tenant, the argument of that tenant's one AddBatch: its members
// concatenated in commit order and sorted by y with the summary's own sort
// (core.SortByY), which the summary then finds sorted and leaves alone.
// Replay turns a record back into one job per tenant holding that batch
// and runs the live commit's own apply on them.

// errShuttingDown rejects a job that arrives after Close shut the pipeline.
var errShuttingDown = errors.New("service: shutting down")

// errOverloaded sheds ingest when the commit queue is at its configured
// bound. The message is wire-visible; the Go client's IsBusy matches
// the 429 status plus the "overload" text.
var errOverloaded = errors.New("service: ingest queue overloaded; back off and retry")

// ingestErrKind classifies a job's outcome; outcomes (below) maps each to
// what the transports reply.
type ingestErrKind uint8

const (
	ingestOK              ingestErrKind = iota
	ingestErrValidate                   // the key, batch or image failed validation (client's error)
	ingestErrEngine                     // the tenant's engine could not be restored or refused the job
	ingestErrWAL                        // the record's append or its group's barrier failed (not durable)
	ingestErrShutdown                   // the server is draining; never committed
	ingestErrTenant                     // MaxTenants refused to make the tenant the write names
	ingestErrTenantBytes                // MaxTenantBytes refused to make it
	ingestErrReadOnly                   // the server is a replica; writes go to the primary
	ingestErrDegraded                   // degraded mode: durability broken, writes suspended
	ingestErrBusy                       // commit queue at its bound; the job was shed
	ingestErrIncompatible               // a pushed image was built with other options
)

// outcomes maps a job's outcome to what each transport tells the client
// and the counter that records it beyond the endpoint's own error count.
var outcomes = [...]struct {
	status int                     // HTTP status
	ack    uint8                   // stream ack status
	count  func(*metrics) *counter // nil: the endpoint's error count is all
}{
	ingestOK:              {http.StatusOK, tupleio.AckOK, nil},
	ingestErrValidate:     {http.StatusBadRequest, tupleio.AckInvalid, nil},
	ingestErrEngine:       {http.StatusInternalServerError, tupleio.AckEngine, nil},
	ingestErrWAL:          {http.StatusInternalServerError, tupleio.AckWAL, func(m *metrics) *counter { return &m.walAppendErrors }},
	ingestErrShutdown:     {http.StatusServiceUnavailable, tupleio.AckShutdown, nil},
	ingestErrTenant:       {http.StatusTooManyRequests, tupleio.AckTenant, func(m *metrics) *counter { return &m.tenantRejectedLimit }},
	ingestErrTenantBytes:  {http.StatusRequestEntityTooLarge, tupleio.AckTenant, func(m *metrics) *counter { return &m.tenantRejectedMemory }},
	ingestErrReadOnly:     {http.StatusServiceUnavailable, tupleio.AckReadOnly, nil},
	ingestErrDegraded:     {http.StatusServiceUnavailable, tupleio.AckDegraded, func(m *metrics) *counter { return &m.degradedRejects }},
	ingestErrBusy:         {http.StatusTooManyRequests, tupleio.AckBusy, nil},
	ingestErrIncompatible: {http.StatusConflict, tupleio.AckInvalid, nil},
}

// jobOp names the record a job will write; the zero value is an ingest
// batch. The order matters: clients send the ops up to opPush (the ones
// IngestQueueMax sheds), and the ops from opCheckpoint on demand the
// group's barrier whatever the fsync policy.
type jobOp uint8

const (
	opIngest     jobOp = iota // tuples for the tenant named key; adjacent ingest jobs share one RecordIngest
	opPush                    // image merged into the tenant named key (RecordPush)
	opReset                   // a site's push round opens: the default tenant is reset, image is what it held (RecordReset)
	opPushAck                 // the round closes: the coordinator has the image (RecordPushAck)
	opFoldback                // the round closes the other way: image merged back (RecordFoldback)
	opCheckpoint              // image is uvarint(covered) of a snapshot already durable (RecordCheckpoint)
	opProbe                   // recovery probe: repair the tail, append a RecordProbe
	opBarrier                 // no record: the group's Sync alone
)

// imageRecord is the record type of each op whose payload is its image as
// it stands.
var imageRecord = [...]wal.RecordType{
	opReset: wal.RecordReset, opPushAck: wal.RecordPushAck,
	opFoldback: wal.RecordFoldback, opCheckpoint: wal.RecordCheckpoint,
}

// ingestJob is one durable mutation in flight through the commit
// pipeline. The done channel (capacity 1, reused across requests via the
// decodeState pool) carries the happens-before edge from the committer's
// writes of err/kind/lsn/image to the waiter's reads. lsn is the LSN of
// the job's record (0 without a WAL) — for an ingest batch its run's,
// which is what a stream ack reports. key names the tenant an ingest or a
// push addresses (it aliases the request's or the record's bytes; empty is
// the default tenant); the commit resolves it into tn, which stays nil on a
// job refused first. The committer only reads tuples — it sorts and logs
// its own copy, so the ack path sees the slice as the transport decoded it.
// A live opReset or opFoldback is queued without its image; the commit
// fills it in.
type ingestJob struct {
	op     jobOp
	tuples []correlated.Tuple
	image  []byte
	key    []byte
	tn     *tenant
	err    error
	kind   ingestErrKind
	lsn    uint64
	done   chan struct{}

	// Stage-tracing stamps (trace.go): plain field writes on the pooled
	// struct, overwritten every flight. enqueuedAt opens the "enqueue"
	// stage; wakeAt is set just before the done send so the waiter's
	// resume closes the "ack" stage.
	enqueuedAt time.Time
	wakeAt     time.Time
}

// commitPipeline is the queue between the job sources and the committer.
// done closes when the committer has drained the closed queue and exited.
type commitPipeline struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*ingestJob
	closed bool
	done   chan struct{}
}

// maxGroupTuples caps the tuple volume of one commit group so a run's
// WAL record stays far below wal.MaxPayload and the critical section
// stays short; the member that crosses the cap waits for the next group.
const maxGroupTuples = 1 << 20

// defaultGroupMax is the member-count cap per group when
// Config.IngestGroupMax is unset.
const defaultGroupMax = 256

// enqueue is the one admission: it hands a job to the committer — the
// caller then blocks on j.done — or refuses it, with its outcome set. A
// client's job (an ingest batch or a push) must carry a valid tenant key
// and tuples a summary's AddBatch will take — checked per member, so a bad
// one is rejected alone instead of failing the concatenated batch it would
// have ridden in — and is shed when the queue is at IngestQueueMax, so a
// shed request costs no engine or WAL work; the server's own jobs are
// never shed. Every job is refused once the pipeline has shut down.
func (s *Server) enqueue(j *ingestJob) bool {
	j.err, j.kind, j.lsn, j.tn = nil, ingestOK, 0, nil
	j.enqueuedAt = time.Now()
	if j.op <= opPush {
		if j.err = tupleio.ValidateTenant(j.key); j.err == nil {
			j.err = s.validateBatch(j.tuples)
		}
		if j.err != nil {
			j.kind = ingestErrValidate
			return false
		}
	}
	p := &s.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		j.err, j.kind = errShuttingDown, ingestErrShutdown
		return false
	}
	if max := s.cfg.IngestQueueMax; max > 0 && len(p.queue) >= max && j.op <= opPush {
		s.metrics.ingestShed.Inc()
		j.err, j.kind = errOverloaded, ingestErrBusy
		return false
	}
	p.queue = append(p.queue, j)
	s.metrics.queueDepth.Set(int64(len(p.queue)))
	if len(p.queue) == 1 {
		p.cond.Signal()
	}
	return true
}

// commit runs one of the server's own jobs through the committer and
// waits for its outcome. Callers hold no lock the committer takes: not mu.
func (s *Server) commit(j *ingestJob) error {
	j.done = make(chan struct{}, 1)
	if s.enqueue(j) {
		<-j.done
	}
	return j.err
}

// closePipeline stops accepting jobs and waits for the committer to
// commit and acknowledge what is already queued, and exit.
func (s *Server) closePipeline() {
	p := &s.pipe
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
}

// committer is the single goroutine that owns the write side: take
// everything queued (bounded by the group caps), commit it, repeat.
func (s *Server) committer() {
	p := &s.pipe
	defer close(p.done)
	var group []*ingestJob
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return // closed and drained
		}
		n := len(p.queue)
		if n > s.groupMax {
			n = s.groupMax
		}
		take, total := 0, 0
		for ; take < n; take++ {
			total += len(p.queue[take].tuples)
			if take > 0 && total > maxGroupTuples {
				break
			}
		}
		group = append(group[:0], p.queue[:take]...)
		rest := copy(p.queue, p.queue[take:])
		for i := rest; i < len(p.queue); i++ {
			p.queue[i] = nil
		}
		p.queue = p.queue[:rest]
		s.metrics.queueDepth.Set(int64(len(p.queue)))
		p.mu.Unlock()
		s.commitGroup(group)
	}
}

// validateBatch is the check a summary's AddBatch would make.
func (s *Server) validateBatch(batch []correlated.Tuple) error {
	ymax := s.cfg.Options.YMax
	for i := range batch {
		if batch[i].Y > ymax {
			return fmt.Errorf("service: y = %d exceeds YMax = %d", batch[i].Y, ymax)
		}
		if batch[i].W < 0 {
			return fmt.Errorf("service: weight must be positive, got %d", batch[i].W)
		}
	}
	return nil
}

// tenantBatch is what one touched tenant's one AddBatch of a group was
// given: a span of the committer's scratch (Server.applyBuf), sorted by y.
type tenantBatch struct {
	t      *tenant
	tuples []correlated.Tuple
}

// applyGroupLocked resolves a group's members to their tenants and applies
// them: each touched tenant gets exactly one AddBatch, of its members in
// commit order, concatenated into the committer's scratch — a member's own
// slice is only read — and sorted there by y with the summary's own sort
// (core.SortByY: same sort, same input, so the order inside an equal-y run
// is the one AddBatch itself would have produced, and AddBatch finds the
// batch sorted). It sets every member's tn and kind (and err), bumps each
// touched tenant's epoch, and returns what each tenant's AddBatch took, in
// first-touch order — the record commitRunLocked logs; none when no member
// was applied. The live committer (caps on), startup replay and a replica's
// apply loop (caps off) all come through here: a record decodes into one
// member per tenant, already sorted, which the sort leaves as it is — which
// is what makes their bytes equal. A member naming a new tenant makes it, or
// is refused alone by a cap; a group may span tenants. Callers hold s.mu, or
// run before any goroutine exists, and hand the scratch back
// (releaseGroupLocked) once they are done with the batches.
func (s *Server) applyGroupLocked(group []*ingestJob, caps bool) (batches []tenantBatch) {
	batches = s.touchedBuf[:0]
	total := 0
	for _, j := range group {
		if j.tn, j.kind, j.err = s.tenantForWriteLocked(j.key, caps); j.err != nil {
			continue
		}
		s.registerLocked(j.tn)
		if _, err := s.ensureEngineLocked(j.tn); err != nil {
			j.err, j.kind = err, ingestErrEngine
			continue
		}
		total += len(j.tuples)
		if !j.tn.inGroup {
			j.tn.inGroup = true
			batches = append(batches, tenantBatch{t: j.tn})
		}
	}
	// Sized once, so a tenant's span is not moved by a later tenant's.
	buf := slices.Grow(s.applyBuf[:0], total)
	note := s.notesAtCommit()
	// batches is rebuilt over touched's own array — it never outruns the
	// read — keeping the tenants whose engine took their batch.
	touched := batches
	batches = batches[:0]
	for _, b := range touched {
		t := b.t
		lo := len(buf)
		for _, j := range group {
			if j.tn == t && j.kind == ingestOK {
				buf = append(buf, j.tuples...)
			}
		}
		batch := buf[lo:]
		core.SortByY(batch)
		if err := t.eng.AddBatch(batch); err != nil {
			// Every member passed validateBatch at admission, so the
			// summary has no reason to refuse; if it does, it refused the
			// whole batch untouched, and the tenant's members are nacked
			// together and the tenant left out of the record.
			for _, j := range group {
				if j.tn == t && j.kind == ingestOK {
					j.err, j.kind = err, ingestErrEngine
				}
			}
			buf = buf[:lo]
		} else {
			batches = append(batches, tenantBatch{t, batch})
		}
		t.inGroup = false
		t.epoch.Add(1)
		t.touch()
		if note {
			s.noteFootprintLocked(t)
		}
	}
	s.applyBuf, s.touchedBuf = buf, touched
	return batches
}

// releaseGroupLocked ends the life of applyGroupLocked's batches: the
// scratch they span is kept for the next group unless a rare huge one grew
// it past what is worth holding.
func (s *Server) releaseGroupLocked() {
	s.applyBuf = pooledTuples(s.applyBuf)
	clear(s.touchedBuf)
}

// applyJobLocked is the one apply of every record that is not an ingest
// group: the live commit, startup replay and a replica's apply loop all
// reach a push, a reset, a push-ack and a fold-back here (applyRecord
// decodes a record into the job the live commit held). It sets a failed
// job's kind and err, and bumps the epoch of the tenant it changed. caps
// is applyGroupLocked's: a push is the one job here that can name a new
// tenant. Callers hold s.mu, or run before any goroutine exists.
func (s *Server) applyJobLocked(j *ingestJob, caps bool) {
	t := s.def
	switch j.op {
	case opPush:
		if t, j.kind, j.err = s.tenantForWriteLocked(j.key, caps); j.err != nil {
			return
		}
		eng, err := s.ensureEngineLocked(t)
		if err != nil {
			j.err, j.kind = err, ingestErrEngine
			return
		}
		if err := eng.MergeMarshaled(j.image); err != nil {
			// Attacker-controlled bytes: the fuzz-hardened merge refused
			// them and left the engine untouched — and a tenant made for
			// them unregistered.
			j.err, j.kind = err, ingestErrValidate
			if errors.Is(err, correlated.ErrIncompatible) {
				j.kind = ingestErrIncompatible
			}
			return
		}
		s.registerLocked(t)
		j.tn = t
	case opReset:
		t.eng.Reset()
		s.round = j.image
	case opFoldback:
		// One record carries the merge and closes the round, so a crash
		// can never replay them separately and double-apply the image.
		if err := t.eng.MergeMarshaled(j.image); err != nil {
			j.err, j.kind = err, ingestErrEngine
			return
		}
		s.round = nil
	case opPushAck:
		s.round = nil
		return
	default:
		return // a marker, a probe, a barrier: no state
	}
	t.epoch.Add(1)
	t.touch()
	if s.notesAtCommit() {
		s.noteFootprintLocked(t)
	}
}

// foldOpenRoundLocked closes an open push round without a record, through
// the fold-back's own apply: a round whose RecordReset never became
// durable, or one a crash or a failover cut short (the coordinator may or
// may not hold the image; the next round ships the union — at-least-once
// across that window, never silent loss). Callers hold s.mu, or run
// before any goroutine exists.
func (s *Server) foldOpenRoundLocked(why string) error {
	if len(s.round) == 0 {
		return nil
	}
	s.logf("push round open at %s; image folded back for re-push", why)
	j := ingestJob{op: opFoldback, image: s.round}
	s.applyJobLocked(&j, false)
	return j.err
}

// commitJobLocked applies one non-ingest job at its place in the queue
// and appends its record. Callers hold s.mu.
func (s *Server) commitJobLocked(w *wal.WAL, j *ingestJob) {
	switch j.op {
	case opReset:
		// The round's image is the state this reset is about to clear.
		if s.def.eng.Count() == 0 {
			return // nothing accumulated since the last push: no round, no record
		}
		if j.image, j.err = s.def.eng.MarshalBinary(); j.err != nil {
			j.kind = ingestErrEngine
			return
		}
	case opFoldback:
		j.image = s.round
	}
	s.applyJobLocked(j, true)
	if j.kind != ingestOK || w == nil {
		return
	}
	var err error
	switch j.op {
	case opBarrier:
		return
	case opProbe:
		j.lsn, err = w.Probe()
	case opPush:
		buf := append(tupleio.AppendTenant(s.groupBuf[:0], j.tn.name), j.image...)
		j.lsn, err = w.AppendNoSync(wal.RecordPush, buf)
		s.groupBuf = pooledBytes(buf)
	default:
		j.lsn, err = w.AppendNoSync(imageRecord[j.op], j.image)
	}
	if err != nil {
		j.err, j.kind = err, ingestErrWAL
		if j.op == opReset {
			// The engine is reset but the round never reached the log:
			// fold the image straight back. The log sees neither a reset
			// nor a merge — consistent, since the two cancel out.
			j.err = errors.Join(err, s.foldOpenRoundLocked("a failed reset append"))
		}
	}
}

// commitRunLocked applies a run of ingest jobs as one group and appends
// its one record: what each touched tenant's AddBatch was given. Callers
// hold s.mu.
func (s *Server) commitRunLocked(w *wal.WAL, run []*ingestJob, dequeued time.Time) {
	defer s.releaseGroupLocked()
	batches := s.applyGroupLocked(run, true)
	if len(batches) == 0 {
		return
	}
	applyEnd := time.Now()
	s.metrics.stages[stageApply].Observe(applyEnd.Sub(dequeued).Seconds())
	if w == nil {
		return
	}
	// One append orders the run in the log. It is deliberately not the
	// fsync: that happens outside the driver lock, so the next group's
	// decode (and any query evaluation) overlaps this group's disk wait
	// instead of queueing behind it. A batch the encoder refuses (it is not
	// sorted: a bug, never an input) is an append that failed — nothing of
	// the run is logged.
	var lsn uint64
	buf, err := appendIngest(s.groupBuf[:0], batches)
	if err == nil {
		lsn, err = w.AppendNoSync(wal.RecordIngest, buf)
	}
	s.groupBuf = pooledBytes(buf)
	s.metrics.stages[stageAppend].Observe(time.Since(applyEnd).Seconds())
	for _, j := range run {
		if j.kind != ingestOK {
			continue
		}
		j.lsn = lsn
		if err != nil {
			// The engine holds the run but the log does not: not
			// acknowledged, so a crash dropping it is within contract.
			j.err, j.kind = err, ingestErrWAL
		}
	}
}

// commitGroup commits one taken queue: under a single critical section of
// the driver lock it applies the jobs in queue order and appends their
// records — each maximal run of ingest jobs as one group, one record —
// then one Sync outside the lock covers them all, then every job is woken
// with its outcome. A member of an ingest run that a governance cap refuses
// is rejected alone and left out of the run's record; a failed append nacks
// its own job (its run's members, who were applied together); a failed
// barrier nacks every job behind it under -wal-fsync=always, where it
// rewound their records, and under interval and off — nothing rewound —
// only the jobs that demanded it. The stage histograms (trace.go) and the
// group counters describe ingest runs only, whatever shares the queue.
func (s *Server) commitGroup(group []*ingestJob) {
	dequeued := time.Now()
	w := s.walRef()
	s.mu.Lock()
	for i := 0; i < len(group); {
		if group[i].op != opIngest {
			s.commitJobLocked(w, group[i])
			i++
			continue
		}
		end := i + 1
		for end < len(group) && group[end].op == opIngest {
			end++
		}
		s.commitRunLocked(w, group[i:end], dequeued)
		i = end
	}
	s.mu.Unlock()
	// What is left: records awaiting the barrier, a job demanding one
	// whatever the policy, how much ingest was applied, a log failure.
	var pending, force bool
	var applied int
	var walErr, syncErr error
	for _, j := range group {
		pending = pending || j.lsn != 0
		force = force || j.op >= opCheckpoint
		if j.op == opIngest && (j.kind == ingestOK || j.kind == ingestErrWAL) {
			applied++ // the engine holds it, whatever the log says
		}
		if j.kind == ingestErrWAL && walErr == nil {
			walErr = j.err
		}
	}
	policy := s.cfg.walFsync()
	barrier := w != nil && (force || pending && policy == "always")
	if barrier {
		// The group-wide durability barrier the acks below stand behind:
		// one fsync for every record of the group. (Under fsync=interval
		// and off an ack never promised durability, so only a job that
		// demands it waits.) A barrier that fails under fsync=always has
		// rewound the group's records out of the log, so a restart
		// replays exactly the acknowledged record set.
		fsyncStart := time.Now()
		syncErr = w.Sync()
		if applied > 0 && walErr == nil {
			s.metrics.stages[stageFsync].Observe(time.Since(fsyncStart).Seconds())
		}
		if syncErr != nil {
			walErr = syncErr
		}
	}
	if walErr != nil {
		// Any record's log failure counts toward degrading.
		s.noteWALError(walErr)
	} else if barrier || pending && policy == "off" {
		// A clean fsync resets the streak; a clean append only where nothing
		// ever fsyncs — the appends acknowledged between two failing
		// interval barriers say nothing about the disk.
		s.health.walErrs.Store(0)
	}
	if applied > 0 {
		// The group's wall time prices the overload Retry-After hint.
		obs := time.Since(dequeued).Seconds()
		if prev := s.groupLatency.Load(); prev > 0 {
			obs = 0.2*obs + 0.8*prev
		}
		s.groupLatency.Set(obs)
	}
	wake := time.Now()
	members, tuples := 0, 0
	for i, j := range group {
		if syncErr != nil && j.kind == ingestOK && (j.op >= opCheckpoint || policy == "always" && j.lsn != 0) {
			// Demanded the failed barrier, or was rewound by it; a reset is
			// folded back, as if its append had failed.
			j.err, j.kind, j.lsn = syncErr, ingestErrWAL, 0
			if j.op == opReset {
				s.mu.Lock()
				j.err = errors.Join(syncErr, s.foldOpenRoundLocked("a failed reset barrier"))
				s.mu.Unlock()
			}
		}
		if j.op == opIngest {
			s.metrics.stages[stageEnqueue].Observe(dequeued.Sub(j.enqueuedAt).Seconds())
			if j.kind == ingestOK {
				members++
				tuples += len(j.tuples)
			}
		}
		if members > 0 && (i+1 == len(group) || group[i+1].op != opIngest) {
			// An acknowledged ingest run closes here.
			s.metrics.ingestGroups.Inc()
			s.metrics.ingestGroupMembers.Add(uint64(members))
			s.metrics.groupSize.Observe(float64(members))
			s.metrics.groupTuples.Observe(float64(tuples))
			members, tuples = 0, 0
		}
		j.wakeAt = wake
		j.done <- struct{}{}
	}
}

// overloadRetryAfter prices a shed request's Retry-After hint: the
// commit-group latency EWMA times the groups already queued ahead of a
// new arrival — roughly when the backlog will have drained — clamped to
// [1s, 30s] so the hint is never zero and never absurd.
func (s *Server) overloadRetryAfter() time.Duration {
	p := &s.pipe
	p.mu.Lock()
	depth := len(p.queue)
	p.mu.Unlock()
	groups := depth/s.groupMax + 1
	d := time.Duration(s.groupLatency.Load() * float64(groups) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// appendIngest appends an ingest record's payload: one sorted batch
// (tupleio.AppendSortedBatch; the empty key for the default tenant) per
// tenant the group touched and applied, back to back in first-touch order.
// The frame length delimits the record; replayState.decodeIngest is the
// inverse.
func appendIngest(buf []byte, batches []tenantBatch) ([]byte, error) {
	for _, b := range batches {
		var err error
		if buf, err = tupleio.AppendSortedBatch(buf, b.t.name, b.tuples); err != nil {
			return buf, err
		}
	}
	return buf, nil
}
