package service

import (
	"bytes"
	"cmp"
	"encoding/binary"
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
// mutation — an ingest batch, a pushed image, a record a site forwarded, a
// checkpoint marker, a recovery probe, a bare barrier (the interval fsync
// policy is one, on a ticker) — is a job: its source enqueues it and
// blocks, holding no lock, until the committer has committed the group it
// rode in. enqueue admits or refuses a client's job on the caller's
// goroutine, outside every lock, so nothing the committer takes can be
// refused for what it carries. Only the apply of a logged write makes a
// tenant, so the registry is a function of the log.
//
// The committer is the single goroutine that applies jobs and that appends
// to, syncs, rewinds or probes the log while the server runs. It takes
// everything queued (up to the group caps) and commits it log first. Under
// s.mu it decides each job's record (decideLocked): a maximal run
// of ingest jobs is one record of a batch per touched tenant — its admitted
// members concatenated in commit order, then sorted by y outside the lock
// (core.SortByY; wal.go's third invariant) — a member a governance cap
// refuses is left out, and so is a forward its site's mark says is a
// duplicate. Outside the lock it appends the records and runs one Sync over
// them, the barrier under -wal-fsync=always, which when it fails has rewound
// them all. Under the lock again it applies exactly the records the log still
// holds, in LSN order, through the applies replay and a replica run,
// advancing appliedLSN, the coverage a snapshot records; then it wakes the
// waiters.
// So a nacked write is in neither the log, the live state, a snapshot nor
// a replica, and a failed append or barrier leaves nothing to undo. Under K
// concurrent clients the fsync and the sort are paid once per group, and a
// lone client keeps groups of one.

// errShuttingDown rejects a job that arrives after Close shut the pipeline.
var errShuttingDown = errors.New("service: shutting down")

// errStateBehindLog nacks what follows a logged record the state lacks.
var errStateBehindLog = errors.New("service: a logged record failed to apply; restart to replay the log")

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
	ingestErrEngine                     // the tenant's spilled image did not restore, or the engine refused a logged record
	ingestErrWAL                        // the record's append or its group's barrier failed (not durable, not applied)
	ingestErrShutdown                   // the server is draining; never committed
	ingestErrTenant                     // MaxTenants refused to make the tenant the write names
	ingestErrTenantBytes                // MaxTenantBytes refused to make it
	ingestErrReadOnly                   // the server is a replica; writes go to the primary
	ingestErrDegraded                   // degraded mode: durability broken, writes suspended
	ingestErrBusy                       // commit queue at its bound; the job was shed
	ingestErrIncompatible               // a pushed or forwarded image was built with other options
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
// batch. The order matters: clients send the ops up to opForward (the ones
// IngestQueueMax sheds), and the ops from opCheckpoint on demand the
// group's barrier whatever the fsync policy.
type jobOp uint8

const (
	opIngest     jobOp = iota // tuples for the tenant named key; adjacent ingest jobs share one RecordIngest
	opPush                    // image merged into the tenant named key (RecordPush)
	opForward                 // records of a site's log, image, applied as the site applied them (RecordForward, forward.go)
	opCheckpoint              // image is uvarint(covered) of a snapshot already durable (RecordCheckpoint)
	opProbe                   // recovery probe: repair the tail, append a RecordProbe
	opBarrier                 // no record: the group's Sync alone
)

// recordType is the record each op appends; a probe's is the log's own
// (wal.Probe), and opBarrier writes none.
var recordType = [...]wal.RecordType{
	opIngest: wal.RecordIngest, opPush: wal.RecordPush, opForward: wal.RecordForward,
	opCheckpoint: wal.RecordCheckpoint,
}

// ingestJob is one durable mutation in flight through the commit
// pipeline. The done channel (capacity 1, reused via the decodeState pool)
// carries the happens-before edge from the committer's writes of
// err/kind/lsn/image/tn to the waiter's reads. lsn is the LSN of the job's
// record (0 without a WAL). key names the tenant an ingest or a push
// addresses (empty: the default tenant); tn is that tenant once the commit
// applied the job, and stays nil for a forward the commit dropped as a
// duplicate. A forward's image is the records of the site's log it
// carries, and recs what admission decoded of them (aliasing image) —
// after the decide, the ones it admitted. The committer only reads tuples.
type ingestJob struct {
	op     jobOp
	tuples []correlated.Tuple
	image  []byte
	key    []byte
	site   uint64
	recs   []siteRecord
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
// client's job must carry a valid tenant key and what its apply takes:
// tuples a summary's AddBatch accepts — checked per member, so a bad one is
// rejected alone, not with the batch it would have ridden in — an image
// that decodes as this server's summary, or a forwarded record made of
// those (validateForward). It is shed when the queue is at IngestQueueMax —
// a push or a forward before it is decoded — so a shed request costs no
// engine or WAL work; the server's own jobs are never shed. Every job is
// refused once the pipeline has shut down.
func (s *Server) enqueue(j *ingestJob) bool {
	j.err, j.kind, j.lsn, j.tn = nil, ingestOK, 0, nil
	j.enqueuedAt = time.Now()
	p := &s.pipe
	if j.op <= opForward {
		j.err = tupleio.ValidateTenant(j.key)
		if j.err == nil && j.op != opIngest {
			p.mu.Lock()
			shed := s.shedLocked(j)
			p.mu.Unlock()
			if shed {
				return false
			}
		}
		switch {
		case j.err != nil:
		case j.op == opIngest:
			j.err = s.validateBatch(j.tuples)
		case j.op == opPush:
			j.err = s.validateImage(j.image)
		default:
			j.err = s.validateForward(j)
		}
		if j.err != nil {
			j.kind = ingestErrValidate
			if errors.Is(j.err, correlated.ErrIncompatible) {
				j.kind = ingestErrIncompatible
			}
			return false
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		j.err, j.kind = errShuttingDown, ingestErrShutdown
		return false
	}
	if s.shedLocked(j) {
		return false
	}
	p.queue = append(p.queue, j)
	s.metrics.queueDepth.Set(int64(len(p.queue)))
	if len(p.queue) == 1 {
		p.cond.Signal()
	}
	return true
}

// shedLocked sheds a client's job while the queue is at IngestQueueMax.
// Callers hold s.pipe.mu.
func (s *Server) shedLocked(j *ingestJob) bool {
	if max := s.cfg.IngestQueueMax; j.op > opForward || max <= 0 || len(s.pipe.queue) < max {
		return false
	}
	s.metrics.ingestShed.Inc()
	j.err, j.kind = errOverloaded, ingestErrBusy
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

// validateImage is MergeMarshaled's decode, into nothing the server keeps.
func (s *Server) validateImage(image []byte) error {
	eng, err := newEngine(&s.cfg)
	if err == nil {
		err = eng.UnmarshalBinary(image)
	}
	return err
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

// tenantBatch is one tenant's one AddBatch of an ingest record, sorted by
// y: live, a span of the committer's scratch (Server.applyBuf); on replay,
// what the record decodes into.
type tenantBatch struct {
	key    []byte
	tuples []correlated.Tuple
}

// groupRecord is one record of a commit group: a run of ingest jobs with a
// batch per tenant they touch, in first-touch order, or one other job; lsn
// is where its append put it (0: the append failed, or there is no log).
type groupRecord struct {
	jobs    []*ingestJob
	batches []tenantBatch
	lsn     uint64
}

// decideLocked turns a group into its records, in queue order: a record
// per maximal run of ingest jobs, and one per other job that writes one.
// A member whose key may not name a tenant (admitLocked) is refused alone
// and left out. It changes no engine and no registry; the batches are
// still unsorted. Callers hold s.mu.
func (s *Server) decideLocked(group []*ingestJob) []groupRecord {
	total := 0
	for _, j := range group {
		total += len(j.tuples)
	}
	// Sized once, so a tenant's span is not moved by a later tenant's.
	buf := slices.Grow(s.applyBuf[:0], total)
	recs := s.records[:0]
	var made [][]byte
	for i := 0; i < len(group); {
		end := i + 1
		for group[i].op == opIngest && end < len(group) && group[end].op == opIngest {
			end++
		}
		// The slot keeps its batches' capacity from earlier groups.
		recs = slices.Grow(recs, 1)[:len(recs)+1]
		r := &recs[len(recs)-1]
		r.jobs, r.batches, r.lsn = group[i:end], r.batches[:0], 0
		var keep bool
		if group[i].op == opIngest {
			buf, keep = s.decideRunLocked(r, buf, &made)
		} else {
			keep = s.decideJobLocked(group[i], recs[:len(recs)-1], &made)
		}
		if !keep {
			recs = recs[:len(recs)-1]
		}
		i = end
	}
	s.applyBuf, s.records = buf, recs
	return recs
}

// decideRunLocked admits a run of ingest jobs and gathers its batches: per
// touched tenant, the admitted members concatenated in commit order into
// buf — a member's own slice is only read. It reports whether any member
// was admitted. Callers hold s.mu.
func (s *Server) decideRunLocked(r *groupRecord, buf []correlated.Tuple, made *[][]byte) ([]correlated.Tuple, bool) {
	for _, j := range r.jobs {
		if j.kind, j.err = s.admitLocked(j.key, made); j.kind != ingestOK {
			continue
		}
		if !slices.ContainsFunc(r.batches, func(b tenantBatch) bool { return bytes.Equal(b.key, j.key) }) {
			r.batches = append(r.batches, tenantBatch{key: j.key})
		}
	}
	for k := range r.batches {
		b := &r.batches[k]
		lo := len(buf)
		for _, j := range r.jobs {
			if j.kind == ingestOK && bytes.Equal(j.key, b.key) {
				buf = append(buf, j.tuples...)
			}
		}
		b.tuples = buf[lo:]
	}
	return buf, len(r.batches) > 0
}

// decideJobLocked decides a job that is not an ingest batch and reports
// whether it writes a record: a push whose key is admitted, a forward with
// a record admitted (decideForwardLocked; earlier are the group's records
// before it), every marker and probe. Callers hold s.mu.
func (s *Server) decideJobLocked(j *ingestJob, earlier []groupRecord, made *[][]byte) bool {
	switch j.op {
	case opPush:
		j.kind, j.err = s.admitLocked(j.key, made)
		return j.kind == ingestOK
	case opForward:
		return s.decideForwardLocked(j, earlier, made)
	case opBarrier:
		return false
	}
	return true
}

// appendRecord appends one decided record; buf is the encode scratch. A
// batch the encoder refuses (it is not sorted: a bug, never an input) is
// an append that failed.
func appendRecord(w *wal.WAL, buf []byte, r *groupRecord) ([]byte, uint64, error) {
	j := r.jobs[0]
	payload := j.image
	var err error
	switch j.op {
	case opProbe:
		lsn, err := w.Probe()
		return buf, lsn, err
	case opIngest:
		buf, err = appendIngest(buf, r.batches)
		payload = buf
	case opPush:
		buf = append(tupleio.AppendTenant(buf, string(j.key)), j.image...)
		payload = buf
	case opForward:
		buf = append(binary.AppendUvarint(buf, j.site), j.image[j.recs[0].start:j.recs[len(j.recs)-1].end]...)
		payload = buf
	}
	if err != nil {
		return buf, 0, err
	}
	lsn, err := w.AppendNoSync(recordType[j.op], payload)
	return buf, lsn, err
}

// applyGroupLocked is the one apply of an ingest record — the live commit,
// startup replay and a replica's apply loop all come through here: each
// batch is its tenant's one AddBatch of the record, already sorted by y, so
// all three leave the same bytes. A batch naming a new tenant makes it.
// Every batch passed validateBatch at admission, so an error here is a
// bug, fatal to a replay. Callers hold s.mu, or run before any goroutine
// exists.
func (s *Server) applyGroupLocked(batches []tenantBatch) error {
	note := s.notesAtCommit()
	for _, b := range batches {
		t, err := s.tenantForWriteLocked(b.key)
		if err != nil {
			return err
		}
		if err := t.eng.AddBatch(b.tuples); err != nil {
			return err
		}
		t.epoch.Add(1)
		t.touch()
		if note {
			s.noteFootprintLocked(t)
		}
	}
	return nil
}

// applyJobLocked is the one apply of every other record: the live commit,
// startup replay and a replica's apply loop all reach a push and a forward
// here (applyRecord decodes a push into the job the live commit held; a
// forward's replay is applyForwardRecordLocked), and a marker or a probe
// changes nothing. A push bumps the epoch of the tenant it changed and may
// make it; a forward applies the site's records through the applies their
// types have here — the site's own — and advances the site's mark. Callers
// hold s.mu, or run before any goroutine exists.
func (s *Server) applyJobLocked(j *ingestJob) error {
	switch j.op {
	case opPush:
		t, err := s.tenantForWriteLocked(j.key)
		if err != nil {
			return err
		}
		if err := t.eng.MergeMarshaled(j.image); err != nil {
			return err
		}
		t.epoch.Add(1)
		t.touch()
		if s.notesAtCommit() {
			s.noteFootprintLocked(t)
		}
	case opForward:
		return s.applyForwardLocked(j)
	}
	return nil
}

// nackJobs fails every job of a record that its decide admitted.
func nackJobs(jobs []*ingestJob, err error, kind ingestErrKind) {
	for _, j := range jobs {
		if j.kind == ingestOK {
			j.err, j.kind = err, kind
		}
	}
}

// commitGroup commits one taken queue log first (see the top of this file).
// A failed barrier under -wal-fsync=always has rewound every record of the
// group, so none is applied; under interval and off it rewound nothing, and
// only the jobs that demanded it fail. The stage histograms (trace.go) and
// the group counters describe ingest only, whatever shares the queue.
func (s *Server) commitGroup(group []*ingestJob) {
	dequeued := time.Now()
	w := s.walRef()
	s.mu.Lock()
	recs := s.decideLocked(group)
	s.mu.Unlock()
	ingest := false // the batches are the committer's scratch: the sort needs no lock
	for i := range recs {
		for _, b := range recs[i].batches {
			core.SortByY(b.tuples)
			ingest = true
		}
	}
	// Records awaiting the barrier, a job demanding one whatever the policy.
	var pending, force bool
	var walErr, syncErr error
	buf := s.groupBuf
	for i := 0; w != nil && i < len(recs); i++ {
		var err error
		if buf, recs[i].lsn, err = appendRecord(w, buf[:0], &recs[i]); err != nil {
			nackJobs(recs[i].jobs, err, ingestErrWAL)
			walErr = cmp.Or(walErr, err)
		}
		pending = pending || err == nil
	}
	if w != nil && ingest {
		s.metrics.stages[stageAppend].Observe(time.Since(dequeued).Seconds())
	}
	for _, j := range group {
		force = force || j.op >= opCheckpoint
	}
	policy := s.cfg.walFsync()
	barrier := w != nil && (force || pending && policy == "always")
	if barrier {
		// One fsync for every record of the group: the acks stand behind it.
		fsyncStart := time.Now()
		syncErr = w.Sync()
		if ingest && walErr == nil {
			s.metrics.stages[stageFsync].Observe(time.Since(fsyncStart).Seconds())
		}
		walErr = cmp.Or(walErr, syncErr)
	}
	if walErr != nil {
		// Any record's log failure counts toward degrading.
		s.noteWALError(walErr)
	} else if barrier || pending && policy == "off" {
		// A clean fsync resets the streak; a clean append only where nothing
		// ever fsyncs (interval appends say nothing about the disk).
		s.health.walErrs.Store(0)
	}

	rewound := syncErr != nil && policy == "always"
	applyStart := time.Now()
	applied := false
	s.mu.Lock()
	for i := range recs {
		r := &recs[i]
		var err error
		switch {
		case w != nil && r.lsn == 0:
			continue // its append failed
		case rewound:
			nackJobs(r.jobs, syncErr, ingestErrWAL)
			continue
		case s.health.lost.Load() != 0: // appliedLSN must not pass it
			nackJobs(r.jobs, errStateBehindLog, ingestErrEngine)
			continue
		case r.jobs[0].op == opIngest:
			err = s.applyGroupLocked(r.batches)
		default:
			err = s.applyJobLocked(r.jobs[0])
		}
		if err != nil {
			// Admission let through only what the apply takes, so the log
			// holds a record the state lacks: a bug, which replay refuses too.
			// Nothing applies after it until a restart replays the log.
			if r.lsn != 0 {
				s.health.lost.Store(r.lsn)
			}
			s.degrade(fmt.Sprintf("apply of logged record %d: %v", r.lsn, err))
			nackJobs(r.jobs, err, ingestErrEngine)
			continue
		}
		if r.lsn != 0 {
			s.appliedLSN.Store(r.lsn)
		}
		for _, j := range r.jobs {
			if j.kind == ingestOK {
				j.lsn, j.tn = r.lsn, s.tenants[string(j.key)]
				applied = applied || j.op == opIngest
			}
		}
	}
	if applied {
		s.metrics.stages[stageApply].Observe(time.Since(applyStart).Seconds())
	}
	s.applyBuf, s.groupBuf = pooledTuples(s.applyBuf), pooledBytes(buf)
	s.mu.Unlock()

	if applied {
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
		if syncErr != nil && j.kind == ingestOK && j.op >= opCheckpoint {
			j.err, j.kind, j.lsn = syncErr, ingestErrWAL, 0 // demanded the failed barrier
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
// tenant the run touched, back to back in first-touch order. The frame
// length delimits the record; replayState.decodeIngest is the inverse.
func appendIngest(buf []byte, batches []tenantBatch) ([]byte, error) {
	for _, b := range batches {
		var err error
		if buf, err = tupleio.AppendSortedBatch(buf, string(b.key), b.tuples); err != nil {
			return buf, err
		}
	}
	return buf, nil
}
