package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Group commit: the serving core's answer to "every acknowledged ingest
// pays its own fsync and its own engine call". Ingest handlers never
// touch an engine; they decode, enqueue an ingestJob, and block until the
// committer — a single goroutine owning the ingest side of the driver
// lock — has committed the group their job rode in. The committer takes
// everything queued (up to the group caps), validates each member, hands
// every touched tenant its valid members as one AddBatch under one
// critical section, appends one WAL record for the whole group (one fsync
// under -wal-fsync=always), and only then wakes the waiters with their
// outcomes. Under K concurrent clients the fsync and the per-batch sort
// are paid once per group instead of once per request — the queue refills
// while the previous group is fsyncing, so the pipeline stays full without
// any timer or artificial batching delay; a lone client degenerates to
// groups of one and keeps its old latency.
//
// Crash-exactness holds by construction: a summary's state depends on
// where its AddBatch calls were cut, and the only cut there is is the
// group's WAL record (RecordIngest), which carries the member batches in
// client order. Replay turns a record back into the member list and runs
// the live commit's own apply on it (applyGroupLocked).

// errShuttingDown rejects ingest that arrives after Close began.
var errShuttingDown = errors.New("service: shutting down")

// errOverloaded sheds ingest when the commit queue is at its configured
// bound. The message is wire-visible; the Go client's IsBusy matches
// the 429 status plus the "overload" text.
var errOverloaded = errors.New("service: ingest queue overloaded; back off and retry")

// ingestErrKind classifies a committed job's outcome for HTTP mapping.
type ingestErrKind uint8

const (
	ingestOK          ingestErrKind = iota
	ingestErrValidate               // the member failed validation (client's error)
	ingestErrEngine                 // the tenant's engine could not be restored or refused the batch
	ingestErrWAL                    // the group's WAL append failed (not durable)
	ingestErrShutdown               // the server is draining; never committed (stream acks only)
	ingestErrTenant                 // a governance cap refused the tenant (stream acks only)
	ingestErrReadOnly               // the server is a replica; writes go to the primary (stream acks only)
	ingestErrDegraded               // degraded mode: durability broken, writes suspended (stream acks only)
	ingestErrBusy                   // commit queue at its bound; the job was shed (stream acks only)
)

// ingestJob is one ingest request in flight through the commit
// pipeline. The done channel (capacity 1, reused across requests via the
// decodeState pool) carries the happens-before edge from the committer's
// writes of err/kind/lsn to the handler's reads. lsn is the WAL LSN of
// the group record the job's batch rode in (0 without a WAL) — what a
// stream ack reports back to the client. tn is the tenant the batch
// addresses; nil means the default tenant. The committer only reads
// tuples — the WAL record and the ack path see the client's order.
type ingestJob struct {
	tuples []correlated.Tuple
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

// commitPipeline is the queue between ingest handlers and the committer.
type commitPipeline struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*ingestJob
	closed bool
}

// maxGroupTuples caps the tuple volume of one commit group so a group's
// WAL record stays far below wal.MaxPayload and the critical section
// stays short; the member that crosses the cap waits for the next group.
const maxGroupTuples = 1 << 20

// defaultGroupMax is the member-count cap per group when
// Config.IngestGroupMax is unset.
const defaultGroupMax = 256

// enqueueIngest hands a job to the committer; it fails when the server
// is shutting down or (with IngestQueueMax set) when the queue is at
// its bound — overload is decided here, at admission, so a shed request
// costs no engine or WAL work. The handler then blocks on j.done.
func (s *Server) enqueueIngest(j *ingestJob) error {
	j.enqueuedAt = time.Now()
	p := &s.pipe
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errShuttingDown
	}
	if max := s.cfg.IngestQueueMax; max > 0 && len(p.queue) >= max {
		p.mu.Unlock()
		s.metrics.ingestShed.Inc()
		return errOverloaded
	}
	p.queue = append(p.queue, j)
	s.metrics.queueDepth.Set(int64(len(p.queue)))
	if len(p.queue) == 1 {
		p.cond.Signal()
	}
	p.mu.Unlock()
	return nil
}

// closePipeline stops accepting new ingest and wakes the committer so it
// drains what is already queued (queued requests are committed and
// acknowledged, not dropped) and exits.
func (s *Server) closePipeline() {
	p := &s.pipe
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// committer is the single goroutine that owns ingest: take everything
// queued (bounded by the group caps), commit it as one group, repeat.
func (s *Server) committer() {
	defer s.wg.Done()
	p := &s.pipe
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

// validateBatch is the check a summary's AddBatch would make, run per
// member before anything is applied, so one bad member is rejected alone
// instead of failing the concatenated batch it would have ridden in.
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

// applyGroupLocked validates a group's members and applies them: each
// touched tenant gets exactly one AddBatch, of its valid members in
// commit order, concatenated into the committer's scratch — never applied
// from a member's own slice, because AddBatch sorts its argument in place
// and the log must keep the client's order for replay to feed the sort
// the same permutation. It sets every member's kind (and err), bumps each
// touched tenant's epoch, and reports how many members and tuples were
// applied. The live committer, startup replay and a replica's apply loop
// all come through here with the same member lists, which is what makes
// their bytes equal. A member that fails validation is rejected alone; a
// group may span tenants, which are applied in first-touch order. Callers
// hold s.mu, or run before any goroutine exists.
func (s *Server) applyGroupLocked(group []*ingestJob) (applied, tuples int) {
	touched := s.touchedBuf[:0]
	for _, j := range group {
		if j.tn == nil {
			j.tn = s.def
		}
		if err := s.validateBatch(j.tuples); err != nil {
			j.err, j.kind = err, ingestErrValidate
			continue
		}
		if _, err := s.ensureEngineLocked(j.tn); err != nil {
			j.err, j.kind = err, ingestErrEngine
			continue
		}
		j.kind = ingestOK
		if !j.tn.inGroup {
			j.tn.inGroup = true
			touched = append(touched, j.tn)
		}
	}
	sample := s.cfg.MaxTenantBytes > 0
	for _, t := range touched {
		buf := s.applyBuf[:0]
		members := 0
		for _, j := range group {
			if j.tn == t && j.kind == ingestOK {
				buf = append(buf, j.tuples...)
				members++
			}
		}
		err := t.eng.AddBatch(buf)
		if err != nil {
			// Every member passed validateBatch, so the summary has no
			// reason to refuse; if it does, it refused the whole batch
			// untouched, and the tenant's members are nacked together.
			for _, j := range group {
				if j.tn == t && j.kind == ingestOK {
					j.err, j.kind = err, ingestErrEngine
				}
			}
		} else {
			applied += members
			tuples += len(buf)
		}
		s.applyBuf = pooledTuples(buf)
		t.inGroup = false
		t.epoch.Add(1)
		t.touch()
		if sample {
			// The sample walks the summary's buckets; it feeds the
			// MaxTenantBytes cap.
			t.footprint.Store(liveBytes(t.eng))
		}
	}
	s.touchedBuf = touched[:0]
	return applied, tuples
}

// commitGroup applies and logs one group under a single critical section
// of the driver lock, then wakes every member with its outcome. Members
// that fail validation are rejected individually and excluded from the
// group record; a WAL failure is group-wide (those members were applied
// together, so they are un-acknowledged together). One WAL append and one
// fsync cover the whole group, however many tenants it touched.
func (s *Server) commitGroup(group []*ingestJob) {
	// Stage tracing (trace.go): the dequeue closes every member's
	// "enqueue" stage; "apply" runs from here through the last tenant's
	// AddBatch (driver-lock wait included), "append" is the group's WAL
	// record, "fsync" the durability barrier below.
	dequeued := time.Now()
	for _, j := range group {
		s.metrics.stages[stageEnqueue].Observe(dequeued.Sub(j.enqueuedAt).Seconds())
	}
	s.mu.Lock()
	applied, groupTuples := s.applyGroupLocked(group)
	var walErr error
	var groupLSN uint64
	applyEnd := time.Now()
	if applied > 0 && s.wal != nil {
		// One append orders the group in the log. It is deliberately not
		// the fsync: that happens below, outside the driver lock, so the
		// next group's decode and apply (and any query evaluation)
		// overlap this group's disk wait instead of queueing behind it.
		groupLSN, walErr = s.logIngestGroup(group)
		s.metrics.stages[stageAppend].Observe(time.Since(applyEnd).Seconds())
	}
	if applied > 0 {
		s.metrics.stages[stageApply].Observe(applyEnd.Sub(dequeued).Seconds())
	}
	s.mu.Unlock()
	if s.cfg.MaxTenantBytes > 0 && applied > 0 {
		s.recomputeFootprint()
	}
	if applied > 0 && walErr == nil && s.walSyncAlways {
		// The group-wide durability barrier the acks below stand behind:
		// one fsync for the whole group. (Under fsync=interval/off the
		// ack never promised durability, so there is nothing to wait on.)
		fsyncStart := time.Now()
		walErr = s.wal.Sync()
		s.metrics.stages[stageFsync].Observe(time.Since(fsyncStart).Seconds())
		if walErr != nil {
			// The group record never reached stable storage and its
			// members are nacked below — rewind it out of the log, so a
			// restart replays exactly the acknowledged record set instead
			// of resurrecting batches whose clients were told they failed.
			s.wal.RewindUnsynced()
		}
	}
	if applied > 0 && walErr == nil {
		s.metrics.ingestGroups.Inc()
		s.metrics.ingestGroupMembers.Add(uint64(applied))
		s.metrics.groupSize.Observe(float64(applied))
		s.metrics.groupTuples.Observe(float64(groupTuples))
	}
	if applied > 0 {
		// Health bookkeeping: WAL failures on the commit path count
		// toward the degraded transition; any clean commit resets the
		// streak. The group's wall time feeds the EWMA that prices the
		// overload Retry-After hint.
		if walErr != nil {
			s.noteWALError(walErr)
		} else {
			s.noteWALOK()
		}
		obs := time.Since(dequeued).Seconds()
		if prev := s.groupLatency.Load(); prev > 0 {
			obs = 0.2*obs + 0.8*prev
		}
		s.groupLatency.Set(obs)
	}
	wake := time.Now()
	for _, j := range group {
		if j.kind == ingestOK {
			if walErr != nil {
				j.err, j.kind = walErr, ingestErrWAL
			} else {
				j.lsn = groupLSN
			}
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

// appendIngestRecord appends an ingest record's payload: the group's
// applied members, each as a keyed batch (the empty key for the default
// tenant), back to back in commit order. The frame length delimits the
// record; replayState.decodeIngest is the inverse.
func appendIngestRecord(buf []byte, group []*ingestJob) []byte {
	for _, j := range group {
		if j.kind == ingestOK {
			buf = tupleio.AppendKeyedBatch(buf, j.tn.name, j.tuples)
		}
	}
	return buf
}

// logIngestGroup appends the group's applied members as one WAL record
// and returns its LSN. Callers hold s.mu.
func (s *Server) logIngestGroup(group []*ingestJob) (uint64, error) {
	buf := appendIngestRecord(s.groupBuf[:0], group)
	lsn, err := s.wal.AppendNoSync(wal.RecordIngest, buf)
	s.groupBuf = pooledBytes(buf)
	return lsn, err
}
