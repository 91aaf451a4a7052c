package service

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Replication: a standby is a coordinator with a refusal. Its primary
// lists it in PushTo like any other target, so the standby takes the
// primary's log as forwards — each logged in its own WAL as a
// RecordForward, applied once by the site's mark (forward.go) — and holds
// exactly the records the primary's forwarder has had confirmed. It serves
// reads (/v1/query, /v1/stats, /v1/summary) through the same answer memo
// as any server and refuses client writes with 503 (AckReadOnly on the
// stream) until it is promoted: POST /v1/promote, or automatically when
// no forward — an idle primary's empty one included — has arrived for
// Config.PrimaryTimeout. Promotion only lifts the refusal: the log, the
// marks and the standby's own forwarders go on as they were, so one
// argument, the marks, covers every path a record travels.

var (
	// errReadOnlyReplica refuses a client write on a standby; the message
	// is wire-visible and the Go client's IsReadOnly matches the 503
	// status + this text.
	errReadOnlyReplica = errors.New("read-only replica: writes go to the primary")
	// errNotStandby refuses the promotion of a server that is not (or is
	// no longer) a standby.
	errNotStandby = errors.New("service: not a standby")
)

// replayState is the cross-record scratch of one pass over a log: the
// startup replayer's (service/wal.go), and a forward's apply of the
// records nested in it. covered and fallback arm the replayer's
// checkpoint staleness witness.
type replayState struct {
	batches  []tenantBatch // an ingest record's members: a tenant's key and its sorted batch
	covered  uint64        // snapshot baseline (startup staleness check)
	fallback bool          // restore fell back to an older retention slot
}

// decodeIngest turns an ingest record's payload back into the batches the
// live commit logged and applied (appendIngest's inverse): sorted batches
// back to back until the payload is spent, each addressed by its key, which
// aliases payload, and holding what that tenant's AddBatch was given. There
// is no member count to trust — a member is at least four bytes, and each
// batch's own count is bounded by the bytes behind it — so what a hostile
// payload can make this allocate is bounded by its length. Where left is
// not nil, the members' counts are also taken from *left, each before its
// member is decoded, and one past what is left is refused as too large. An
// empty payload is refused: the live commit never logs a run with no
// admitted member. The tuple buffers are reused from record to record.
func (st *replayState) decodeIngest(payload []byte, left *uint64) ([]tenantBatch, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty ingest record")
	}
	n := 0
	for rest := payload; len(rest) > 0; n++ {
		if left != nil {
			c := tupleio.SortedBatchLen(rest)
			if c > *left {
				return nil, tooLargeError{fmt.Errorf("member %d: a forward decodes to at most %d tuples", n, maxForwardTuples)}
			}
			*left -= c
		}
		if n == len(st.batches) {
			st.batches = append(st.batches, tenantBatch{})
		}
		b := &st.batches[n]
		var err error
		if b.key, b.tuples, rest, err = tupleio.DecodeSortedBatch(b.tuples, rest); err != nil {
			return nil, fmt.Errorf("member %d: %w", n, err)
		}
	}
	return st.batches[:n], nil
}

// pushRecord is the type an earlier release gave a summary image its push
// endpoint merged into a tenant. Nothing writes it now and the type stays
// reserved: wherever one would be applied — replay, a forward's admission
// — it is refused by name, never reinterpreted.
const pushRecord wal.RecordType = 2

// errPushRecord names a push record and the way past it.
var errPushRecord = errors.New(`a push record (type 2: a summary image merged into a tenant by the push endpoint, which this release no longer serves) is never applied — stop the release that logged it with SIGTERM, which writes a final snapshot, then start this release with that snapshot copied into an empty -wal-dir as its snapshot file (README "Storage format")`)

// applyRecord applies one WAL record on replay through the live commit's
// own applies, which is what makes a restarted server's state
// byte-identical to a crash-free one's at the same LSN. A state record
// goes to applyStateLocked; a checkpoint marker and a probe change
// nothing. counted reports whether the record carried state. Startup
// replay calls it before any goroutine exists.
func (s *Server) applyRecord(lsn uint64, typ wal.RecordType, payload []byte, st *replayState) (counted bool, err error) {
	switch typ {
	case wal.RecordCheckpoint:
		// Not state, but a consistency witness: the marker says a
		// snapshot covering LSN c was durably written. If the snapshot
		// we restored claims less, we are about to re-apply records the
		// log was already pruned against.
		c, n := binary.Uvarint(payload)
		if n <= 0 {
			return false, fmt.Errorf("service: wal replay: record %d: bad checkpoint marker", lsn)
		}
		if c > st.covered && !st.fallback {
			// A deliberate retention fallback restores an older snapshot
			// on purpose; there the continuity check in replayWAL (the log
			// starts by covered+1) is the correctness guard instead.
			return false, fmt.Errorf("service: wal replay: log has a checkpoint covering LSN %d but the restored snapshot covers only %d — %s is stale or missing; refusing to double-apply (restore the matching snapshot, or move the WAL dir aside to start fresh)",
				c, st.covered, s.snapshotPathN(0))
		}
		return false, nil
	case wal.RecordProbe:
		// A recovery probe: the record exists only to prove the log can
		// append and fsync again. It carries no state.
		return false, nil
	}
	if err := s.applyStateLocked(typ, payload, st); err != nil {
		return false, fmt.Errorf("service: wal replay: record %d: %w", lsn, err)
	}
	return true, nil
}

// applyStateLocked applies one state record, decoded back into what the
// live commit applied: an ingest record into the sorted batch per tenant it
// was given live (applyGroupLocked: the same one AddBatch, of the same
// argument, nothing copied or re-encoded), a forward into its records,
// each back through here. A tenant the log names is made whatever the caps
// say today. A push record is refused by name (errPushRecord).
// Callers hold s.mu, or run before any goroutine exists.
func (s *Server) applyStateLocked(typ wal.RecordType, payload []byte, st *replayState) error {
	switch typ {
	case wal.RecordIngest:
		batches, err := st.decodeIngest(payload, nil)
		if err == nil {
			err = s.applyGroupLocked(batches)
		}
		for i := range batches {
			batches[i].tuples = pooledTuples(batches[i].tuples)
		}
		return err
	case pushRecord:
		return errPushRecord
	case wal.RecordForward:
		return s.applyForwardRecordLocked(payload, st)
	}
	return fmt.Errorf("unknown record type %d", typ)
}

// Promote lifts a standby's refusal of client writes: from here it takes
// them like any coordinator. Its log, its marks and its forwarders go on
// as they were, so nothing is sealed or opened, and a forward from the old
// primary is still applied once. A second call returns errNotStandby.
func (s *Server) Promote() error {
	if s.closing.Load() {
		return errShuttingDown
	}
	if !s.standby.CompareAndSwap(true, false) {
		return errNotStandby
	}
	s.metrics.promotions.Inc()
	s.logf("promoted: taking writes at LSN %d", s.appliedLSN.Load())
	return nil
}

// roleNow is the live role: a standby's is replica until it is promoted,
// and then the one Config sets.
func (s *Server) roleNow() string {
	if s.standby.Load() {
		return "replica"
	}
	return s.cfg.role()
}

// hear stamps a forward from site. A standby's primary is the first site
// it hears from after New, and only that site's silence promotes it: a
// second sender — a site that lists this standby too — keeps forwarding
// while the primary is gone, so its forwards are not heard, only logged
// once.
func (s *Server) hear(site uint64) {
	h := &s.heard
	if h.site.CompareAndSwap(0, site) || h.site.Load() == site {
		h.at.Store(time.Now().UnixNano())
	} else if s.standby.Load() && s.cfg.PrimaryTimeout > 0 && h.other.CompareAndSwap(0, site) {
		s.logf("standby: site %016x forwards here too; only the silence of site %016x, the first heard, promotes this standby", site, h.site.Load())
	}
}

// promoteIfSilent promotes a standby that has heard no forward from its
// primary for Config.PrimaryTimeout.
func (s *Server) promoteIfSilent() {
	silent := time.Since(time.Unix(0, s.heard.at.Load()))
	if !s.standby.Load() || silent < s.cfg.PrimaryTimeout {
		return
	}
	s.logf("standby: no forward from site %016x for %s; promoting", s.heard.site.Load(), silent.Round(time.Millisecond))
	if err := s.Promote(); err != nil {
		s.logf("standby: promote: %v", err)
	}
}

// handlePromote is POST /v1/promote: admin-gated manual failover. With
// no AdminToken configured the endpoint is disabled outright (403) —
// an unauthenticated promote would let anyone split-brain the pair.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.AdminToken == "" {
		s.httpError(w, http.StatusForbidden, errors.New("promotion disabled: no admin token configured"))
		return
	}
	if subtle.ConstantTimeCompare([]byte(r.Header.Get("X-Admin-Token")), []byte(s.cfg.AdminToken)) != 1 {
		s.httpError(w, http.StatusForbidden, errors.New("bad admin token"))
		return
	}
	if err := s.Promote(); err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, errNotStandby):
			status = http.StatusConflict
		case errors.Is(err, errShuttingDown):
			status = http.StatusServiceUnavailable
		}
		s.httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "lsn": s.appliedLSN.Load()})
}
