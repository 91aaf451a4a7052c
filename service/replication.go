package service

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
// argument, the marks, covers every path a record travels. A standby
// behind its primary's oldest record is bootstrapped over the wire, from
// the primary's newest checkpoint (forward.go).

var (
	// errReadOnlyReplica refuses a client write on a standby; the message
	// is wire-visible and the Go client's IsReadOnly matches the 503
	// status + this text.
	errReadOnlyReplica = errors.New("read-only replica: writes go to the primary")
	// errNotStandby refuses the promotion of a server that is not (or is
	// no longer) a standby.
	errNotStandby = errors.New("service: not a standby")
)

// replayState holds the decoded ingest batches of one pass over a log (the
// startup replayer's, service/wal.go) or of one forward's admission.
type replayState struct {
	batches []tenantBatch // an ingest record's members: a tenant's key and its sorted batch
}

// decodeIngest turns an ingest record's payload back into the batches the
// live commit logged and applied (appendIngest's inverse), behind those st
// holds: sorted batches back to back until the payload is spent, each
// addressed by its key, which aliases payload, and holding what that
// tenant's AddBatch was given. There is no member count to trust — a
// member is at least four bytes, and each batch's own count is bounded by
// the bytes behind it — so what a hostile payload can make this allocate
// is bounded by its length. Where left is not nil, the members' counts are
// also taken from *left, each before its member is decoded, and one past
// what is left is refused as too large. An empty payload is refused: the
// live commit never logs a run with no admitted member. The tuple buffers
// are reused from record to record (reset).
func (st *replayState) decodeIngest(payload []byte, left *uint64) ([]tenantBatch, error) {
	if len(payload) == 0 {
		return nil, errors.New("empty ingest record")
	}
	lo := len(st.batches)
	for rest := payload; len(rest) > 0; {
		n := len(st.batches) - lo
		if left != nil {
			c := tupleio.SortedBatchLen(rest)
			if c > *left {
				return nil, tooLargeError{fmt.Errorf("member %d: a forward decodes to at most %d tuples", n, maxForwardTuples)}
			}
			*left -= c
		}
		// The slot keeps its tuples' capacity from earlier records.
		st.batches = slices.Grow(st.batches, 1)[:lo+n+1]
		b := &st.batches[lo+n]
		var err error
		if b.key, b.tuples, rest, err = tupleio.DecodeSortedBatch(b.tuples, rest); err != nil {
			return nil, fmt.Errorf("member %d: %w", n, err)
		}
	}
	return st.batches[lo:len(st.batches):len(st.batches)], nil
}

// reset readies st for the next record, keeping what pooledTuples keeps.
func (st *replayState) reset() {
	for i := range st.batches {
		st.batches[i].tuples = pooledTuples(st.batches[i].tuples)
	}
	st.batches = st.batches[:0]
}

// applyRecord applies one WAL record on replay through the live commit's
// own applies, so a restarted server's state is byte-identical to a
// crash-free one's at the same LSN: an ingest record decoded back into the
// sorted batch per tenant it was given live (applyGroupLocked), a forward
// decoded as admission decodes one, with no cap on its tuples, an image or
// a checkpoint record as checkpoint.go applies them. A probe changes
// nothing; counted reports whether the record carried state. A tenant the
// log names is made whatever the caps say today. Startup replay calls it
// before any goroutine exists.
func (s *Server) applyRecord(lsn uint64, typ wal.RecordType, payload []byte, st *replayState) (counted bool, err error) {
	defer st.reset()
	switch typ {
	case wal.RecordProbe:
		// A recovery probe: the record exists only to prove the log can
		// append and fsync again.
		return false, nil
	case wal.RecordIngest:
		var batches []tenantBatch
		if batches, err = st.decodeIngest(payload, nil); err == nil {
			err = s.applyGroupLocked(batches)
		}
	case wal.RecordForward:
		fwd := siteRecord{payload: payload}
		if err = s.decodeForward(&fwd, 0, nil, st); err == nil {
			err = s.applyForwardLocked(fwd.site, fwd.recs, false)
		}
	case wal.RecordImage:
		err = s.applyImageLocked(payload)
	case wal.RecordCheckpoint:
		err = s.applyCheckpointLocked(payload)
	default:
		err = fmt.Errorf("unknown record type %d", typ)
	}
	if err != nil {
		return false, fmt.Errorf("service: wal replay: record %d: %w", lsn, err)
	}
	return true, nil
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
