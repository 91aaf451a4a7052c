package service

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Log forwarding: a site (Config.PushTo) follows its own log (wal.Follow)
// on one goroutine and sends its ingest, push and forward records, as
// logged, to the coordinator's POST /v1/forward: every record the log has
// made followable since the last answer, up to forwardBatchBytes (or what
// went after the coordinator refused a forward as too large), in one
// request tagged with the site id and the log's format
// (client.AppendForwardRecord is the grammar). The coordinator commits a
// forward as one job — one RecordForward, uvarint(site) and then the
// records it admitted verbatim, behind one barrier — and applies the
// records through the applies the site used, so it keeps one summary per
// tenant over every site's stream and nothing is merged. Its mark for the
// site, the highest site LSN applied, advances. A mark is state (logged,
// snapshotted, replicated): records at or below it are dropped, so the
// site may always send again and, after a restart, skips to the mark the
// first answer names. A record the coordinator refuses stops the records
// behind it, whose order the site's log fixes. A site's checkpoint prunes
// only what its coordinator has confirmed. The site id names one LSN
// space: it is kept beside the log, and a log that starts over gets a new
// one.

// siteRecord is one record of a forward, as admission decoded it: its
// LSN and type in the site's log, its payload, where it sits in the body
// (start..end), the tenants it writes and, for an ingest record, the
// batches its apply takes as they are.
type siteRecord struct {
	lsn        uint64
	typ        wal.RecordType
	payload    []byte
	start, end int
	keys       [][]byte
	batches    []tenantBatch
}

// maxForwardDepth bounds how many coordinators a record may have passed
// through: a site that is itself some sites' coordinator forwards their
// records inside its own RecordForward.
const maxForwardDepth = 4

// walkSiteRecords calls fn for each record of a forward's body, in order;
// their LSNs must ascend.
func walkSiteRecords(body []byte, fn func(r siteRecord) error) error {
	var prev uint64
	for off := 0; off < len(body); {
		r := siteRecord{start: off}
		lsn, n := binary.Uvarint(body[off:])
		if n <= 0 || lsn <= prev || off+n >= len(body) {
			return fmt.Errorf("forward: bad record header at byte %d", off)
		}
		off += n
		r.lsn, r.typ = lsn, wal.RecordType(body[off])
		size, n := binary.Uvarint(body[off+1:])
		if off++; n <= 0 || size > uint64(len(body)-off-n) {
			return fmt.Errorf("forward: site record %d: bad length", lsn)
		}
		off += n
		r.payload, r.end = body[off:off+int(size)], off+int(size)
		if err := fn(r); err != nil {
			return fmt.Errorf("site record %d: %w", lsn, err)
		}
		off, prev = r.end, lsn
	}
	return nil
}

// splitForward splits a RecordForward payload into the site id and the
// records behind it.
func splitForward(payload []byte) (site uint64, records []byte, err error) {
	site, n := binary.Uvarint(payload)
	if n <= 0 || n == len(payload) {
		return 0, nil, errors.New("forward record: no site id or no records")
	}
	return site, payload[n:], nil
}

// maxForwardTuples caps the tuples a forward's records decode to, all
// together. A row can take two bits, so a body's length alone would let
// a hostile forward allocate 96 bytes of tuples a byte; a site's record
// never holds more than one decode may (tupleio.MaxDecodeTuples), so a
// forward past the cap is refused as too large and the site sends fewer
// records.
var maxForwardTuples uint64 = tupleio.MaxDecodeTuples

// validateForward is admission's decode of a forward's body, outside every
// lock, into j.recs: each record must be an ingest record whose batches
// decode with every y at most YMax, a push whose image decodes, or a
// forward of those, and the records must decode to at most
// maxForwardTuples tuples.
func (s *Server) validateForward(j *ingestJob) error {
	if len(j.image) == 0 {
		return errors.New("service: a forward carries at least one record")
	}
	j.recs = j.recs[:0]
	left := maxForwardTuples
	return walkSiteRecords(j.image, func(r siteRecord) error {
		var err error
		r.keys, r.batches, err = s.validateSiteRecord(r.typ, r.payload, 0, &left)
		j.recs = append(j.recs, r)
		return err
	})
}

// validateSiteRecord checks one record of a forward and lists the tenants
// it writes, taking what its ingest records decode to from *left; an
// ingest record's decoded batches come back for the apply.
func (s *Server) validateSiteRecord(typ wal.RecordType, payload []byte, depth int, left *uint64) (keys [][]byte, batches []tenantBatch, err error) {
	switch typ {
	case wal.RecordIngest:
		var st replayState
		batches, err = st.decodeIngest(payload, left)
		ymax := s.cfg.Options.YMax
		for _, b := range batches {
			// A decoded batch is sorted by y and weighs each tuple at least
			// 1, so its last y is all AddBatch would still check.
			if n := len(b.tuples); n > 0 && b.tuples[n-1].Y > ymax {
				err = errors.Join(err, fmt.Errorf("service: y = %d exceeds YMax = %d", b.tuples[n-1].Y, ymax))
			}
			keys = append(keys, b.key)
		}
		return keys, batches, err
	case wal.RecordPush:
		key, image, err := tupleio.DecodeTenantPrefix(payload)
		if err == nil {
			err = s.validateImage(image)
		}
		return [][]byte{key}, nil, err
	case wal.RecordForward:
		_, records, err := splitForward(payload)
		if depth == maxForwardDepth {
			err = fmt.Errorf("forwarded through more than %d coordinators", maxForwardDepth)
		}
		if err != nil {
			return nil, nil, err
		}
		err = walkSiteRecords(records, func(r siteRecord) error {
			inner, _, err := s.validateSiteRecord(r.typ, r.payload, depth+1, left)
			keys = append(keys, inner...)
			return err
		})
		return keys, nil, err
	}
	return nil, nil, fmt.Errorf("service: a forward carries ingest, push or forward records, not type %d", typ)
}

// decideForwardLocked is the decide step of a forward: it drops the records
// at or below the site's mark — counting the group's records before it
// (earlier) — and admits the rest in order until one names a tenant
// admitLocked refuses. j.recs keeps what was admitted; a forward none of
// whose new records is admitted is refused with the first one's error, and
// one with no new record writes nothing and is answered with the mark.
// Callers hold s.mu.
func (s *Server) decideForwardLocked(j *ingestJob, earlier []groupRecord, made *[][]byte) bool {
	mark := s.marks[j.site]
	for _, r := range earlier {
		if o := r.jobs[0]; o.op == opForward && o.site == j.site {
			mark = max(mark, o.recs[len(o.recs)-1].lsn)
		}
	}
	recs := j.recs
	for len(recs) > 0 && recs[0].lsn <= mark {
		recs = recs[1:]
	}
	s.metrics.forwardsDuplicate.Add(uint64(len(j.recs) - len(recs)))
	n := 0
admit:
	for ; n < len(recs); n++ {
		before := len(*made)
		for _, key := range recs[n].keys {
			kind, err := s.admitLocked(key, made)
			if kind == ingestOK {
				continue
			}
			*made = (*made)[:before]
			if n == 0 {
				j.kind, j.err = kind, fmt.Errorf("site %016x record %d, tenant %q: %w", j.site, recs[0].lsn, key, err)
			}
			break admit
		}
	}
	j.recs = recs[:n]
	return n > 0
}

// applyForwardLocked applies the records a forward admitted, ingest records
// from the batches admission decoded, and advances the site's mark.
// Callers hold s.mu.
func (s *Server) applyForwardLocked(j *ingestJob) error {
	for _, r := range j.recs {
		var err error
		if r.typ == wal.RecordIngest {
			err = s.applyGroupLocked(r.batches)
		} else {
			err = s.applyStateLocked(r.typ, r.payload, s.replState)
		}
		if err != nil {
			return fmt.Errorf("site record %d: %w", r.lsn, err)
		}
	}
	s.marks[j.site] = j.recs[len(j.recs)-1].lsn
	return nil
}

// applyForwardRecordLocked is a RecordForward's apply on replay and on a
// replica: each record through applyStateLocked, then the site's mark.
// Callers hold s.mu, or run before any goroutine exists.
func (s *Server) applyForwardRecordLocked(payload []byte, st *replayState) error {
	site, records, err := splitForward(payload)
	if err != nil {
		return err
	}
	var last uint64
	if err := walkSiteRecords(records, func(r siteRecord) error {
		last = r.lsn
		return s.applyStateLocked(r.typ, r.payload, st)
	}); err != nil {
		return err
	}
	s.marks[site] = max(s.marks[site], last)
	return nil
}

// handleForward is POST /v1/forward?site=ID&format=V (client.Forward):
// records of a site's log, committed as one job. Records in another log
// format than this server's are refused whole. Every 200 carries the
// site's mark.
func (s *Server) handleForward(w http.ResponseWriter, r *http.Request) {
	errs := &s.metrics.forwardsRejected
	if kind, err := s.writeGate(); kind != ingestOK {
		s.nack(w, errs, kind, err)
		return
	}
	site, err := strconv.ParseUint(r.URL.Query().Get("site"), 16, 64)
	if err != nil || site == 0 {
		s.nack(w, errs, ingestErrValidate, fmt.Errorf("a forward names its site, a non-zero hex id: %v", err))
		return
	}
	if format := r.URL.Query().Get("format"); format != strconv.Itoa(wal.Version) {
		s.nack(w, errs, ingestErrValidate, fmt.Errorf("the site's records are in log format %q, this coordinator reads log format %d: run both on one release (README \"Storage format\")", format, wal.Version))
		return
	}
	d := s.dec.Get().(*decodeState)
	defer s.putDecodeState(d)
	var ok bool
	if d.body, ok = s.readBody(w, r, d.body); !ok {
		errs.Inc()
		return
	}
	j := &d.job
	j.op, j.image, j.site = opForward, d.body, site
	if !s.commitRequest(w, r, errs, j) {
		return
	}
	if j.tn != nil {
		s.metrics.forwardsApplied.Add(uint64(len(j.recs)))
	}
	s.mu.Lock()
	mark := s.marks[site]
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]uint64{"mark": mark})
}

var (
	// forwardTimeout bounds one forward attempt; one that times out may
	// have been applied, and the mark makes sending it again safe.
	forwardTimeout = 10 * time.Second
	// forwardPause is the wait after a failed attempt before the next.
	forwardPause = time.Second
)

// forwardBatchBytes bounds a forward's body until the coordinator refuses
// one as too large; a larger record goes alone.
const forwardBatchBytes = 1 << 20

// siteIDFile holds the site id, in hex, beside the log's segments.
const siteIDFile = "site-id"

// errSkipToMark ends a Follow whose answer moved the forwarder to the
// coordinator's mark: past what it sent, or short of it.
var errSkipToMark = errors.New("service: follow again from the coordinator's mark")

// forwarder is a site's one upstream path. acked is how far the
// coordinator has confirmed: every record at or below it is applied there
// or carries no state. body gathers the next forward, one entry of ends a
// record, within limit bytes unless one record is larger. stalled is the coordinator's
// last refusal, until a forward is confirmed. err is the last failed
// attempt, read after exited.
type forwarder struct {
	s            *Server
	w            *wal.WAL
	cl           *client.Client // one attempt a call: run pauses between
	site         uint64
	acked        atomic.Uint64
	body         []byte
	ends         []recordEnd
	limit        int
	stalled      atomic.Pointer[string]
	stop, exited chan struct{} // stop is closed by drain
	err          error
}

// recordEnd is where a record of a forward's body ends, and its LSN.
type recordEnd struct {
	lsn uint64
	end int
}

// newForwarder loads the site id kept beside the log, or mints and keeps
// one when there is none or the log holds no record yet — unless this
// server holds state its log does not (restored from a snapshot, or
// pruned): records a new id never sent would never reach the coordinator.
// An id file that does not parse is refused, not replaced: a new id would
// send the log again. run starts the forwarder.
func (s *Server) newForwarder() (*forwarder, error) {
	w, path := s.walRef(), filepath.Join(s.cfg.WALDir, siteIDFile)
	var site uint64
	b, err := s.fs.ReadFile(path)
	switch {
	case w.LastLSN() == 0 || errors.Is(err, os.ErrNotExist):
		if oldest := w.OldestLSN(); s.restored || oldest > 1 {
			return nil, fmt.Errorf("service: no site id for this log, and the state holds what the log does not (restored from a snapshot: %t; the log starts at LSN %d): forwarding under a new id would never send it — drain this server or push its images first (README \"Storage format\")", s.restored, oldest)
		}
		for site == 0 {
			var id [8]byte
			if _, err := rand.Read(id[:]); err != nil {
				return nil, fmt.Errorf("service: mint a site id: %w", err)
			}
			site = binary.LittleEndian.Uint64(id[:])
		}
		if err := s.writeFileAtomic(path, []byte(fmt.Sprintf("%016x\n", site))); err != nil {
			return nil, fmt.Errorf("service: keep the site id: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("service: site id: %w", err)
	default:
		if site, err = strconv.ParseUint(strings.TrimSpace(string(b)), 16, 64); err != nil || site == 0 {
			return nil, fmt.Errorf("service: site id file %s: %q is not a site id", path, b)
		}
	}
	s.logf("site %016x forwards its log to %s", site, s.cfg.PushTo)
	return &forwarder{
		s: s, w: w, site: site, limit: forwardBatchBytes,
		cl:   client.New(s.cfg.PushTo, client.WithRetries(0), client.WithHTTPClient(&http.Client{Timeout: forwardTimeout})),
		stop: make(chan struct{}), exited: make(chan struct{}),
	}, nil
}

// run follows the log from what the coordinator has confirmed until drain
// stops it, pausing forwardPause after a failed attempt. Once drain is
// called, the first failure ends it and the log keeps the rest for the
// next start.
func (f *forwarder) run() {
	defer close(f.exited)
	for {
		stopping := false
		select {
		case <-f.stop:
			stopping = true
		default:
		}
		f.body, f.ends = f.body[:0], f.ends[:0]
		f.err = f.w.Follow(f.acked.Load(), f.stop, f.gather)
		switch {
		case f.err == nil, errors.Is(f.err, wal.ErrClosed):
			f.err = nil
			return
		case errors.Is(f.err, errSkipToMark):
			continue
		case errors.Is(f.err, wal.ErrTruncated):
			// Pruned records were all confirmed, in this process or an earlier one.
			f.acked.Store(f.w.OldestLSN() - 1)
			continue
		}
		f.failed(f.err)
		if stopping {
			return
		}
		select {
		case <-f.stop:
		case <-time.After(forwardPause):
		}
	}
}

// failed counts and logs a failed attempt. A refusal the coordinator will
// repeat — a 4xx but an overload shed: a tenant cap, incompatible options,
// a body too large — is kept for /v1/stats, since every record behind it
// waits, and the log with them.
func (f *forwarder) failed(err error) {
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status < 500 && !client.IsBusy(err) {
		msg := fmt.Sprintf("the coordinator refuses the records after LSN %d: %v", f.acked.Load(), err)
		f.stalled.Store(&msg)
		f.s.metrics.siteForwardsRefused.Inc()
	} else {
		f.s.metrics.siteForwardsFailed.Inc()
	}
	f.s.logf("forward to %s: %v", f.s.cfg.PushTo, err)
}

// gather adds one record of the log to the next forward, and sends the
// forward once the log has no more followable or the record would take it
// past limit (then without the record, which starts the next). A record
// with no state (a checkpoint marker, a probe) is not sent, only passed.
func (f *forwarder) gather(lsn uint64, typ wal.RecordType, payload []byte) error {
	switch typ {
	case wal.RecordIngest, wal.RecordPush, wal.RecordForward:
		f.body = client.AppendForwardRecord(f.body, lsn, uint8(typ), payload)
		if n := len(f.ends); n > 0 && len(f.body) > f.limit {
			f.body = f.body[:f.ends[n-1].end]
			if err := f.send(f.ends[n-1].lsn); err != nil {
				return err
			}
			f.body = client.AppendForwardRecord(f.body, lsn, uint8(typ), payload)
		}
		f.ends = append(f.ends, recordEnd{lsn, len(f.body)})
	}
	if lsn < f.w.FollowableLSN() {
		return nil
	}
	return f.send(lsn)
}

// send forwards the records gathered; the log has been followed to upTo,
// and no record after the last gathered one carries state. A coordinator
// refuses a forward past its body cap or its tuple cap as too large
// (client.IsTooLarge): then the first half of the records goes, down to
// one, and limit comes down to what went.
func (f *forwarder) send(upTo uint64) error {
	body, ends := f.body, f.ends
	f.body, f.ends = f.body[:0], f.ends[:0]
	if len(ends) == 0 {
		f.acked.Store(upTo)
		return nil
	}
	n := len(ends)
	var mark uint64
	var err error
	for {
		mark, err = f.cl.Forward(context.Background(), f.site, wal.Version, body[:ends[n-1].end])
		if n == 1 || !client.IsTooLarge(err) {
			break
		}
		n /= 2
		f.limit = ends[n-1].end
	}
	first, last := ends[0].lsn, ends[n-1].lsn
	switch {
	case err != nil:
		return fmt.Errorf("records %d–%d: %w", first, last, err)
	case mark < first: // a copy of these records failed its append ahead of them
		return fmt.Errorf("records %d–%d: the coordinator answered with mark %d", first, last, mark)
	case mark < last || mark > upTo: // a prefix was admitted, or the coordinator holds more
		if mark > f.w.LastLSN() {
			f.s.logf("forward: the coordinator's mark %d is past this log's end: a log restored from a backup needs its %s moved aside", mark, siteIDFile)
		}
		f.acked.Store(mark)
		return errSkipToMark
	}
	f.stalled.Store(nil)
	f.s.metrics.siteForwardsSent.Inc()
	if n < len(ends) { // only the first n went: follow again from there
		f.acked.Store(mark)
		return errSkipToMark
	}
	f.acked.Store(upTo)
	return nil
}

// drain is Close's last forward: what the log holds goes upstream until
// an attempt fails. It returns that attempt's error.
func (f *forwarder) drain() error {
	close(f.stop)
	<-f.exited
	return f.err
}
