package service

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// Log forwarding, the one way a log reaches another server: a site — any
// server with Config.PushTo, a standby's primary among them — follows its
// own log (wal.Follow) once per target and sends its ingest and forward
// records, as logged, to the target's POST /v1/forward: every record the
// log has made followable since the last answer, up to forwardBatchBytes
// (or what went after the target refused a forward as too large), in one
// request tagged with the site id and the log's format
// (client.AppendForwardRecord is the grammar). The target commits a
// forward as one job — one RecordForward, uvarint(site) and then the
// records it admitted verbatim, behind one barrier — and applies the
// records through the applies the site used, so it keeps one summary per
// tenant over every site's stream and nothing is merged. Its mark for the
// site, the highest site LSN applied, advances. A mark is state (logged
// and checkpointed): a record at or below it is dropped, at every depth of
// nesting — a site's records can reach a coordinator both directly and
// inside another site's forwards (a promoted standby's, a re-pointed
// site's) — so a site may always send again and, after a restart, skips
// to the mark the first answer names. A forward also names prev, the
// site's last record with state before its first: a mark behind prev — a
// target restarted on an older copy of its state — lacks the records
// between, so the forward is refused with the mark (a 409,
// client.CodeGap) and the site sends again from there. A record the
// target refuses stops the records behind it, whose order the site's log
// fixes. An idle forwarder sends an empty forward every forwardPause: a
// standby's heartbeat, answered with the mark like any other.
//
// A checkpoint's records replace state, so a site sends them only to a
// target behind its log (boot) or following a log that opens on one. Only
// a standby applies them (checkpoint.go), from the site it heard first, at
// any depth, and admits a forward that begins with one across a gap: an
// empty standby is bootstrapped over the wire. Any other server drops them
// at every depth, logging probes in their place, and refuses such a
// forward across a gap by name. The site id names one LSN space: it is
// kept beside the log, and a log that starts over gets a new one.

// siteRecord is one record of a forward, as admission decoded it: its
// LSN and type in the site's log, its payload, the tenants whose admission
// it needs and, for an ingest record, the batches its apply takes as they
// are. A checkpoint's record the decide drops becomes a probe, which
// applies nothing.
type siteRecord struct {
	lsn     uint64
	typ     wal.RecordType
	payload []byte
	keys    [][]byte
	batches []tenantBatch
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
		lsn, n := binary.Uvarint(body[off:])
		if n <= 0 || lsn <= prev || off+n >= len(body) {
			return fmt.Errorf("forward: bad record header at byte %d", off)
		}
		off += n
		r := siteRecord{lsn: lsn, typ: wal.RecordType(body[off])}
		size, n := binary.Uvarint(body[off+1:])
		if off++; n <= 0 || size > uint64(len(body)-off-n) {
			return fmt.Errorf("forward: site record %d: bad length", lsn)
		}
		off += n
		r.payload = body[off : off+int(size)]
		if err := fn(r); err != nil {
			return fmt.Errorf("site record %d: %w", lsn, err)
		}
		off, prev = off+int(size), lsn
	}
	return nil
}

// holds reports whether a site record is of one of types, or a forward
// that holds one at any depth. Admission validated the record.
func holds(typ wal.RecordType, payload []byte, types ...wal.RecordType) (found bool) {
	if typ == wal.RecordForward {
		_, records, _ := splitForward(payload)
		walkSiteRecords(records, func(r siteRecord) error {
			found = found || holds(r.typ, r.payload, types...)
			return nil
		})
	}
	return found || slices.Contains(types, typ)
}

// dropCheckpoints is a site record with every checkpoint's record in it,
// at any depth, made a probe: what a server that does not apply them logs
// and applies, so its replay drops them too.
func dropCheckpoints(typ wal.RecordType, payload []byte) (wal.RecordType, []byte) {
	switch typ {
	case wal.RecordImage, wal.RecordCheckpoint:
		return wal.RecordProbe, nil
	case wal.RecordForward:
		site, records, _ := splitForward(payload)
		out := binary.AppendUvarint(nil, site)
		walkSiteRecords(records, func(r siteRecord) error {
			typ, payload := dropCheckpoints(r.typ, r.payload)
			out = client.AppendForwardRecord(out, r.lsn, uint8(typ), payload)
			return nil
		})
		return typ, out
	}
	return typ, payload
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
// decode with every y at most YMax, a checkpoint's image or record, or a
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
// whose admission it needs, taking what its ingest records decode to from
// *left; an ingest record's decoded batches come back for the apply. An
// image needs none: it makes its tenant whatever the caps say, as replay
// does, since it carries state a log already holds.
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
	case wal.RecordImage:
		_, _, err := tupleio.DecodeTenantPrefix(payload)
		return nil, nil, err
	case wal.RecordCheckpoint:
		_, _, err := decodeCheckpoint(payload)
		return nil, nil, err
	case wal.RecordProbe: // a record the server that logged the forward dropped at the mark
		return nil, nil, nil
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
	return nil, nil, fmt.Errorf("service: a forward carries ingest, image, checkpoint or forward records, not type %d", typ)
}

// decideForwardLocked is the decide step of a forward: against the site's
// mark — counting the group's records before it (earlier) — it refuses a
// forward whose prev is past the mark (but one that begins with a
// checkpoint's record, where those apply), drops the records at or below
// the mark, makes probes of checkpoints' records where those do not apply,
// and admits the rest in order until one names a tenant admitLocked
// refuses. j.recs keeps what was admitted; a forward none of whose new
// records is admitted is refused with the first one's error, and one with
// no new record writes nothing. Callers hold s.mu.
func (s *Server) decideForwardLocked(j *ingestJob, earlier []groupRecord, made *[][]byte) bool {
	mark := s.marks[j.site]
	for _, r := range earlier {
		o := r.jobs[0]
		if o.op != opForward {
			continue
		}
		if o.site == j.site {
			mark = max(mark, o.recs[len(o.recs)-1].lsn)
		}
		if slices.ContainsFunc(o.recs, func(r siteRecord) bool { return holds(r.typ, r.payload, wal.RecordCheckpoint) }) {
			// Its apply replaces the marks this decide reads: the next
			// group decides against them.
			j.kind, j.err = ingestErrBusy, errOverloaded
			return false
		}
	}
	applies := s.standby.Load() && s.heard.site.Load() == j.site
	switch boot := j.recs[0].typ == wal.RecordImage || j.recs[0].typ == wal.RecordCheckpoint; {
	case j.prev <= mark, boot && applies:
	case boot:
		j.kind, j.err = ingestErrGap, fmt.Errorf("site %016x: its records follow LSN %d, and this server holds its records up to LSN %d, so it can take them only from the checkpoint they begin with, which would replace this server's state, and only a standby applies one, from the site it heard first: start the target with -standby on an empty -wal-dir, then promote it (README \"Replication & HA\")", j.site, j.prev, mark)
		return false
	default:
		j.kind, j.err = ingestErrGap, gapError{mark, fmt.Errorf("site %016x: its records follow LSN %d, and this server holds its records up to LSN %d: send from there", j.site, j.prev, mark)}
		return false
	}
	recs := j.recs
	for len(recs) > 0 && recs[0].lsn <= mark {
		recs = recs[1:]
	}
	s.metrics.forwardsDuplicate.Add(uint64(len(j.recs) - len(recs)))
	n := 0
admit:
	for ; n < len(recs); n++ {
		r := &recs[n]
		if !applies && holds(r.typ, r.payload, wal.RecordImage, wal.RecordCheckpoint) {
			r.typ, r.payload = dropCheckpoints(r.typ, r.payload)
		}
		before := len(*made)
		for _, key := range r.keys {
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
// from the batches admission decoded. Callers hold s.mu.
func (s *Server) applyForwardLocked(j *ingestJob) error {
	var st replayState
	for _, r := range j.recs {
		if err := s.applySiteRecordLocked(j.site, r, &st); err != nil {
			return fmt.Errorf("site record %d: %w", r.lsn, err)
		}
	}
	return nil
}

// applyForwardRecordLocked is a RecordForward's apply on replay, and of
// one nested in a forward: each record through applySiteRecordLocked.
// Callers hold s.mu, or run before any goroutine exists.
func (s *Server) applyForwardRecordLocked(payload []byte, st *replayState) error {
	site, records, err := splitForward(payload)
	if err != nil {
		return err
	}
	return walkSiteRecords(records, func(r siteRecord) error { return s.applySiteRecordLocked(site, r, st) })
}

// applySiteRecordLocked is the one apply of a record of a site's log, live
// and on replay, outermost or nested: a record at or below the site's mark
// is already applied and is dropped; any other is applied — an ingest
// record from the batches admission decoded when it has them — and
// becomes the mark, but an image: a checkpoint moves the mark at its
// closing record alone, so a mark never stands inside one. Callers hold
// s.mu, or run before any goroutine exists.
func (s *Server) applySiteRecordLocked(site uint64, r siteRecord, st *replayState) error {
	if r.lsn <= s.marks[site] {
		return nil
	}
	var err error
	if r.batches != nil {
		err = s.applyGroupLocked(r.batches)
	} else {
		err = s.applyStateLocked(r.typ, r.payload, st)
	}
	if err != nil {
		return err
	}
	if r.typ != wal.RecordImage {
		s.marks[site] = r.lsn
	}
	return nil
}

// gapError refuses a forward whose records follow a site record this server
// does not hold; its 409 names client.CodeGap and the mark to send from.
type gapError struct {
	mark uint64
	error
}

// handleForward is POST /v1/forward?site=ID&format=V&prev=LSN
// (client.Forward): records of a site's log, committed as one job — the one
// write a standby takes — or, with no record, an idle site's heartbeat,
// which only reads the mark. Records in another log format than this
// server's are refused whole, and records whose prev is past the mark are
// refused with a 409 that carries it. Every 200 carries the site's mark.
func (s *Server) handleForward(w http.ResponseWriter, r *http.Request) {
	errs := &s.metrics.forwardsRejected
	site, err := strconv.ParseUint(r.URL.Query().Get("site"), 16, 64)
	if err != nil || site == 0 {
		s.nack(w, errs, ingestErrValidate, fmt.Errorf("a forward names its site, a non-zero hex id: %v", err))
		return
	}
	if format := r.URL.Query().Get("format"); format != strconv.Itoa(wal.Version) {
		s.nack(w, errs, ingestErrValidate, fmt.Errorf("the site's records are in log format %q, this coordinator reads log format %d: run both on one release (README \"Storage format\")", format, wal.Version))
		return
	}
	prev, err := strconv.ParseUint(r.URL.Query().Get("prev"), 10, 64)
	if err != nil {
		s.nack(w, errs, ingestErrValidate, fmt.Errorf("a forward names prev, the LSN of the site's last state-carrying record before its records: run both ends on one release: %v", err))
		return
	}
	s.hear(site)
	if kind, err := s.writeGate(true); kind != ingestOK {
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
	if len(d.body) > 0 {
		j := &d.job
		j.op, j.image, j.site, j.prev = opForward, d.body, site, prev
		if !s.commitRequest(w, r, errs, j) {
			return
		}
		if j.tn != nil {
			s.metrics.forwardsApplied.Add(uint64(len(j.recs)))
		}
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
	// forwardPause is the wait after a failed attempt before the next, and
	// how long an idle forwarder waits before its empty forward.
	forwardPause = time.Second
)

// forwardBatchBytes bounds a forward's body until the target refuses one
// as too large; a larger record goes alone.
const forwardBatchBytes = 1 << 20

// siteIDFile holds the site id, in hex, beside the log's segments.
const siteIDFile = "site-id"

// errSkipToMark ends a Follow whose answer moved the forwarder to the
// target's mark: past what it sent, or short of it.
var errSkipToMark = errors.New("service: follow again from the target's mark")

// forwarder is a site's path to one target. acked is how far the target
// has confirmed: every record at or below it is applied there or carries
// no state. prev is the last record carrying state that the target has
// confirmed, or the mark it answered with: what the next forward names as
// prev, whatever record with no state acked stands on. boot, while the
// target is sent a checkpoint, is that checkpoint's first LSN: the follow
// starts there, and the log keeps it. body gathers the next forward, one
// entry of ends a record, within limit bytes unless one record is larger.
// stalled is the target's last refusal, until a forward is confirmed. err
// is the last failed attempt, read after exited.
type forwarder struct {
	s       *Server
	w       *wal.WAL
	to      string
	cl      *client.Client // one attempt a call: run pauses between
	site    uint64
	acked   atomic.Uint64
	boot    atomic.Uint64
	prev    uint64
	body    []byte
	ends    []recordEnd
	limit   int
	stalled atomic.Pointer[string]
	ctx     context.Context // done once drain is called
	stop    context.CancelFunc
	exited  chan struct{}
	err     error
}

// recordEnd is where a record of a forward's body ends, and its LSN.
type recordEnd struct {
	lsn uint64
	end int
}

// newForwarders makes one forwarder for each comma-separated target of
// Config.PushTo, under the site id kept beside the log — minted and kept
// when there is none or the log holds no record yet. An id file that does
// not parse is refused, not replaced: a new id would send the log again.
// run starts a forwarder.
func (s *Server) newForwarders() ([]*forwarder, error) {
	w, path := s.wal, filepath.Join(s.cfg.WALDir, siteIDFile)
	var site uint64
	b, err := s.fs.ReadFile(path)
	switch {
	case w.LastLSN() == 0 || errors.Is(err, os.ErrNotExist):
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
	var fwds []*forwarder
	for _, to := range strings.Split(s.cfg.PushTo, ",") {
		if to = strings.TrimSpace(to); to == "" {
			return nil, fmt.Errorf("service: PushTo %q names an empty target", s.cfg.PushTo)
		}
		f := &forwarder{
			s: s, w: w, to: to, site: site, limit: forwardBatchBytes,
			cl:     client.New(to, client.WithRetries(0), client.WithHTTPClient(&http.Client{Timeout: forwardTimeout})),
			exited: make(chan struct{}),
		}
		f.ctx, f.stop = context.WithCancel(context.Background())
		fwds = append(fwds, f)
		s.logf("site %016x forwards its log to %s", site, to)
	}
	return fwds, nil
}

// writeFileAtomic writes data to path through a synced sibling temp file
// renamed over it, so a reader sees the old file or the new one, never a
// prefix, and then syncs the directory (best effort). Every call goes
// through s.fs, so the fault harness can break any step.
func (s *Server) writeFileAtomic(path string, data []byte) error {
	tmp, err := s.fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err = cmp.Or(err, tmp.Sync(), tmp.Close()); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := s.fs.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// run follows the log from what the target has confirmed until drain
// stops it: one follow, which waits at the frontier and, forwardPause into
// a wait, sends an empty forward (idle). It follows again from the mark
// when an answer moves it, from the newest checkpoint's start (boot) when
// the mark is behind the log's oldest record, until the target confirms
// its closing record, and after a failed attempt, which pauses first.
// Once drain is called, the follow ends at the frontier, or at its first
// failure, and the log keeps the rest for the next start.
func (f *forwarder) run() {
	defer close(f.exited)
	for {
		stopping := f.ctx.Err() != nil
		f.body, f.ends = f.body[:0], f.ends[:0]
		from := f.acked.Load()
		if first := f.boot.Load(); first != 0 {
			// Named as prev, the record before the first image is past the
			// mark, so only a standby takes the forward (decideForwardLocked).
			from, f.prev = first-1, first-1
		}
		err := f.w.Follow(from, f.ctx.Done(), wal.Idle{After: forwardPause, Fn: f.idle}, f.gather)
		switch {
		case errors.Is(err, errSkipToMark):
			continue
		case errors.Is(err, wal.ErrTruncated):
			// Behind the oldest record: where does the target stand?
			var mark uint64
			if mark, err = f.cl.Forward(context.Background(), f.site, wal.Version, f.prev, nil); err == nil {
				f.skipTo(mark)
				if oldest := f.w.OldestLSN(); mark+1 < oldest {
					ck := f.w.LastCheckpoint()
					f.boot.Store(ck.First)
					f.s.logf("forward to %s: its mark %d is behind this log's oldest record %d: sending it the checkpoint at LSN %d", f.to, mark, oldest, ck.LSN)
				}
				continue
			}
		}
		if f.err = err; err == nil || errors.Is(err, wal.ErrClosed) {
			f.err = nil
			return
		}
		f.failed(err)
		if stopping {
			return
		}
		select {
		case <-f.ctx.Done():
		case <-time.After(forwardPause):
		}
	}
}

// idle is the follow's wait at the frontier, forwardPause after its last
// forward: an empty one — to a standby, the heartbeat its silence timer
// waits on — which the target answers with its mark. The follow goes on
// while the mark is where the follow stands — at or past the last record
// it had confirmed, and short of no record it has passed — and a failure
// is counted and asked again at the next pause; a mark elsewhere (a target
// that lost records, or holds some past this log's end) is followed anew.
func (f *forwarder) idle() error {
	mark, err := f.cl.Forward(context.Background(), f.site, wal.Version, f.prev, nil)
	switch {
	case err != nil:
		f.failed(err)
	case mark < f.prev || mark > f.acked.Load():
		f.skipTo(mark)
		return errSkipToMark
	}
	return nil
}

// skipTo follows from the target's mark; a mark past this log's end is
// logged once, when the forwarder moves to it.
func (f *forwarder) skipTo(mark uint64) {
	f.prev = mark
	f.boot.Store(0)
	if f.acked.Swap(mark) != mark && mark > f.w.LastLSN() {
		f.s.logf("forward to %s: its mark %d is past this log's end: a log restored from a backup needs its %s moved aside", f.to, mark, siteIDFile)
	}
}

// failed counts and logs a failed attempt. A refusal the target will
// repeat — a 4xx but an overload shed: a tenant cap, a record it does not
// apply, a checkpoint only a standby takes, a body too large — is kept for
// /v1/stats, since every record behind it waits, and the log with them.
func (f *forwarder) failed(err error) {
	var ae *client.APIError
	switch {
	case errors.As(err, &ae) && ae.Status < 500 && !client.IsBusy(err):
		msg := fmt.Sprintf("%s refuses the records after LSN %d: %v", f.to, f.acked.Load(), err)
		f.stalled.Store(&msg)
		f.s.metrics.siteForwardsRefused.Inc()
	default:
		f.s.metrics.siteForwardsFailed.Inc()
	}
	f.s.logf("forward to %s: %v", f.to, err)
}

// gather adds one record of the log to the next forward, and sends the
// forward once the log has no more followable or the record would take it
// past limit (then without the record, which starts the next). A probe is
// passed, not sent, and so is a checkpoint's record unless the follow
// boots: run started it at the checkpoint, or the log opens on one (an
// import). A booting follow sends at the closing record, and boots until
// a forward moves the mark. Every other record is sent, so the target
// refuses one it does not apply by name and the site stalls on it.
func (f *forwarder) gather(lsn uint64, typ wal.RecordType, payload []byte) error {
	if lsn == 1 && typ == wal.RecordImage {
		f.boot.Store(1)
	}
	boot := f.boot.Load() != 0
	if typ != wal.RecordProbe && (boot || typ != wal.RecordImage && typ != wal.RecordCheckpoint) {
		f.body = client.AppendForwardRecord(f.body, lsn, uint8(typ), payload)
		if n := len(f.ends); n > 0 && len(f.body) > f.limit {
			f.body = f.body[:f.ends[n-1].end]
			if err := f.send(f.ends[n-1].lsn); err != nil {
				return err
			}
			f.body = client.AppendForwardRecord(f.body, lsn, uint8(typ), payload)
		}
		f.ends = append(f.ends, recordEnd{lsn, len(f.body)})
		if boot && typ == wal.RecordCheckpoint {
			return f.send(lsn)
		}
	}
	if lsn < f.w.FollowableLSN() {
		return nil
	}
	return f.send(lsn)
}

// send forwards the records gathered; the log has been followed to upTo,
// and no record after the last gathered one carries state. A target
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
		mark, err = f.cl.Forward(context.Background(), f.site, wal.Version, f.prev, body[:ends[n-1].end])
		if n == 1 || !client.IsTooLarge(err) {
			break
		}
		n /= 2
		f.limit = ends[n-1].end
	}
	first, last := ends[0].lsn, ends[n-1].lsn
	if n < len(ends) { // only the first n went
		upTo = last
	}
	boot := f.boot.Load() != 0
	switch {
	case client.IsGap(err): // the target lacks records before these: send from its mark
		f.skipTo(mark)
		return errSkipToMark
	case client.IsTooLarge(err):
		return fmt.Errorf("record %d alone is %d bytes, and the target refuses it as too large: start the target with a larger -max-body: %w", first, ends[0].end, err)
	case err != nil:
		return fmt.Errorf("records %d–%d: %w", first, last, err)
	case mark < first && !boot: // a copy of these records failed its append ahead of them
		return fmt.Errorf("records %d–%d: the target answered with mark %d", first, last, mark)
	case mark >= first && (mark < last || mark > upTo): // a prefix was admitted, or the target holds more
		f.skipTo(mark)
		return errSkipToMark
	}
	f.stalled.Store(nil)
	f.s.metrics.siteForwardsSent.Inc()
	f.prev = last
	if mark >= first { // else images a standby applied: its mark moves at the closing record
		f.acked.Store(upTo)
		f.boot.Store(0)
	}
	if n < len(ends) { // follow again from the rest
		return errSkipToMark
	}
	return nil
}

// drain is Close's last forward: what the log holds goes to the target
// until an attempt fails. It returns that attempt's error.
func (f *forwarder) drain() error {
	f.stop()
	<-f.exited
	return f.err
}
