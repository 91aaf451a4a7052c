// Package wal is the durable-ingest subsystem of the corrd service: a
// segmented append-only write-ahead log with CRC32C-framed records, the
// piece that closes the durability window left by periodic snapshots.
// The service logs each accepted ingest batch, push image and forwarded
// site record before acknowledging it, so an acknowledged request survives a crash; on
// restart the engine is rebuilt as snapshot + replayed log suffix.
//
// # Log structure
//
// The log is a directory of segment files named wal-%016x.seg, where
// the hex field is the LSN (log sequence number, 1-based) of the first
// record in the segment. Each segment starts with a fixed header
// (magic, version, first LSN) and then holds a run of frames:
//
//	length  uint32 LE   payload length
//	crc     uint32 LE   CRC32C over type byte + payload
//	type    uint8       record type
//	payload length bytes
//
// Records are assigned consecutive LSNs in append order across
// segments. When the active segment reaches SegmentBytes it is sealed —
// synced to disk regardless of fsync policy, so a sealed segment is
// always fully durable — and a new one is started.
//
// # Fsync policy
//
// There is one append, AppendNoSync, and one barrier, Sync. Under
// SyncAlways the writer appends the records of a commit group and calls
// Sync once: when it returns nil every one of them survives kill -9, and
// when it fails it has already rewound all of them out of the log, under
// the same lock hold — a record is durable exactly when the barrier its
// writer waited on returned nil. This is the policy the ack path pays for
// and the one BenchmarkWALAppend prices (one record, one barrier).
// SyncInterval leaves the barrier to the writer's own clock — the log
// starts no goroutine and owns no ticker; the service queues a barrier job
// every interval, so a crash loses at most the last interval of
// acknowledged records; SyncOff leaves syncing to the OS page cache (crash
// durability is best-effort, but the log still orders and frames records
// for clean restarts). Under both a failed Sync rewinds nothing: the
// unsynced suffix there is acknowledged data.
//
// # Recovery
//
// Open validates the segment chain and scans the final segment. A
// frame that fails its length or CRC check in the final segment is a
// torn tail — the write that was in flight when the process died — and
// the segment is truncated to the last whole frame. Under SyncAlways a
// torn frame can only be an unacknowledged record, so truncation never
// discards acknowledged data: every frame behind the last fsync barrier
// is intact because appends are sequential and sync covers a prefix.
// A bad frame in a sealed (non-final) segment can not be a torn write —
// sealing synced it — so it is reported as corruption instead of being
// silently dropped.
//
// # Checkpoints
//
// A checkpoint is a RecordCheckpoint marker, appended and synced by the
// writer like any other record, recording that some external snapshot
// captures the effects of every record with LSN <= covered; once the
// marker is durable, Checkpoint(covered) deletes the sealed segments
// whose records are all covered. Replay starts from an LSN the caller
// recovers from its snapshot, so pruned segments are never needed
// again. The marker itself also lets an Open-time reader see where the
// last snapshot cut the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streamagg/correlated/internal/fault"
)

// RecordType tags what a record's payload is; the WAL itself treats the
// payload as opaque bytes.
type RecordType uint8

const (
	// RecordIngest is one group-commit unit: one sorted batch per tenant
	// the group touched (tupleio.AppendSortedBatch — tenant prefix, the
	// empty key for the default tenant, a count, the rows with y as the
	// gap to the row before, then the weights unless all are 1) back to
	// back in first-touch order, delimited by the frame length. A member
	// is the argument of the one AddBatch the service gave that tenant
	// under the group's single critical section — its requests
	// concatenated and sorted by y — acknowledged behind this record's
	// single fsync; replay hands each tenant the same argument.
	RecordIngest RecordType = 1
	// RecordPush is a marshaled summary image folded in through
	// POST /v1/push: a tupleio tenant prefix, then the image.
	RecordPush RecordType = 2
	// RecordCheckpoint carries uvarint(covered): a snapshot durable
	// outside the log captures every record with LSN <= covered.
	RecordCheckpoint RecordType = 4
	// RecordForward is a record a site forwarded from its own log:
	// uvarint(site id), uvarint(the record's LSN in the site's log), the
	// record's type byte (RecordIngest or RecordPush), then the site's
	// payload verbatim. Applying it applies the inner record and advances
	// the site's mark, below which a forward is a duplicate.
	RecordForward RecordType = 5
	// RecordProbe is a no-op health probe with an empty payload: the
	// record Probe appends to prove, behind the next Sync, that the log
	// can take durable writes again after a fault. Replay and replication skip
	// it — it carries no state, only the evidence of a working disk.
	RecordProbe RecordType = 7
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways makes Sync the barrier acknowledgements wait on: an
	// acknowledged record survives kill -9. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges ahead of the fsync: the writer calls Sync
	// on a clock of its own, and a failed Sync rewinds nothing.
	SyncInterval
	// SyncOff never fsyncs on the append path (segment seals and Close
	// still sync); durability is left to the OS.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling used by cmd/corrd.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options configures a WAL. The zero value is usable: SyncAlways,
// 64 MiB segments.
type Options struct {
	// SegmentBytes is the rotation threshold; a segment is sealed once
	// it reaches this size. <= 0 means 64 MiB. An oversized record still
	// goes into a single (oversized) segment.
	SegmentBytes int64
	// Sync selects the fsync policy.
	Sync SyncPolicy
	// OnFsync, when set, observes the wall-clock duration of every
	// successful fsync of the active segment (for latency histograms).
	OnFsync func(time.Duration)
	// FirstLSN, when > 0, numbers the first record of a brand-new log
	// (an empty directory) FirstLSN instead of 1. A promoted replica
	// uses it to continue its former primary's LSN space, so the LSNs
	// in its snapshots and its own log never collide. Ignored when the
	// directory already holds segments.
	FirstLSN uint64
	// FS is the filesystem the log lives on; nil means the real OS.
	// Tests and chaos harnesses hand a *fault.Injector here to make the
	// disk fail on cue (internal/fault).
	FS fault.FS
}

const (
	defaultSegmentBytes = 64 << 20

	// MaxPayload bounds a single record; a frame claiming more is
	// malformed by construction, which also bounds replay-side
	// allocation before any CRC work happens.
	MaxPayload = 1 << 30

	headerSize = 17 // magic(8) + version(1) + firstLSN(8)
	frameSize  = 9  // length(4) + crc(4) + type(1)

	// walVersion is the segment format version; each is an explicit
	// break in the log grammar. Version 2 keyed every ingest and push
	// record; version 3 made an ingest record's member a tenant's sorted
	// batch where it was a request's tuples in client order; version 4
	// dropped a site's push-round records (reset, ack, fold-back) for
	// RecordForward. A segment of an earlier version holds records this
	// code no longer decodes, so it is refused by name (ErrVersion) —
	// never reinterpreted.
	walVersion = 4
)

var (
	magic = [8]byte{'c', 'o', 'r', 'r', 'd', 'w', 'a', 'l'}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	// ErrClosed is returned by operations on a closed WAL.
	ErrClosed = errors.New("wal: closed")
	// ErrCorrupt reports a malformed segment that cannot be explained
	// by a torn tail write (bad header, bad frame in a sealed segment,
	// broken LSN chain).
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrVersion reports a well-formed segment written in another format
	// version — a log from before (or after) the version break. Open
	// returns it without modifying any file; the migration recipe is in
	// the README's "Storage format" section.
	ErrVersion = errors.New("wal: unsupported segment format version")
	// ErrBroken marks the log sticky-broken: a failed append or barrier
	// could not be rewound, so a later record could sit behind garbage and
	// be truncated away as a torn tail on restart. Every append returns an
	// error wrapping ErrBroken until Probe repairs the tail — the
	// service's health machine keys its healthy→degraded transition on
	// this sentinel.
	ErrBroken = errors.New("wal: log is broken")
	// ErrTruncated is returned by Follow when the requested start
	// position has been pruned by a checkpoint: the records are gone and
	// the caller must resynchronize from a snapshot instead.
	ErrTruncated = errors.New("wal: follow position pruned by checkpoint")
)

// Stats is a point-in-time snapshot of the WAL's counters, safe to read
// concurrently with appends.
type Stats struct {
	Segments       int64  // segment files currently on disk
	Appends        uint64 // records appended this process
	AppendedBytes  uint64 // frame bytes appended this process
	Fsyncs         uint64 // successful fsyncs of the active segment
	Checkpoints    uint64 // checkpoints pruned behind
	PrunedSegments uint64 // sealed segments deleted by checkpoints
	LastLSN        uint64 // LSN of the most recently appended record
}

// WAL is a segmented write-ahead log. Every method is safe to call
// beside any other, but the write side — AppendNoSync, Sync, Probe — is
// built for one writer: a failed Sync rewinds every unsynced record, so
// only a writer that waits on the same barrier for all of them can tell
// each record's author the truth. The service's committer is that
// writer; it also holds its own lock across each apply + append pair,
// which is what makes log order equal apply order.
type WAL struct {
	dir  string
	opts Options
	fs   fault.FS

	mu       sync.Mutex
	f        fault.File // active segment
	size     int64      // bytes written to the active segment
	segFirst uint64     // first LSN of the active segment
	nextLSN  uint64     // LSN the next append will get
	dirty    bool       // unsynced bytes in the active segment
	closed   bool
	broken   error  // sticky: a partial append could not be rewound
	frame    []byte // reusable frame-assembly buffer

	// durable is the highest LSN known to be on stable storage — the
	// frontier Follow hands to followers under SyncAlways/SyncInterval,
	// so a replica can never hold a record that a torn-tail truncation
	// would remove from this log after a crash. Advanced in syncLocked.
	durable uint64
	// syncedSize is the active segment's byte length as of the last
	// successful fsync (or as recovered at Open): the offset, paired
	// with durable, that rewindUnsyncedLocked truncates back to when a
	// SyncAlways barrier fails. Maintained alongside durable
	// in syncLocked and reset by openActive/startSegment.
	syncedSize int64
	// notify is closed and replaced whenever the followable frontier
	// advances; followers wait on the channel they snapshotted.
	notify chan struct{}

	// sealed is every non-active segment: firstLSN -> lastLSN,
	// maintained for checkpoint pruning.
	sealed map[uint64]uint64

	segments       atomic.Int64
	appends        atomic.Uint64
	appendedBytes  atomic.Uint64
	fsyncs         atomic.Uint64
	checkpoints    atomic.Uint64
	prunedSegments atomic.Uint64
	lastLSN        atomic.Uint64

	done chan struct{} // closed by Close: wakes waiting followers
}

func segmentName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.seg", firstLSN) }

// syncDir fsyncs the log directory so segment creations and deletions
// survive a power loss — without it, a freshly rotated segment full of
// fsynced (acknowledged) records could itself vanish with the directory
// entry.
func (w *WAL) syncDir() error {
	d, err := w.fs.Open(w.dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Open opens (creating if needed) the log in dir, validates the segment
// chain, truncates a torn tail in the final segment, and positions the
// writer after the last whole record. It never truncates a sealed
// segment: corruption there is an error, not data to discard.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = fault.OS()
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		dir:    dir,
		opts:   opts,
		fs:     opts.FS,
		sealed: map[uint64]uint64{},
		done:   make(chan struct{}),
		notify: make(chan struct{}),
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	// Everything recover left on disk is the replay baseline: it is what
	// a crash-restart would rebuild from, so followers may have it.
	w.durable = w.lastLSN.Load()
	return w, nil
}

// listSegments returns the segment firstLSNs in dir, ascending.
func listSegments(fsys fault.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		var first uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%016x.seg", &first); err != nil {
			continue // foreign file; ignore
		}
		firsts = append(firsts, first)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// recover scans the on-disk state: validates headers and the LSN chain,
// counts records, truncates the final segment's torn tail, and opens
// the active segment for appending.
func (w *WAL) recover() error {
	firsts, err := listSegments(w.fs, w.dir)
	if err != nil {
		return err
	}
	if len(firsts) == 0 {
		first := uint64(1)
		if w.opts.FirstLSN > 0 {
			first = w.opts.FirstLSN
		}
		return w.startSegment(first)
	}
	next := firsts[0]
	for i, first := range firsts {
		if first != next {
			return fmt.Errorf("%w: segment chain broken at %s (expected first LSN %d)",
				ErrCorrupt, segmentName(first), next)
		}
		final := i == len(firsts)-1
		n, validEnd, err := w.scanSegment(filepath.Join(w.dir, segmentName(first)), first, final)
		if err != nil {
			return err
		}
		if final {
			if validEnd < 0 {
				// Torn header: the crash died inside segment creation,
				// before anything in it could have been acknowledged.
				// Recreate it cleanly.
				if err := w.fs.Remove(filepath.Join(w.dir, segmentName(first))); err != nil {
					return fmt.Errorf("wal: %w", err)
				}
				return w.startSegment(first)
			}
			return w.openActive(first, n-first, validEnd)
		}
		// n == first marks a sealed segment with zero records (a crash
		// right after rotation); its degenerate lastLSN first-1 makes
		// any checkpoint prune it.
		w.sealed[first] = n - 1
		w.segments.Add(1)
		next = n
	}
	return nil // unreachable: the loop always returns on the final segment
}

// scanSegment validates one segment file and returns the LSN one past
// its last whole record plus the byte offset where valid data ends. In
// the final segment a bad frame marks a torn tail (scan stops, caller
// truncates) and a bad header marks a creation torn mid-rotation
// (validEnd -1: caller reinitializes); in a sealed segment either is
// corruption.
func (w *WAL) scanSegment(path string, firstLSN uint64, final bool) (nextLSN uint64, validEnd int64, err error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	fileSize := info.Size()
	// A final segment no larger than its header can only come from a
	// rotation torn by a crash: appends follow the header write, so no
	// record — let alone an acknowledged one — can live in it.
	// Reinitialize it. A bad header on a segment that *does* hold data
	// is corruption: an acknowledged record's fsync would have
	// persisted the header too, so refuse rather than silently discard.
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if final && fileSize <= headerSize {
			return firstLSN, -1, nil // torn creation: reinitialize
		}
		return 0, 0, fmt.Errorf("%w: %s: short header", ErrCorrupt, filepath.Base(path))
	}
	if [8]byte(hdr[:8]) == magic && hdr[8] != walVersion {
		// Another version's segment, not a tear: no crash of this code
		// writes a whole magic beside a foreign version byte. Refused
		// whatever its size or position, so nothing of it is reinitialized.
		return 0, 0, fmt.Errorf("%w: %s is version %d, this corrd reads and writes version %d (see README \"Storage format\" for the migration)",
			ErrVersion, filepath.Base(path), hdr[8], walVersion)
	}
	if [8]byte(hdr[:8]) != magic || binary.LittleEndian.Uint64(hdr[9:]) != firstLSN {
		if final && fileSize <= headerSize {
			return firstLSN, -1, nil
		}
		return 0, 0, fmt.Errorf("%w: %s: bad header", ErrCorrupt, filepath.Base(path))
	}
	r := segReader{f: f, first: firstLSN, off: headerSize, lsn: firstLSN}
	err = r.walk(func() (bool, error) { return r.off < fileSize, nil },
		func(uint64, RecordType, []byte) error { return nil })
	if err != nil && !(final && errors.Is(err, ErrCorrupt)) {
		return 0, 0, err
	}
	return r.lsn, r.off, nil // a bad frame in the final segment is the torn tail: the valid prefix ends at it
}

// segReader walks one segment file's frames in LSN order — the package's
// one frame loop. Open's scan, Replay and Follow differ only in how far
// each may read, which it tells walk frame by frame.
type segReader struct {
	f       fault.File
	first   uint64 // the segment's first LSN, which names the file
	off     int64  // byte offset of the next frame
	lsn     uint64 // LSN of the next frame
	fh      [frameSize]byte
	payload []byte // reused from frame to frame, and from segment to segment
}

// open positions the reader on the first frame of the segment that starts
// at LSN first; the caller closes r.f.
func (r *segReader) open(w *WAL, first uint64) (err error) {
	if r.f, err = w.fs.Open(filepath.Join(w.dir, segmentName(first))); err != nil {
		return err
	}
	r.first, r.off, r.lsn = first, headerSize, first
	if _, err := r.f.Seek(r.off, io.SeekStart); err != nil {
		r.f.Close()
		return err
	}
	return nil
}

// walk hands fn the frames from the reader's position on, for as long as
// more says the next one may be read; it returns nil when more says no,
// and more's or fn's error. A frame that does not read back whole is
// ErrCorrupt, with off and lsn left on it — the caller decides whether
// that is a torn tail. The file's current size bounds each read: a frame
// the caller may read is fully written even mid-append of a later one.
func (r *segReader) walk(more func() (bool, error), fn func(lsn uint64, typ RecordType, data []byte) error) error {
	for {
		if ok, err := more(); !ok || err != nil {
			return err
		}
		info, err := r.f.Stat()
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		n, typ, data, err := readFrame(r.f, info.Size()-r.off, r.fh[:], &r.payload)
		if err != nil {
			return fmt.Errorf("%w: %s at offset %d (record %d): %v", ErrCorrupt, segmentName(r.first), r.off, r.lsn, err)
		}
		if err := fn(r.lsn, typ, data); err != nil {
			return err
		}
		r.off += n
		r.lsn++
	}
}

// readFrame reads one frame from r, which has remain bytes left. The
// payload is read into *payload (grown as needed). It returns the total
// frame length consumed. Any malformation — length exceeding the
// remaining bytes or MaxPayload, CRC mismatch, short read — is an
// error; the caller decides whether that means torn tail or corruption.
func readFrame(r io.Reader, remain int64, fh []byte, payload *[]byte) (n int64, typ RecordType, data []byte, err error) {
	if remain < frameSize {
		return 0, 0, nil, errors.New("short frame header")
	}
	if _, err := io.ReadFull(r, fh); err != nil {
		return 0, 0, nil, err
	}
	length := binary.LittleEndian.Uint32(fh[0:4])
	crc := binary.LittleEndian.Uint32(fh[4:8])
	typ = RecordType(fh[8])
	if length > MaxPayload || int64(length) > remain-frameSize {
		return 0, 0, nil, fmt.Errorf("frame claims %d payload bytes with %d remaining", length, remain-frameSize)
	}
	if cap(*payload) < int(length) {
		*payload = make([]byte, length)
	}
	data = (*payload)[:length]
	if _, err := io.ReadFull(r, data); err != nil {
		return 0, 0, nil, err
	}
	sum := crc32.Update(crc32.Checksum(fh[8:9], castagnoli), castagnoli, data)
	if sum != crc {
		return 0, 0, nil, errors.New("crc mismatch")
	}
	return frameSize + int64(length), typ, data, nil
}

// openActive truncates the final segment to validEnd and opens it for
// appending; nextDelta is the record count already in it.
func (w *WAL) openActive(firstLSN, recordCount uint64, validEnd int64) error {
	path := filepath.Join(w.dir, segmentName(firstLSN))
	f, err := w.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if info.Size() > validEnd {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.size = validEnd
	w.syncedSize = validEnd
	w.segFirst = firstLSN
	w.nextLSN = firstLSN + recordCount
	if w.nextLSN > 1 {
		w.lastLSN.Store(w.nextLSN - 1)
	}
	w.segments.Add(1)
	return nil
}

// startSegment creates and opens a fresh segment whose first record
// will carry firstLSN.
func (w *WAL) startSegment(firstLSN uint64) error {
	path := filepath.Join(w.dir, segmentName(firstLSN))
	f, err := w.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	hdr[8] = walVersion
	binary.LittleEndian.PutUint64(hdr[9:], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	// Persist the directory entry: an fsynced record is only as durable
	// as the file's existence.
	if err := w.syncDir(); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.size = headerSize
	w.syncedSize = headerSize
	w.segFirst = firstLSN
	w.nextLSN = firstLSN
	if firstLSN > 1 {
		// Keep LastLSN truthful on every path that starts a segment —
		// rotation (where it is already firstLSN-1) and torn-creation
		// reinit (where it would otherwise stay 0 and poison the next
		// snapshot's covered LSN).
		w.lastLSN.Store(firstLSN - 1)
	}
	w.dirty = true
	w.segments.Add(1)
	return nil
}

// rotateLocked seals the active segment — syncing it regardless of
// policy, so sealed segments are always fully durable — and starts the
// next one.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// The sealed file stays on disk (still counted in segments);
	// startSegment counts the new active file.
	w.sealed[w.segFirst] = w.nextLSN - 1
	return w.startSegment(w.nextLSN)
}

// AppendNoSync writes one record and returns its LSN. It never fsyncs
// (segment seals aside): the writer orders the append inside its own
// critical section and runs the barrier — Sync — outside it, once for
// every record of a commit group. Under SyncAlways the record is not
// durable, and not visible to followers, until that Sync returns nil.
func (w *WAL) AppendNoSync(typ RecordType, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(typ, payload)
}

func (w *WAL) appendLocked(typ RecordType, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds MaxPayload", len(payload))
	}
	if w.closed {
		return 0, ErrClosed
	}
	if w.broken != nil {
		return 0, fmt.Errorf("%w (failed to clean up a partial append): %w", ErrBroken, w.broken)
	}
	// Seal at the threshold — under SyncAlways only at a barrier boundary:
	// a seal syncs, and syncing part of a commit group would make those
	// records durable whatever the barrier their writer waits on says.
	if w.size >= w.opts.SegmentBytes && w.nextLSN > w.segFirst &&
		(w.opts.Sync != SyncAlways || w.size == w.syncedSize) {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	w.frame = w.frame[:0]
	w.frame = binary.LittleEndian.AppendUint32(w.frame, uint32(len(payload)))
	sum := crc32.Update(crc32.Checksum([]byte{byte(typ)}, castagnoli), castagnoli, payload)
	w.frame = binary.LittleEndian.AppendUint32(w.frame, sum)
	w.frame = append(w.frame, byte(typ))
	w.frame = append(w.frame, payload...)
	if _, err := w.f.Write(w.frame); err != nil {
		// Rewind past any partially written frame bytes: a later
		// successful, fsynced append must never sit behind garbage, or
		// recovery would truncate it away as a torn tail. If the
		// rewind itself fails the log can no longer guarantee that, so
		// it is declared broken and refuses further appends.
		w.truncateTailLocked(fmt.Errorf("wal: append: %w", err))
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(w.frame))
	w.dirty = true
	lsn := w.nextLSN
	w.nextLSN++
	w.appends.Add(1)
	w.appendedBytes.Add(uint64(len(w.frame)))
	w.lastLSN.Store(lsn)
	if w.opts.Sync == SyncOff {
		w.wakeFollowersLocked() // frontier == lastLSN under SyncOff
	}
	if cap(w.frame) > 1<<20 {
		w.frame = nil // do not pin a rare huge push image
	}
	return lsn, nil
}

// truncateTailLocked cuts the active segment back to w.size, dropping
// what a failed write or barrier left past it. If the cut itself fails
// the log goes sticky-broken with cause, and Probe retries the same cut.
func (w *WAL) truncateTailLocked(cause error) {
	_, serr := w.f.Seek(w.size, io.SeekStart)
	terr := w.f.Truncate(w.size)
	if serr != nil || terr != nil {
		w.broken = errors.Join(cause, serr, terr)
	}
}

// rewindUnsyncedLocked discards every record appended since the last
// successful fsync: the discarded LSNs are released for reuse and the
// active segment is truncated back to the synced offset. This is only
// correct when none of the discarded records was ever acknowledged —
// which is exactly the SyncAlways contract: the ack waits for the fsync
// that just failed, and Follow caps followers at the durable frontier,
// so neither a client nor a replica can hold a discarded record. The
// positions move first, so if the truncation fails, the cut Probe retries
// on the sticky-broken log finishes this rewind.
func (w *WAL) rewindUnsyncedLocked() {
	if w.size == w.syncedSize {
		return
	}
	w.size = w.syncedSize
	w.nextLSN = w.durable + 1
	w.lastLSN.Store(w.durable)
	// The truncation is itself an unsynced change; leave the segment
	// dirty so the next successful barrier persists it.
	w.dirty = true
	w.truncateTailLocked(errors.New("wal: rewind unsynced suffix"))
}

// syncLocked fsyncs the active segment if it has unsynced bytes. A
// successful sync advances the durable frontier and wakes followers.
func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	w.dirty = false
	w.syncedSize = w.size
	w.fsyncs.Add(1)
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(time.Since(start))
	}
	if last := w.nextLSN - 1; last > w.durable {
		w.durable = last
		w.wakeFollowersLocked()
	}
	return nil
}

// wakeFollowersLocked signals every waiting Follow that the followable
// frontier moved, via the close-and-replace channel idiom.
func (w *WAL) wakeFollowersLocked() {
	close(w.notify)
	w.notify = make(chan struct{})
}

// followableLocked is the highest LSN a follower may be handed. Under
// SyncOff nothing ever fsyncs on the append path, so the frontier is
// simply the last append — the log's own durability is best-effort
// there, and the follower inherits that contract.
func (w *WAL) followableLocked() uint64 {
	if w.opts.Sync == SyncOff {
		return w.nextLSN - 1
	}
	return w.durable
}

// FollowableLSN reports the highest LSN Follow will currently deliver:
// the durable frontier under SyncAlways/SyncInterval, the last append
// under SyncOff. Replication heartbeats carry it so a caught-up
// follower measures zero lag instead of chasing unsynced appends it is
// not allowed to see.
func (w *WAL) FollowableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.lastLSN.Load()
	}
	return w.followableLocked()
}

// Sync is the durability barrier: it fsyncs the active segment, whatever
// the policy. Under SyncAlways a failed Sync returns with every unsynced
// record already rewound out of the log, inside the same lock hold, so no
// later barrier can make durable a record this error disowned. Under
// SyncInterval and SyncOff nothing is rewound.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	err := w.syncLocked()
	if err != nil && w.opts.Sync == SyncAlways {
		w.rewindUnsyncedLocked()
	}
	return err
}

// Broken reports whether the log is sticky-broken (see ErrBroken).
func (w *WAL) Broken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken != nil
}

// Probe is the first half of proving the log can take durable writes
// again: it repairs a sticky-broken tail if possible (retrying the cut
// that failed) and appends a RecordProbe, returning its LSN. The writer's
// next Sync is the second half — together the append + fsync round trip the service's
// recovery path requires before leaving degraded mode. On failure the
// log keeps its previous state (still broken if it was).
func (w *WAL) Probe() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if cause := w.broken; cause != nil {
		w.broken = nil
		w.truncateTailLocked(cause)
		if w.broken != nil {
			return 0, fmt.Errorf("wal: probe rewind: %w", w.broken)
		}
	}
	return w.appendLocked(RecordProbe, nil)
}

// LastLSN returns the LSN of the most recently appended record (0 if
// the log is empty). Safe to call concurrently with appends, but for a
// consistent "state as of this LSN" cut, call it under the lock the
// writer holds across each apply + append pair.
func (w *WAL) LastLSN() uint64 { return w.lastLSN.Load() }

// Checkpoint prunes behind a checkpoint marker: the caller has appended
// and synced a RecordCheckpoint carrying covered, so every sealed segment
// whose records are all covered is deleted. The active segment never is.
func (w *WAL) Checkpoint(covered uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.checkpoints.Add(1)
	// Prune oldest-first, persisting each deletion before the next:
	// whatever prefix of the deletions survives a crash or an I/O error,
	// the remaining segments stay a contiguous chain — a gap in the
	// middle would make the next Open refuse as corrupt.
	var prunable []uint64
	for first, last := range w.sealed {
		if last <= covered {
			prunable = append(prunable, first)
		}
	}
	sort.Slice(prunable, func(i, j int) bool { return prunable[i] < prunable[j] })
	for _, first := range prunable {
		if err := w.fs.Remove(filepath.Join(w.dir, segmentName(first))); err != nil {
			return fmt.Errorf("wal: prune: %w", err)
		}
		if err := w.syncDir(); err != nil {
			return err
		}
		delete(w.sealed, first)
		w.segments.Add(-1)
		w.prunedSegments.Add(1)
	}
	return nil
}

// Replay walks every retained record in LSN order and calls fn for each
// with LSN > from, stopping at fn's first error: a barrier — so what it
// reads matches the disk — and then Follow's own walk from from, or from
// the oldest retained record when a checkpoint pruned past from, up to
// the last record appended, without ever waiting. The payload slice is
// only valid for the duration of the call. Checkpoint markers are
// delivered like any other record; state-rebuilding callers skip them.
// Replay is meant for startup, before traffic.
func (w *WAL) Replay(from uint64, fn func(lsn uint64, typ RecordType, payload []byte) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	oldest, last := w.oldestLocked(), w.nextLSN-1
	err := w.syncLocked()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	fl := follower{w: w, next: max(from+1, oldest), frontier: last, fn: fn}
	return fl.run()
}

// OldestLSN is the first LSN no checkpoint has pruned: the oldest record
// the log holds, or the next one it will append when it holds none. A
// Follow from below it returns ErrTruncated.
func (w *WAL) OldestLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.oldestLocked()
}

func (w *WAL) oldestLocked() uint64 {
	oldest := w.segFirst
	for first := range w.sealed {
		oldest = min(oldest, first)
	}
	return oldest
}

// waitFollowable blocks until the followable frontier reaches at least
// next, the stop channel fires, or the log closes (ErrClosed). It returns
// the frontier observed: short of next when it was stop that fired.
func (w *WAL) waitFollowable(next uint64, stop <-chan struct{}) (uint64, error) {
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return 0, ErrClosed
		}
		frontier := w.followableLocked()
		ch := w.notify
		w.mu.Unlock()
		if frontier >= next {
			return frontier, nil
		}
		select {
		case <-ch:
		case <-stop:
			return frontier, nil
		case <-w.done:
			return 0, ErrClosed
		}
	}
}

// locateLocked finds the segment holding LSN next. ok is false when the
// position has been pruned; sealedLast is meaningful only when sealed.
func (w *WAL) locateLocked(next uint64) (segStart, sealedLast uint64, isSealed, ok bool) {
	if next >= w.segFirst {
		return w.segFirst, 0, false, true
	}
	for first, last := range w.sealed {
		if first <= next && next <= last {
			return first, last, true, true
		}
	}
	return 0, 0, false, false
}

// Follow walks every committed record with LSN > from in order, calling
// fn for each, and then blocks for more as they are appended — the live
// tail the replication transport ships to a standby. "Committed" means
// at or below the durable frontier (the last fsync) under SyncAlways
// and SyncInterval, so a follower can never hold a record that a crash
// plus torn-tail truncation would remove from this log; under SyncOff
// the frontier is simply the last append. Rotation is followed
// transparently. Returns ErrTruncated if from (or a later position the
// follower needs) has been pruned by a checkpoint — the caller should
// resynchronize from a snapshot; returns nil when stop fires; returns
// fn's error if it rejects a record. The payload slice passed to fn is
// only valid for the duration of the call.
func (w *WAL) Follow(from uint64, stop <-chan struct{}, fn func(lsn uint64, typ RecordType, payload []byte) error) error {
	fl := follower{w: w, next: from + 1, wait: true, stop: stop, fn: fn}
	return fl.run()
}

// follower is one walk over the log's records in LSN order, segment by
// segment: Follow's, which waits at the frontier for more, and Replay's,
// for which the frontier it starts with is the end.
type follower struct {
	w        *WAL
	next     uint64 // LSN of the next record to deliver
	frontier uint64 // highest LSN the log has said may be read
	wait     bool   // at the frontier: block for more (Follow), or finish (Replay)
	stop     <-chan struct{}
	fn       func(lsn uint64, typ RecordType, payload []byte) error
	r        segReader
}

// ready reports whether record lsn may be read, first waiting for the
// frontier to reach it when the walk is a Follow: false without an error
// is the walk's end — Replay's frontier, or Follow's stop.
func (fl *follower) ready(lsn uint64) (ok bool, err error) {
	if lsn > fl.frontier && fl.wait {
		fl.frontier, err = fl.w.waitFollowable(lsn, fl.stop)
	}
	return err == nil && lsn <= fl.frontier, err
}

// run delivers records from next on until the walk ends.
func (fl *follower) run() error {
	for {
		if ok, err := fl.ready(fl.next); !ok {
			return err
		}
		fl.w.mu.Lock()
		segStart, sealedLast, isSealed, ok := fl.w.locateLocked(fl.next)
		fl.w.mu.Unlock()
		if !ok {
			return ErrTruncated
		}
		if err := fl.segment(segStart, sealedLast, isSealed); err != nil {
			return err
		}
	}
}

// segment delivers the records from next on out of one segment, until the
// segment is exhausted (sealed and fully read: the caller moves to the
// next one), the walk ends, or an error or stop occurs.
func (fl *follower) segment(segStart, sealedLast uint64, isSealed bool) error {
	if err := fl.r.open(fl.w, segStart); err != nil {
		if os.IsNotExist(err) {
			return ErrTruncated // pruned between locate and open
		}
		return fmt.Errorf("wal: follow: %w", err)
	}
	defer fl.r.f.Close()
	return fl.r.walk(func() (bool, error) {
		lsn := fl.r.lsn
		if ok, err := fl.ready(lsn); !ok {
			return false, err
		}
		if !isSealed {
			// The active segment may have sealed while we waited.
			fl.w.mu.Lock()
			if fl.w.segFirst != segStart {
				sealedLast, isSealed = fl.w.sealed[segStart], true
			}
			fl.w.mu.Unlock()
		}
		// The records past sealedLast live in the next file.
		return !isSealed || lsn <= sealedLast, nil
	}, func(lsn uint64, typ RecordType, data []byte) error {
		if lsn < fl.next {
			return nil // before the start position, in its segment
		}
		if err := fl.fn(lsn, typ, data); err != nil {
			return err
		}
		fl.next = lsn + 1
		return nil
	})
}

// Stats returns a snapshot of the WAL's counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Segments:       w.segments.Load(),
		Appends:        w.appends.Load(),
		AppendedBytes:  w.appendedBytes.Load(),
		Fsyncs:         w.fsyncs.Load(),
		Checkpoints:    w.checkpoints.Load(),
		PrunedSegments: w.prunedSegments.Load(),
		LastLSN:        w.lastLSN.Load(),
	}
}

// Close syncs the active segment and closes it. Further operations return
// ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	close(w.done)
	var errs []error
	if w.dirty {
		if err := w.f.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("wal: fsync: %w", err))
		}
		w.dirty = false
	}
	if err := w.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("wal: %w", err))
	}
	return errors.Join(errs...)
}
