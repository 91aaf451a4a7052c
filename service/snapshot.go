package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/streamagg/correlated/internal/tupleio"
)

// Durability: every tenant's summary image (its MarshalBinary — the same
// bytes /v1/summary serves and POST /v1/push takes) is written to disk on a
// ticker and again on graceful shutdown, via the classic
// temp-file-then-rename dance so a crash mid-write can never corrupt the
// previous snapshot. Restore happens once, at startup, before the
// listener opens.
//
// The file is wrapped in a small header that records the WAL position
// the snapshot covers (0 without a WAL), so startup knows exactly which
// log suffix to replay, and ends with the forwarding sites' marks, which
// are state like the images. A completed snapshot also commits a checkpoint
// marker to the WAL, behind which every sealed segment the snapshot made
// redundant is pruned.

// snapshotMagic prefixes the one snapshot framing, on disk and in a
// replica re-seed frame alike. The trailing digit versions it: corrdsn4
// is the format of the storage version break of WAL segment version 4
// (the marks table), and nothing older is read.
var snapshotMagic = []byte("corrdsn4")

// ErrSnapshotFormat reports snapshot bytes that are not in the current
// framing: a file an earlier corrd wrote (corrdsn1 to corrdsn3, or a bare
// image from before the WAL existed), or one damaged past recognition.
// Startup fails on it without touching any file; the README's "Storage
// format" section has the migration.
var ErrSnapshotFormat = errors.New("service: unsupported snapshot format")

// tenantImage is one tenant's marshaled engine state inside a snapshot.
type tenantImage struct {
	name  string
	image []byte
}

// encodeSnapshot wraps every tenant's image with the covered WAL LSN and
// the sites' marks:
//
//	"corrdsn4" uvarint(covered) uvarint(count)
//	  count × ( uvarint(len(name)) name uvarint(len(image)) image )
//	  uvarint(sites) sites × ( uvarint(site) uvarint(mark) )
//
// The tenant-name prefix is the same keyed grammar the WAL and the
// stream speak (tupleio.AppendTenant); the default tenant is the empty
// name. Marks are in ascending site order, so equal state writes equal
// bytes.
func encodeSnapshot(covered uint64, images []tenantImage, marks map[uint64]uint64) []byte {
	size := len(snapshotMagic) + (3+2*len(marks))*binary.MaxVarintLen64
	for _, ti := range images {
		size += 2*binary.MaxVarintLen64 + len(ti.name) + len(ti.image)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = binary.AppendUvarint(buf, covered)
	buf = binary.AppendUvarint(buf, uint64(len(images)))
	for _, ti := range images {
		buf = tupleio.AppendTenant(buf, ti.name)
		buf = binary.AppendUvarint(buf, uint64(len(ti.image)))
		buf = append(buf, ti.image...)
	}
	sites := make([]uint64, 0, len(marks))
	for site := range marks {
		sites = append(sites, site)
	}
	slices.Sort(sites)
	buf = binary.AppendUvarint(buf, uint64(len(sites)))
	for _, site := range sites {
		buf = binary.AppendUvarint(buf, site)
		buf = binary.AppendUvarint(buf, marks[site])
	}
	return buf
}

// decodeSnapshot parses a snapshot. Bytes that do not open with the
// current magic are refused as ErrSnapshotFormat, naming what was found.
// Every length claim is bounded by the bytes actually present before
// slicing — the decoder discipline of the rest of the codec — tenant keys
// must pass the wire validation, and no site count is trusted past the
// bytes behind it either. The returned images alias data.
func decodeSnapshot(data []byte) (covered uint64, images []tenantImage, marks map[uint64]uint64, err error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		found := "no corrdsn header (a bare summary image from a corrd that predates the WAL, or a damaged file)"
		if family := snapshotMagic[:len(snapshotMagic)-1]; len(data) > len(family) && bytes.HasPrefix(data, family) {
			found = fmt.Sprintf("format %q", data[:len(snapshotMagic)])
		}
		return 0, nil, nil, fmt.Errorf("%w: found %s, this corrd reads and writes %q (see README \"Storage format\" for the migration)",
			ErrSnapshotFormat, found, snapshotMagic)
	}
	rest := data[len(snapshotMagic):]
	covered, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, errors.New("service: snapshot header truncated")
	}
	rest = rest[n:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, errors.New("service: snapshot tenant count truncated")
	}
	rest = rest[n:]
	if count > uint64(len(rest)) {
		// Each entry needs at least one byte; a hostile count is
		// rejected before any allocation sized by it.
		return 0, nil, nil, fmt.Errorf("service: snapshot claims %d tenants in %d bytes", count, len(rest))
	}
	images = make([]tenantImage, 0, count)
	for i := uint64(0); i < count; i++ {
		name, r, err := tupleio.DecodeTenantPrefix(rest)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("service: snapshot tenant %d: %w", i, err)
		}
		sz, n := binary.Uvarint(r)
		if n <= 0 {
			return 0, nil, nil, fmt.Errorf("service: snapshot tenant %d (%q): image length truncated", i, name)
		}
		r = r[n:]
		if sz > uint64(len(r)) {
			return 0, nil, nil, fmt.Errorf("service: snapshot tenant %d (%q): image claims %d bytes, %d remain", i, name, sz, len(r))
		}
		images = append(images, tenantImage{name: string(name), image: r[:sz]})
		rest = r[sz:]
	}
	sites, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, nil, errors.New("service: snapshot site count truncated")
	}
	rest = rest[n:]
	if sites > uint64(len(rest))/2 {
		// Each mark needs at least two bytes.
		return 0, nil, nil, fmt.Errorf("service: snapshot claims %d sites' marks in %d bytes", sites, len(rest))
	}
	marks = make(map[uint64]uint64, sites)
	for i := uint64(0); i < sites; i++ {
		site, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, nil, nil, fmt.Errorf("service: snapshot site %d: id truncated", i)
		}
		mark, m := binary.Uvarint(rest[n:])
		if m <= 0 {
			return 0, nil, nil, fmt.Errorf("service: snapshot site %016x: mark truncated", site)
		}
		if _, dup := marks[site]; dup {
			return 0, nil, nil, fmt.Errorf("service: snapshot lists site %016x twice", site)
		}
		marks[site] = mark
		rest = rest[n+m:]
	}
	if len(rest) != 0 {
		return 0, nil, nil, fmt.Errorf("service: snapshot has %d trailing bytes after %d tenants and %d sites", len(rest), count, sites)
	}
	return covered, images, marks, nil
}

// writeFileAtomic writes data to path by writing a sibling temp file,
// syncing it, and renaming it over path. The rename is atomic on POSIX
// filesystems: readers see either the old snapshot or the new one,
// never a prefix. All calls route through s.fs so the fault harness can
// break any step.
func (s *Server) writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := s.fs.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself; best effort — some filesystems do not
	// support syncing directories.
	if d, err := s.fs.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// snapshotPathN is the retention slot path: slot 0 is the live
// SnapshotPath, slot i>0 is SnapshotPath + ".<i>" (higher = older).
func (s *Server) snapshotPathN(i int) string {
	if i == 0 {
		return s.cfg.SnapshotPath
	}
	return fmt.Sprintf("%s.%d", s.cfg.SnapshotPath, i)
}

// rotateSnapshots shifts the existing snapshots down one retention slot
// (path → path.1 → … → path.(keep-1), oldest dropped by the rename) so
// the upcoming write never destroys the last good restore point — a
// snapshot that lands corrupt on disk still leaves path.1 restorable.
func (s *Server) rotateSnapshots() {
	for i := s.cfg.SnapshotKeep - 1; i >= 1; i-- {
		err := s.fs.Rename(s.snapshotPathN(i-1), s.snapshotPathN(i))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("snapshot: rotate %s: %v", s.snapshotPathN(i-1), err)
		}
	}
}

// Snapshot marshals the engine under the driver lock and persists it
// atomically. It is a no-op when the server was built without a
// snapshot path. The transfer lock serializes it against other snapshots.
func (s *Server) Snapshot() error {
	s.xferMu.Lock()
	defer s.xferMu.Unlock()
	return s.snapshotLocked()
}

// buildSnapshot marshals every tenant into an encoded snapshot file
// and reports the WAL LSN the image covers, the tenant count, and the
// total marshaled engine bytes (the metrics' measure). It is shared by
// snapshotLocked (the disk path) and the primary's replica re-seed
// (replication.go), which ships the same bytes over the wire.
func (s *Server) buildSnapshot() (covered uint64, file []byte, nTenants int, dataLen int64, err error) {
	// Deterministic tenant order: sorted by key, so equal state writes
	// equal snapshot bytes regardless of creation order.
	tenants := s.tenantList()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	s.mu.Lock()
	images := make([]tenantImage, 0, len(tenants))
	for _, t := range tenants {
		ti := tenantImage{name: t.name}
		if ti.image, err = t.imageLocked(); err != nil {
			err = fmt.Errorf("tenant %q: %w", t.name, err)
			break
		}
		images = append(images, ti)
		dataLen += int64(len(ti.image))
	}
	// A record appended but not yet applied is left to the replay.
	covered = s.appliedLSN.Load()
	marks := maps.Clone(s.marks)
	s.mu.Unlock()
	if err != nil {
		return 0, nil, 0, 0, err
	}
	return covered, encodeSnapshot(covered, images, marks), len(images), dataLen, nil
}

// snapshotLocked is Snapshot minus the transfer lock, for callers that
// already hold it. The engine marshal and the covered-LSN read happen
// in one driver-lock critical section, so the recorded LSN is exactly
// the last record the image captures; once the file is durably renamed,
// a checkpoint-marker job records that LSN and the WAL prunes — a site's
// only as far as its coordinator has confirmed.
func (s *Server) snapshotLocked() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	covered, file, nTenants, dataLen, err := s.buildSnapshot()
	if err != nil {
		s.metrics.snapshotErrors.Inc()
		s.noteSnapshotResult(err)
		return fmt.Errorf("service: snapshot marshal: %w", err)
	}
	s.rotateSnapshots()
	if err := s.writeFileAtomic(s.cfg.SnapshotPath, file); err != nil {
		s.metrics.snapshotErrors.Inc()
		s.noteSnapshotResult(err)
		return fmt.Errorf("service: snapshot write: %w", err)
	}
	s.metrics.snapshotsWritten.Inc()
	s.metrics.lastSnapshotUnix.Set(time.Now().Unix())
	s.metrics.snapshotBytes.Set(dataLen)
	s.logf("snapshot: wrote %s (%d tenants, %d bytes, covered LSN %d)",
		s.cfg.SnapshotPath, nTenants, dataLen, covered)
	if w := s.walRef(); w != nil {
		prune := covered
		if s.fwd != nil {
			prune = min(prune, s.fwd.acked.Load())
		}
		err := s.commit(&ingestJob{op: opCheckpoint, image: binary.AppendUvarint(nil, covered)})
		if err == nil {
			err = w.Checkpoint(prune)
		}
		if err != nil {
			// The snapshot is durable; a failed checkpoint only delays
			// pruning, so log rather than fail the snapshot.
			s.logf("wal checkpoint: %v", err)
		}
	}
	s.noteSnapshotResult(nil)
	return nil
}

// restoreSnapshot loads a snapshot at startup and returns the WAL LSN
// it covers. It walks the retention slots newest-first: a newest
// snapshot that is corrupt (torn write, bit rot) falls back to the
// previous good one — trading a longer WAL replay for a boot that still
// serves every acknowledged record the log holds. No file in any slot
// is a clean first boot; every slot present-but-unusable is fatal (a
// daemon must not silently serve an empty state over data it was asked
// to remember) — which is how files from before the storage version
// break are refused: each fails with ErrSnapshotFormat, none is written.
func (s *Server) restoreSnapshot() (covered uint64, err error) {
	var lastErr error
	for i := 0; i < s.cfg.SnapshotKeep; i++ {
		path := s.snapshotPathN(i)
		data, err := s.fs.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			if i == 0 {
				continue // the live slot may be gone while a rotation slot survives
			}
			break // no older slots to try
		}
		if err != nil {
			lastErr = fmt.Errorf("service: snapshot read %s: %w", path, err)
			s.logf("snapshot: %v", lastErr)
			continue
		}
		covered, err := s.restoreSnapshotData(path, data)
		if err == nil {
			if i > 0 {
				s.snapFellBack = true
				s.logf("snapshot: newest snapshot unusable; restored fallback %s (covered LSN %d; the wal replay suffix grows accordingly)", path, covered)
			}
			return covered, nil
		}
		lastErr = err
		s.logf("snapshot: %v", err)
		s.resetRestoredState()
	}
	if lastErr != nil {
		return 0, lastErr
	}
	return 0, nil
}

// restoreSnapshotData applies one snapshot file's contents: every tenant
// registers as its image and materializes lazily on first touch, the
// default tenant at once. Startup-only, before any goroutine exists.
func (s *Server) restoreSnapshotData(path string, data []byte) (covered uint64, err error) {
	covered, images, marks, err := decodeSnapshot(data)
	if err == nil {
		s.marks = marks
		err = s.installSnapshotLocked(images)
	}
	if err != nil {
		return 0, fmt.Errorf("service: snapshot restore %s: %w", path, err)
	}
	var dataLen int64
	for _, ti := range images {
		dataLen += int64(len(ti.image))
	}
	s.restored = true
	s.metrics.snapshotBytes.Set(dataLen)
	return covered, nil
}

// resetRestoredState undoes a half-applied restore attempt so the next
// retention slot starts from an empty default tenant and nothing else.
// Startup-only, before any goroutine exists, so no locks are needed.
func (s *Server) resetRestoredState() {
	for _, t := range s.tenants {
		if t != s.def {
			// Off the registry, off the books: the sum is never recounted.
			s.tenantBytes.Add(-t.footprint.Load())
		}
	}
	s.tenants = map[string]*tenant{"": s.def}
	s.marks = map[uint64]uint64{}
	s.installImageLocked(s.def, nil)
	// Cannot fail: New built this engine type already, and there is no
	// image to decode.
	s.ensureEngineLocked(s.def)
	s.restored = false
}
