package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/tupleio"
)

// Checkpoints: a server's state is in one artefact, its log. A checkpoint
// is a commit group of its own (commitCheckpoint, pipeline.go): a
// RecordImage per tenant — its key's tenant prefix, then the bytes
// /v1/summary serves — and a RecordCheckpoint naming those tenants, with
// the sites' marks. The images hold exactly the records before the first
// of them, so startup installs the newest checkpoint and replays what
// follows it (replayWAL), and the log prunes only behind a durable one —
// on a site, no further than every target has confirmed (forward.go) — so
// one torn at the tail leaves the one before it whole. Applied where the
// log that wrote them is replayed, its records change nothing.

// Checkpoint writes a checkpoint, unless the log ends with one, and prunes
// the log behind it.
func (s *Server) Checkpoint() error {
	if err := s.commit(&ingestJob{op: opCheckpoint}); err != nil {
		return fmt.Errorf("service: checkpoint: %w", err)
	}
	keep := uint64(math.MaxUint64)
	for _, f := range s.fwds {
		// What the target has not confirmed, or the checkpoint it is sent.
		keep = min(keep, max(f.acked.Load()+1, f.boot.Load()))
	}
	if err := s.wal.Prune(keep); err != nil {
		// The checkpoint is durable; a failed prune only delays pruning.
		s.logf("wal prune: %v", err)
	}
	return nil
}

// encodeCheckpoint is a RecordCheckpoint's payload: the tenants its images
// name, in the images' order, and the sites' marks in ascending site order,
// so equal state writes equal bytes:
//
//	uvarint(tenants) tenants × tenant prefix (tupleio.AppendTenant)
//	uvarint(sites) sites × ( uvarint(site) uvarint(mark) )
func encodeCheckpoint(names []string, marks map[uint64]uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		buf = tupleio.AppendTenant(buf, name)
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

// decodeCheckpoint parses a RecordCheckpoint's payload. No count is
// trusted past the bytes behind it, and tenant names must pass the wire
// validation.
func decodeCheckpoint(payload []byte) (names []string, marks map[uint64]uint64, err error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > uint64(len(payload)-n) { // a name takes a byte at least
		return nil, nil, errors.New("checkpoint: bad tenant count")
	}
	rest := payload[n:]
	names = make([]string, 0, count)
	for i := range count {
		name, r, err := tupleio.DecodeTenantPrefix(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: tenant %d: %w", i, err)
		}
		names, rest = append(names, string(name)), r
	}
	if marks, err = decodeMarks(rest); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return names, marks, nil
}

// decodeMarks parses the marks a checkpoint record ends with: nothing may
// follow them, and no site count is trusted past the bytes behind it.
func decodeMarks(rest []byte) (map[uint64]uint64, error) {
	sites, n := binary.Uvarint(rest)
	if n <= 0 || sites > uint64(len(rest)-n)/2 { // a mark takes two bytes at least
		return nil, errors.New("bad site count")
	}
	rest = rest[n:]
	marks := make(map[uint64]uint64, sites)
	for range sites {
		site, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, errors.New("site id truncated")
		}
		mark, m := binary.Uvarint(rest[n:])
		if _, dup := marks[site]; m <= 0 || dup {
			return nil, fmt.Errorf("site %016x: mark truncated, or listed twice", site)
		}
		marks[site], rest = mark, rest[n+m:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the marks", len(rest))
	}
	return marks, nil
}

// applyImageLocked applies a RecordImage: the tenant it names becomes the
// image, made if the registry lacks it, whatever the caps say — what a log
// holds outranks a cap lowered since. It materializes on first touch, the
// default tenant at once: its engine doubles as Engine(). Callers hold s.mu,
// or run before any goroutine exists.
func (s *Server) applyImageLocked(payload []byte) error {
	key, image, err := tupleio.DecodeTenantPrefix(payload)
	if err != nil {
		return fmt.Errorf("image: %w", err)
	}
	if err := retiredImage(key, image); err != nil {
		return err
	}
	t := s.tenants[string(key)]
	if t == nil {
		t = &tenant{name: string(key)}
		s.regMu.Lock()
		s.tenants[t.name] = t
		s.regMu.Unlock()
	}
	// A pending image may outlive the record's buffer by the tenant's whole
	// idle life.
	s.installImageLocked(t, bytes.Clone(image))
	t.touch()
	if t == s.def {
		_, err = s.ensureEngineLocked(t)
	}
	return err
}

// retiredImage refuses tenant key's image, by name, if no live release
// writes its framing (compat.RetiredImage).
func retiredImage(key, image []byte) error {
	if old := compat.RetiredImage(image); old != "" {
		return fmt.Errorf("%w: tenant %q holds %s, which this release does not read; rebuild the tenant from its source, or stay on the previous release (README \"Upgrading\", \"Storage format\")", ErrSnapshotFormat, key, old)
	}
	return nil
}

// applyCheckpointLocked applies a RecordCheckpoint: the tenants it does not
// name leave the registry (the default tenant never does), and its marks
// become the server's. Callers hold s.mu, or run before any goroutine
// exists.
func (s *Server) applyCheckpointLocked(payload []byte) error {
	names, marks, err := decodeCheckpoint(payload)
	if err != nil {
		return err
	}
	named := make(map[string]bool, len(names))
	for _, name := range names {
		named[name] = true
	}
	s.regMu.Lock()
	for name, t := range s.tenants {
		if t == s.def || named[name] {
			continue
		}
		delete(s.tenants, name)
		// Off the registry, off the books: the sum is never recounted.
		s.tenantBytes.Add(-t.footprint.Load())
		if !t.spilledLocked() {
			s.tenantsLive.Add(-1)
		}
	}
	s.regMu.Unlock()
	s.marks = marks
	return nil
}

// ErrSnapshotFormat reports state an earlier corrd wrote that this release
// does not read: a snapshot file in the state directory (corrdsn1 to
// corrdsn4, or a bare image from before the WAL existed), or a checkpoint
// image of a tenant restored from an API version-1 summary image. Startup
// fails on it by name without touching any file; the README's "Storage
// format" and "Upgrading" sections have the way out.
var ErrSnapshotFormat = errors.New("service: unsupported snapshot format")

// snapshotFiles are the names an earlier release kept its snapshot under.
// The release that imported one into the log renamed the first and left
// the second beside the log.
var snapshotFiles = [...]string{"snapshot", "snapshot.1"}

// refuseSnapshots fails on an earlier release's snapshot file in the state
// directory, naming its format, unless it is a second generation beside a
// log. It runs before the log is opened, so a refusal touches no file.
func (s *Server) refuseSnapshots() error {
	entries, err := s.fs.ReadDir(s.cfg.WALDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	segments := slices.ContainsFunc(entries, func(e os.DirEntry) bool {
		return strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg")
	})
	for _, name := range snapshotFiles {
		path := filepath.Join(s.cfg.WALDir, name)
		data, err := s.fs.ReadFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			continue
		case err != nil:
			return fmt.Errorf("service: snapshot read %s: %w", path, err)
		case segments && name == snapshotFiles[1]:
			continue // what the import left beside the log it began
		}
		found := "no corrdsn header (a bare summary image from a corrd that predates the WAL, or a damaged file)"
		if len(data) >= 8 && bytes.HasPrefix(data, []byte("corrdsn")) {
			found = fmt.Sprintf("format %q", data[:8])
		}
		return fmt.Errorf("%w: %s holds %s; this release keeps its state in the log alone and reads no snapshot file (README \"Storage format\")", ErrSnapshotFormat, path, found)
	}
	return nil
}
