package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/streamagg/correlated/internal/tupleio"
)

// The way across log version 6 → 7: an earlier release's "corrdsn4"
// snapshot file, alone in a state directory with no log segment, is
// imported once as the new log's first checkpoint (importSnapshot); one
// beside log segments is refused by name. The next storage break deletes
// this file.

// snapshotMagic prefixes the one snapshot framing this release imports.
var snapshotMagic = []byte("corrdsn4")

// ErrSnapshotFormat reports a snapshot file this release does not import: a
// file an earlier corrd wrote (corrdsn1 to corrdsn3, or a bare image from
// before the WAL existed), one damaged past recognition, or one beside a log.
// Startup fails on it without touching any file; the README's "Storage
// format" and "Upgrading" sections have the migration.
var ErrSnapshotFormat = errors.New("service: unsupported snapshot format")

// snapshotFiles are the names an earlier release kept its snapshot under,
// newest first: it restored the second when the first was gone.
var snapshotFiles = [...]string{"snapshot", "snapshot.1"}

// tenantImage is one tenant's marshaled engine state inside a snapshot.
type tenantImage struct {
	name  string
	image []byte
}

// decodeSnapshot parses a snapshot:
//
//	"corrdsn4" uvarint(covered) uvarint(count)
//	  count × ( uvarint(len(name)) name uvarint(len(image)) image )
//	  uvarint(sites) sites × ( uvarint(site) uvarint(mark) )
//
// Bytes that do not open with the magic are refused as ErrSnapshotFormat,
// naming what was found. No length or count is trusted past the bytes
// behind it, and tenant keys must pass the wire validation. The covered LSN
// numbered a log the import does not keep. The images alias data.
func decodeSnapshot(data []byte) (images []tenantImage, marks map[uint64]uint64, err error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		found := "no corrdsn header (a bare summary image from a corrd that predates the WAL, or a damaged file)"
		if family := snapshotMagic[:len(snapshotMagic)-1]; len(data) > len(family) && bytes.HasPrefix(data, family) {
			found = fmt.Sprintf("format %q", data[:len(snapshotMagic)])
		}
		return nil, nil, fmt.Errorf("%w: found %s, this corrd imports %q (see README \"Storage format\" for the migration)",
			ErrSnapshotFormat, found, snapshotMagic)
	}
	rest := data[len(snapshotMagic):]
	_, n := binary.Uvarint(rest)
	count, m := binary.Uvarint(rest[max(n, 0):])
	if n <= 0 || m <= 0 || count > uint64(len(rest)-n-m) { // an entry takes a byte at least
		return nil, nil, errors.New("service: snapshot header truncated, or a tenant count past its bytes")
	}
	rest = rest[n+m:]
	images = make([]tenantImage, 0, count)
	for i := range count {
		name, r, err := tupleio.DecodeTenantPrefix(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("service: snapshot tenant %d: %w", i, err)
		}
		sz, n := binary.Uvarint(r)
		if n <= 0 || sz > uint64(len(r)-n) {
			return nil, nil, fmt.Errorf("service: snapshot tenant %d (%q): image length truncated, or past the bytes", i, name)
		}
		images = append(images, tenantImage{name: string(name), image: r[n : n+int(sz)]})
		rest = r[n+int(sz):]
	}
	if marks, err = decodeMarks(rest); err != nil {
		return nil, nil, fmt.Errorf("service: snapshot: %w", err)
	}
	return images, marks, nil
}

// importSnapshot installs an earlier release's snapshot into a state
// directory with no log segment, and returns its path, "" when there is
// none to import. It runs before the log is opened, so a refusal touches
// no file. The state goes in as a checkpoint's would, with the marks; a
// site mints a new id, since its log is new. New then writes the state as
// the log's first checkpoint and renames the file (finishImport).
func (s *Server) importSnapshot() (string, error) {
	entries, err := s.fs.ReadDir(s.cfg.WALDir)
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	segments := false
	for _, e := range entries {
		segments = segments || strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg")
	}
	for _, name := range snapshotFiles {
		path := filepath.Join(s.cfg.WALDir, name)
		data, err := s.fs.ReadFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			continue
		case err != nil:
			return "", fmt.Errorf("service: snapshot read %s: %w", path, err)
		case segments && name == snapshotFiles[0]:
			return "", fmt.Errorf("%w: %s beside log segments: the import takes a snapshot into a state directory with no log; move it aside, or the segments if the log is older than it (README \"Storage format\")", ErrSnapshotFormat, path)
		case segments:
			return "", nil // an earlier release's older generation, left beside an imported log
		}
		images, marks, err := decodeSnapshot(data)
		if err != nil {
			return "", fmt.Errorf("service: snapshot import %s: %w", path, err)
		}
		s.marks = marks
		for _, ti := range images {
			if err := s.applyImageLocked(append(tupleio.AppendTenant(nil, ti.name), ti.image...)); err != nil {
				return "", fmt.Errorf("service: snapshot import %s: %w", path, err)
			}
		}
		s.restored = true
		return path, nil
	}
	return "", nil
}

// finishImport writes the imported state as the new log's first checkpoint
// and then renames the snapshot file snapshot.imported, so it is imported
// once.
func (s *Server) finishImport(path string) error {
	if err := s.Checkpoint(); err != nil {
		return fmt.Errorf("service: snapshot import %s: %w", path, err)
	}
	imported := filepath.Join(s.cfg.WALDir, "snapshot.imported")
	if err := s.fs.Rename(path, imported); err != nil {
		return fmt.Errorf("service: snapshot import: %w", err)
	}
	s.logf("snapshot: imported %s as the log's first checkpoint; the file is now %s", path, imported)
	return nil
}
