package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// appendSnapshot appends an earlier release's snapshot file, the framing
// decodeSnapshot reads, at coverage 7: what an import test starts from.
func appendSnapshot(buf []byte, images []tenantImage, marks map[uint64]uint64) []byte {
	buf = binary.AppendUvarint(append(buf, snapshotMagic...), 7)
	buf = binary.AppendUvarint(buf, uint64(len(images)))
	for _, ti := range images {
		buf = tupleio.AppendTenant(buf, ti.name)
		buf = binary.AppendUvarint(buf, uint64(len(ti.image)))
		buf = append(buf, ti.image...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(marks)))
	for site, mark := range marks {
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, site), mark)
	}
	return buf
}

// TestSnapshotImportCrossover reads testdata/parent.corrdsn4, the snapshot
// the release before log version 7 wrote at Close after an ingest into the
// default tenant and tenant "a" and a forward into tenant "b" from site
// abc, and imports it: every tenant is its image byte for byte, and the
// summary this release builds from the same writes; the site's mark comes
// across; the state is the new log's first checkpoint, so a crash after
// more writes restarts with them all; the file is renamed
// snapshot.imported, and a leftover snapshot.1 beside the log is left alone.
// A snapshot put back beside the log is refused by name.
func TestSnapshotImportCrossover(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent.corrdsn4"))
	if err != nil {
		t.Fatal(err)
	}
	images, marks, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := walConfig(t)
	cfg.WALDir = stateWith(t, data)
	if err := os.WriteFile(filepath.Join(cfg.WALDir, "snapshot.1"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Restored() || marks[0xabc] != 1 || !maps.Equal(svc.marks, marks) {
		t.Fatalf("after the import: restored %t, marks %v; want restored, site abc at 1", svc.Restored(), svc.marks)
	}
	// This release fed the same writes.
	oracle, ots, _ := newTestServer(t, walConfig(t))
	for _, j := range []*ingestJob{ingestOf("", testStream(500, 7)), ingestOf("a", testStream(300, 8))} {
		if err := oracle.commit(j); err != nil {
			t.Fatal(err)
		}
	}
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordIngest), ingestRecord(t, "b"))
	if _, err := client.New(ots.URL).Forward(context.Background(), 0xabc, wal.Version, 0, body); err != nil {
		t.Fatal(err)
	}
	if len(images) != 3 {
		t.Fatalf("the parent's snapshot holds %d tenants, want 3", len(images))
	}
	for _, ti := range images {
		got := tenantBytes(t, svc, ti.name)
		if !bytes.Equal(got, ti.image) || !bytes.Equal(got, tenantBytes(t, oracle, ti.name)) {
			t.Fatalf("tenant %q after the import: %d bytes, the file held %d, this release builds %d", ti.name, len(got), len(ti.image), len(tenantBytes(t, oracle, ti.name)))
		}
	}
	if ck := svc.wal.LastCheckpoint(); ck.First != 1 || ck.LSN != 4 {
		t.Fatalf("the import's checkpoint %+v, want the log's first records, 1 to 4", ck)
	}
	for _, j := range []*ingestJob{ingestOf("a", testStream(100, 9)), ingestOf("c", testStream(100, 10))} {
		if err := svc.commit(j); err != nil {
			t.Fatal(err)
		}
		if err := oracle.commit(j); err != nil {
			t.Fatal(err)
		}
	}
	crash(nil, svc)
	for _, name := range []string{"snapshot", "snapshot.imported", "snapshot.1"} {
		if _, err := os.Stat(filepath.Join(cfg.WALDir, name)); errors.Is(err, os.ErrNotExist) != (name == "snapshot") {
			t.Fatalf("after the import, %s: %v", name, err)
		}
	}
	svc, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a", "b", "c"} {
		if !bytes.Equal(tenantBytes(t, svc, name), tenantBytes(t, oracle, name)) {
			t.Fatalf("tenant %q after the crash differs from this release fed the same writes", name)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotAt(cfg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if svc, err := New(cfg); err == nil {
		svc.Close()
		t.Fatal("a snapshot beside the log was taken")
	} else if !errors.Is(err, ErrSnapshotFormat) || !strings.Contains(err.Error(), "beside log segments") {
		t.Fatalf("a snapshot beside the log: %v", err)
	}
}

// checkpointImages returns the images of svc's newest checkpoint by tenant,
// read from its log.
func checkpointImages(t *testing.T, svc *Server) map[string][]byte {
	t.Helper()
	ck := svc.wal.LastCheckpoint()
	images := map[string][]byte{}
	err := svc.wal.Replay(ck.First-1, func(lsn uint64, typ wal.RecordType, payload []byte) error {
		if lsn >= ck.LSN {
			return nil
		}
		key, image, err := tupleio.DecodeTenantPrefix(payload)
		images[string(key)] = bytes.Clone(image)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != int(ck.LSN-ck.First) {
		t.Fatalf("checkpoint %+v holds %d images", ck, len(images))
	}
	return images
}
