package service

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"testing"

	"github.com/streamagg/correlated/internal/tupleio"
	"github.com/streamagg/correlated/internal/wal"
)

// TestSnapshotImportCrossover reads testdata/parent.corrdsn4, the snapshot
// the release before log version 7 wrote at Close (the default tenant,
// tenants "a" and "b", site abc's mark). The release after it imported such
// a file once into a new log, renamed it snapshot.imported and left a
// snapshot.1 beside the log; this release passes over both, and refuses by
// name the file as snapshot beside a log, leaving the directory as it was.
// TestPreBreakStateRefused has it alone.
func TestSnapshotImportCrossover(t *testing.T) {
	data := parentSnapshot(t)
	cfg := walConfig(t)
	for i, name := range []string{"", "snapshot.imported", "snapshot.1"} {
		var err error
		if name != "" {
			err = os.WriteFile(filepath.Join(cfg.WALDir, name), data, 0o644)
		}
		svc, nerr := New(cfg)
		if err = cmp.Or(err, nerr); err != nil {
			t.Fatal(err)
		}
		if err := svc.commit(ingestOf("a", testStream(100, uint64(i)))); err != nil {
			t.Fatal(err)
		}
		if n := svc.tenantByName("a"); n == nil || svc.Close() != nil {
			t.Fatalf("start %d beside the import's leftovers lost tenant a", i)
		}
	}
	if err := os.WriteFile(snapshotAt(cfg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	refused(t, cfg, ErrSnapshotFormat, `"corrdsn4"`, snapshotAt(cfg))
}

// parentSnapshot returns testdata/parent.corrdsn4 (TestSnapshotImportCrossover).
func parentSnapshot(t testing.TB) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", "parent.corrdsn4"))
	if err != nil {
		t.Fatal(err)
	}
	return data
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
