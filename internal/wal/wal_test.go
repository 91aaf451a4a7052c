package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/streamagg/correlated/internal/fault"
)

// appendSync is what a commit group of one record costs, and the
// convenience these tests share: the append and, under SyncAlways, its
// barrier. An error from either means the record is not in the log.
func appendSync(w *WAL, typ RecordType, payload []byte) (uint64, error) {
	lsn, err := w.AppendNoSync(typ, payload)
	if err == nil && w.opts.Sync == SyncAlways {
		err = w.Sync()
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// checkpoint does what the service does around a snapshot: the marker,
// its barrier whatever the policy, then the prune behind it.
func checkpoint(w *WAL, covered uint64) error {
	if _, err := w.AppendNoSync(RecordCheckpoint, binary.AppendUvarint(nil, covered)); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	return w.Checkpoint(covered)
}

type replayed struct {
	lsn     uint64
	typ     RecordType
	payload []byte
}

func collect(t *testing.T, w *WAL, from uint64) []replayed {
	t.Helper()
	var got []replayed
	err := w.Replay(from, func(lsn uint64, typ RecordType, payload []byte) error {
		got = append(got, replayed{lsn, typ, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

// TestAppendReplayRoundTrip: records come back in order with their LSNs
// and payloads across segment rotations, and LSNs keep climbing across
// a close/reopen.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var want []replayed
	for i := 0; i < 40; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%37)
		typ := RecordIngest
		if i%5 == 0 {
			typ = RecordPush
		}
		lsn, err := appendSync(w, typ, payload)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn %d", i, lsn)
		}
		want = append(want, replayed{lsn, typ, payload})
	}
	if st := w.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, stats %+v", st)
	}
	got := collect(t, w, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].lsn != want[i].lsn || got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Replay from the middle skips the covered prefix.
	tail := collect(t, w, 25)
	if len(tail) != 15 || tail[0].lsn != 26 {
		t.Fatalf("suffix replay: %d records, first %d", len(tail), tail[0].lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lsn, err := appendSync(w2, RecordIngest, []byte("after reopen")); err != nil || lsn != 41 {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
	got2 := collect(t, w2, 0)
	if len(got2) != 41 || got2[40].lsn != 41 {
		t.Fatalf("replay after reopen: %d records", len(got2))
	}
}

// TestTornTailTruncated: garbage appended after the last whole frame of
// the final segment — a torn write — is dropped on Open, and appending
// afterwards resumes at the right LSN.
func TestTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		grow func([]byte) []byte
	}{
		{"partial header", func(b []byte) []byte { return append(b, 0xAB, 0xCD) }},
		{"truncated payload", func(b []byte) []byte {
			frame := make([]byte, 0, 32)
			frame = binary.LittleEndian.AppendUint32(frame, 100) // claims 100 bytes
			frame = binary.LittleEndian.AppendUint32(frame, 0xDEAD)
			frame = append(frame, byte(RecordIngest))
			frame = append(frame, []byte("only a few")...)
			return append(b, frame...)
		}},
		{"bad crc", func(b []byte) []byte {
			frame := make([]byte, 0, 16)
			frame = binary.LittleEndian.AppendUint32(frame, 3)
			frame = binary.LittleEndian.AppendUint32(frame, 0xBADC0DE)
			frame = append(frame, byte(RecordIngest))
			frame = append(frame, 'x', 'y', 'z')
			return append(b, frame...)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := appendSync(w, RecordIngest, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segmentName(1))
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear.grow(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			w2, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer w2.Close()
			got := collect(t, w2, 0)
			if len(got) != 3 {
				t.Fatalf("replayed %d records after torn tail, want 3", len(got))
			}
			if lsn, err := appendSync(w2, RecordPush, []byte("resume")); err != nil || lsn != 4 {
				t.Fatalf("append after recovery: lsn %d err %v", lsn, err)
			}
			if info, _ := os.Stat(seg); info.Size() != int64(len(raw))+frameSize+6 {
				t.Fatalf("torn tail not truncated before append: size %d", info.Size())
			}
		})
	}
}

// TestCorruptSealedSegmentFatal: a bad frame in a sealed (fsynced at
// seal) segment is corruption, not a torn tail — Open must refuse.
func TestCorruptSealedSegmentFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := appendSync(w, RecordIngest, bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Segments < 2 {
		t.Fatalf("no rotation: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the first (sealed) segment.
	seg := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+frameSize+5] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncOff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt sealed segment: %v", err)
	}
}

// TestCheckpointPrunes: a checkpoint deletes exactly the sealed
// segments whose records are all covered, and replay from the covered
// LSN sees only the suffix.
func TestCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 30; i++ {
		if _, err := appendSync(w, RecordIngest, bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments, got %+v", before)
	}
	covered := w.LastLSN() - 5
	if err := checkpoint(w, covered); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.PrunedSegments == 0 || after.Segments >= before.Segments {
		t.Fatalf("checkpoint pruned nothing: before %+v after %+v", before, after)
	}
	if after.Checkpoints != 1 {
		t.Fatalf("checkpoint count: %+v", after)
	}
	var first uint64
	var markers int
	err = w.Replay(covered, func(lsn uint64, typ RecordType, payload []byte) error {
		if first == 0 {
			first = lsn
		}
		if typ == RecordCheckpoint {
			markers++
			got, n := binary.Uvarint(payload)
			if n <= 0 || got != covered {
				return fmt.Errorf("marker payload %d want %d", got, covered)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != covered+1 {
		t.Fatalf("suffix replay starts at %d, want %d", first, covered+1)
	}
	if markers != 1 {
		t.Fatalf("replayed %d checkpoint markers, want 1", markers)
	}
	// Records after the covered LSN must all still be on disk: the
	// segment holding them (or the active one) is never pruned.
	files, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if files[0] > covered+1 {
		t.Fatalf("pruning discarded uncovered records: oldest segment starts at %d, covered %d",
			files[0], covered)
	}
}

// TestSyncPolicies: every policy appends and replays; SyncAlways
// reports an fsync per append, and the OnFsync hook observes them.
func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(p.String(), func(t *testing.T) {
			var observed int
			w, err := Open(t.TempDir(), Options{
				Sync:    p,
				OnFsync: func(d time.Duration) { observed++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := appendSync(w, RecordIngest, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if p == SyncAlways {
				if st := w.Stats(); st.Fsyncs != 5 {
					t.Fatalf("SyncAlways fsyncs: %+v", st)
				}
				if observed != 5 {
					t.Fatalf("OnFsync observed %d", observed)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, w, 0); len(got) != 5 {
				t.Fatalf("replayed %d", len(got))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := appendSync(w, RecordIngest, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
		})
	}
}

// TestParseSyncPolicy covers the flag spellings.
func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "off": SyncOff,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestOversizedPayloadRejected: a frame on disk claiming more than
// MaxPayload is treated as malformed before any allocation happens; in
// the final segment that reads as a torn tail.
func TestOversizedPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	w2, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendSync(w2, RecordIngest, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	seg := filepath.Join(dir, segmentName(1))
	raw, _ := os.ReadFile(seg)
	frame := make([]byte, 0, frameSize)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(MaxPayload+1))
	frame = binary.LittleEndian.AppendUint32(frame, 0)
	frame = append(frame, byte(RecordIngest))
	os.WriteFile(seg, append(raw, frame...), 0o644)
	w3, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatalf("hostile length in final segment must read as torn tail: %v", err)
	}
	defer w3.Close()
	if got := collect(t, w3, 0); len(got) != 1 {
		t.Fatalf("replayed %d records", len(got))
	}
}

// TestTornSegmentCreationRecovers: a crash between rotation's file
// create and the header write leaves an empty or half-headered final
// segment; Open must reinitialize it instead of refusing startup, and
// no acknowledged record can be lost (none could exist before the
// header's first fsync).
func TestTornSegmentCreationRecovers(t *testing.T) {
	for _, tear := range []struct {
		name  string
		bytes []byte
	}{
		{"empty file", nil},
		{"partial header", []byte("corrdw")},
		{"garbled header", bytes.Repeat([]byte{0xFF}, headerSize)},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := appendSync(w, RecordIngest, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// Simulate the torn rotation: the next segment exists but
			// its header never (fully) landed.
			if err := os.WriteFile(filepath.Join(dir, segmentName(5)), tear.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			w2, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatalf("open over torn segment creation: %v", err)
			}
			defer w2.Close()
			if got := collect(t, w2, 0); len(got) != 4 {
				t.Fatalf("replayed %d records, want 4", len(got))
			}
			// LastLSN must reflect the retained records even before the
			// first new append — a snapshot taken now checkpoints at 4,
			// not 0 (covered=0 would double-apply on the next restart).
			if got := w2.LastLSN(); got != 4 {
				t.Fatalf("LastLSN after reinit: %d, want 4", got)
			}
			if lsn, err := appendSync(w2, RecordIngest, []byte("resume")); err != nil || lsn != 5 {
				t.Fatalf("append after reinit: lsn %d err %v", lsn, err)
			}
		})
	}
}

// TestBadHeaderWithDataRefuses: once a final segment holds records, a
// garbled header can no longer be a torn creation (the first record's
// fsync persisted the header) — Open must refuse rather than silently
// reinitialize away acknowledged data. A whole header that names another
// format version is refused as ErrVersion, naming both versions, with or
// without records behind it. No refusal touches the file.
func TestBadHeaderWithDataRefuses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records int
		damage  func(raw []byte)
		want    error
	}{
		{"garbled magic", 1, func(raw []byte) { raw[0] ^= 0xFF }, ErrCorrupt},
		{"version 1 with records", 2, func(raw []byte) { raw[8] = 1 }, ErrVersion},
		{"version 1 header only", 0, func(raw []byte) { raw[8] = 1 }, ErrVersion},
		{"version 2 with records", 2, func(raw []byte) { raw[8] = 2 }, ErrVersion},
		{"version 2 header only", 0, func(raw []byte) { raw[8] = 2 }, ErrVersion},
		{"version 3 with records", 2, func(raw []byte) { raw[8] = 3 }, ErrVersion},
		{"later version", 1, func(raw []byte) { raw[8] = walVersion + 1 }, ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.records; i++ {
				if _, err := appendSync(w, RecordIngest, []byte("acknowledged")); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segmentName(1))
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(raw) // the record bytes stay
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, Options{Sync: SyncAlways})
			if !errors.Is(err, tc.want) {
				t.Fatalf("open must refuse with %v, got: %v", tc.want, err)
			}
			if tc.want == ErrVersion {
				for _, part := range []string{fmt.Sprintf("version %d,", raw[8]), fmt.Sprintf("version %d ", walVersion), "Storage format"} {
					if !strings.Contains(err.Error(), part) {
						t.Fatalf("refusal does not say %q: %v", part, err)
					}
				}
			}
			if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, raw) {
				t.Fatalf("the refused open modified the segment (err %v)", err)
			}
		})
	}
}

// TestAppendNoSyncDurableAfterSync: AppendNoSync defers the SyncAlways
// fsync to an explicit Sync — the group-commit shape, where the append
// is ordered inside a critical section and the durability barrier runs
// outside it. Records land with sequential LSNs, replay sees them, and
// a reopen after Sync still has them.
func TestAppendNoSyncDurableAfterSync(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendSync(w, RecordIngest, []byte("synced-inline")); err != nil {
		t.Fatal(err)
	}
	lsn2, err := w.AppendNoSync(RecordIngest, []byte("deferred"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != 2 {
		t.Fatalf("LSN %d, want 2", lsn2)
	}
	fsBefore := w.Stats().Fsyncs
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != fsBefore+1 {
		t.Fatalf("Sync issued %d fsyncs, want 1", got-fsBefore)
	}
	// A second Sync with nothing dirty is free.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Fsyncs; got != fsBefore+1 {
		t.Fatalf("idle Sync issued an fsync")
	}
	got := collect(t, w, 0)
	if len(got) != 2 || got[1].typ != RecordIngest || string(got[1].payload) != "deferred" {
		t.Fatalf("replay: %+v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got = collect(t, w2, 0)
	if len(got) != 2 || string(got[1].payload) != "deferred" {
		t.Fatalf("reopen replay: %+v", got)
	}
}
