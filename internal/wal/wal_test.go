package wal

import (
	"bytes"
	"cmp"
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
// convenience these tests share: the append and its barrier. An error
// from either means the record is not in the log.
func appendSync(w *WAL, typ RecordType, payload []byte) (uint64, error) {
	lsn, err := w.AppendNoSync(typ, payload)
	if err == nil {
		err = w.Sync()
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// checkpoint does what the service's checkpoint group does: images of
// tenants tenants, the record that closes them, one barrier. It returns the
// checkpoint's LSN.
func checkpoint(w *WAL, tenants int) (uint64, error) {
	for i := 0; i < tenants; i++ {
		if _, err := w.AppendNoSync(RecordImage, []byte{1, byte('a' + i), 9, 9}); err != nil {
			return 0, err
		}
	}
	lsn, err := w.AppendNoSync(RecordCheckpoint, []byte{byte(tenants)})
	if err == nil {
		err = w.Sync()
	}
	return lsn, err
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
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var want []replayed
	for i := 0; i < 40; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i%37)
		typ := RecordIngest
		if i%5 == 0 {
			typ = RecordForward
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

	w2, err := Open(dir, Options{SegmentBytes: 256})
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
			w, err := Open(dir, Options{})
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
			w2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer w2.Close()
			got := collect(t, w2, 0)
			if len(got) != 3 {
				t.Fatalf("replayed %d records after torn tail, want 3", len(got))
			}
			if lsn, err := appendSync(w2, RecordForward, []byte("resume")); err != nil || lsn != 4 {
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
	w, err := Open(dir, Options{SegmentBytes: 64})
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
	if _, err := Open(dir, Options{SegmentBytes: 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt sealed segment: %v", err)
	}
}

// TestCheckpointPrunes: Prune deletes exactly the sealed segments whose
// records all precede the newest durable checkpoint's first image (and the
// caller's keep), Open's scan finds that checkpoint again, and a checkpoint
// torn at the tail leaves the one before it the newest — whole, since it
// was what the prune kept.
func TestCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := appendSync(w, RecordIngest, bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(30)
	if err := w.Prune(^uint64(0)); err != nil || w.Stats().PrunedSegments != 0 {
		t.Fatalf("a log with no checkpoint pruned %d segments (err %v)", w.Stats().PrunedSegments, err)
	}
	before := w.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments, got %+v", before)
	}
	lsn, err := checkpoint(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := Checkpoint{First: lsn - 3, LSN: lsn}
	if got := w.LastCheckpoint(); got != want {
		t.Fatalf("LastCheckpoint %+v, want %+v", got, want)
	}
	if err := w.Prune(want.First - 5); err != nil { // a target still lacks the five records before it
		t.Fatal(err)
	}
	if oldest := w.OldestLSN(); oldest > want.First-5 {
		t.Fatalf("the prune deleted records a keep of %d asked for: oldest %d", want.First-5, oldest)
	}
	if err := w.Prune(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.PrunedSegments == 0 || after.Segments >= before.Segments {
		t.Fatalf("checkpoint pruned nothing: before %+v after %+v", before, after)
	}
	if after.Checkpoints != 1 {
		t.Fatalf("checkpoint count: %+v", after)
	}
	if oldest := w.OldestLSN(); oldest > want.First {
		t.Fatalf("pruning discarded the checkpoint's images: oldest record %d, first image %d", oldest, want.First)
	}
	// A second checkpoint whose record is torn off the tail.
	ingest(2)
	next, err := checkpoint(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := listSegments(fault.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(files[len(files)-1]))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.LastCheckpoint(); got != want || w.LastLSN() != next-1 {
		t.Fatalf("after a torn checkpoint: LastCheckpoint %+v (want %+v), last LSN %d (want %d)", got, want, w.LastLSN(), next-1)
	}
	var first uint64
	if err := w.Replay(want.First-1, func(lsn uint64, _ RecordType, _ []byte) error {
		first = cmp.Or(first, lsn)
		return nil
	}); err != nil || first != want.First {
		t.Fatalf("replay from the checkpoint starts at %d (err %v), want %d", first, err, want.First)
	}
}

// TestSyncPolicies: under the one policy, always, every barrier that
// has records behind it is one fsync, the OnFsync hook observes each, the
// records replay, and a closed log refuses appends.
func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		var observed int
		w, err := Open(t.TempDir(), Options{OnFsync: func(d time.Duration) { observed++ }})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := appendSync(w, RecordIngest, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if st := w.Stats(); st.Fsyncs != 5 {
			t.Fatalf("fsyncs: %+v", st)
		}
		if observed != 5 {
			t.Fatalf("OnFsync observed %d", observed)
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

// TestOversizedPayloadRejected: a frame on disk claiming more than
// MaxPayload is treated as malformed before any allocation happens; in
// the final segment that reads as a torn tail.
func TestOversizedPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	w2, err := Open(dir, Options{})
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
	w3, err := Open(dir, Options{})
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
			w, err := Open(dir, Options{})
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
			w2, err := Open(dir, Options{})
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
		{"version 4 with records", 2, func(raw []byte) { raw[8] = 4 }, ErrVersion},
		{"version 5 with records", 2, func(raw []byte) { raw[8] = 5 }, ErrVersion},
		{"version 5 header only", 0, func(raw []byte) { raw[8] = 5 }, ErrVersion},
		{"version 6 with records", 2, func(raw []byte) { raw[8] = 6 }, ErrVersion},
		{"later version", 1, func(raw []byte) { raw[8] = Version + 1 }, ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{})
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
			_, err = Open(dir, Options{})
			if !errors.Is(err, tc.want) {
				t.Fatalf("open must refuse with %v, got: %v", tc.want, err)
			}
			if tc.want == ErrVersion {
				for _, part := range []string{fmt.Sprintf("version %d,", raw[8]), fmt.Sprintf("version %d ", Version), "Storage format"} {
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

// TestAppendNoSyncDurableAfterSync: AppendNoSync defers the
// fsync to an explicit Sync — the group-commit shape, where the append
// is ordered inside a critical section and the durability barrier runs
// outside it. Records land with sequential LSNs, replay sees them, and
// a reopen after Sync still has them.
func TestAppendNoSyncDurableAfterSync(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
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
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got = collect(t, w2, 0)
	if len(got) != 2 || string(got[1].payload) != "deferred" {
		t.Fatalf("reopen replay: %+v", got)
	}
}
