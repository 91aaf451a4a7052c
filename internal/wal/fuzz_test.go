package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/streamagg/correlated/internal/fault"
)

// FuzzWALReplay throws mutated segment files at Open + Replay: whatever
// the bytes, recovery must neither panic nor allocate unboundedly, and
// every record it does return must carry a frame whose CRC verified.
// The corpus seeds valid logs (single- and multi-record, rotated) over
// the four record types and the reserved type 2 (a push record, which a
// log of this format may still hold) so mutations explore the interesting frontier:
// torn tails, hostile lengths, flipped CRCs, bad headers.
func FuzzWALReplay(f *testing.F) {
	seed := func(build func(w *WAL)) []byte {
		dir := f.TempDir()
		w, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			f.Fatal(err)
		}
		build(w)
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		firsts, err := listSegments(fault.OS(), dir)
		if err != nil || len(firsts) == 0 {
			f.Fatalf("no segments to seed with: %v", err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, segmentName(firsts[0])))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add([]byte{})
	f.Add(seed(func(w *WAL) {}))
	f.Add(seed(func(w *WAL) {
		appendSync(w, RecordIngest, []byte{0, 1, 1, 1, 0x32}) // default tenant, 1 row, unit weights
	}))
	f.Add(seed(func(w *WAL) {
		appendSync(w, RecordIngest, bytes.Repeat([]byte{7}, 60))
		appendSync(w, 2, bytes.Repeat([]byte{9}, 60))
		appendSync(w, RecordForward, nil)
		checkpoint(w, 2)
	}))
	// The two tenant-tagged records: an ingest group (sorted batches back
	// to back, the empty key for the default tenant, no member count)
	// and a push (tenant prefix, then an image), plus a group whose
	// second member truncates inside the tenant field — the WAL is
	// payload-agnostic, so mutations of these explore replay's keyed
	// decode downstream.
	f.Add(seed(func(w *WAL) {
		group := []byte{2, 't', 'a', 1, 2, 2, 0xa6}          // tenant "ta", 1 row
		group = append(group, 0, 1, 0x81, 2, 0x16, 9)        // default tenant, 1 row of weight 9
		group = append(group, 2, 't', 'b', 1, 2, 3, 0x2e, 0) // tenant "tb", 1 row
		appendSync(w, RecordIngest, group)
		push := append([]byte{3, 'k', 'e', 'y'}, bytes.Repeat([]byte{5}, 40)...)
		appendSync(w, 2, push)
	}))
	f.Add(seed(func(w *WAL) {
		torn := []byte{2, 't', 'a', 1, 2, 2, 0xa6, 120} // 120-byte key claim, no bytes
		appendSync(w, RecordIngest, torn)
	}))
	// The record types replication ships verbatim: a site's forward (site
	// id, then records back to back: the site's LSN, the inner type byte,
	// the payload's length and the payload) of an ingest record and a push,
	// one whose inner type names no record, and a recovery probe, so
	// mutations explore a replica replaying what a coordinator took in from
	// its sites; and a checkpoint marker written as a raw record whose
	// covered-LSN varint claims an absurd position — a bare append, not the
	// checkpoint helper, so no pruning eats the seed.
	f.Add(seed(func(w *WAL) {
		site := binary.AppendUvarint(nil, 0x9e3779b97f4a7c15)
		two := append(binary.AppendUvarint(bytes.Clone(site), 41), byte(RecordIngest), 5, 0, 1, 1, 1, 0x32)
		appendSync(w, RecordForward, append(binary.AppendUvarint(two, 42), 2, 5, 1, 'k', 4, 4, 4))
		appendSync(w, RecordForward, append(binary.AppendUvarint(bytes.Clone(site), 1<<62), 0xff, 0))
		appendSync(w, RecordProbe, nil)
	}))
	f.Add(seed(func(w *WAL) {
		appendSync(w, RecordIngest, []byte{0, 1, 1, 1, 0x32})
		appendSync(w, RecordCheckpoint, binary.AppendUvarint(nil, 1<<62))
	}))
	// A segment from before each version break: whole header, version 1,
	// 2, 3, 4 or 5, records behind it. Open refuses it by name; mutations explore the
	// boundary between "another version" and "torn or corrupt".
	preBreak := seed(func(w *WAL) {
		appendSync(w, RecordIngest, []byte{1, 2, 3, 1})
		appendSync(w, 8, []byte{1, 0, 1, 2, 3, 1})
	})
	for _, version := range []byte{1, 2, 3, 4, 5} {
		preBreak[8] = version
		f.Add(bytes.Clone(preBreak))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keep per-case disk work bounded
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(dir, Options{})
		if err != nil {
			return // corruption detected is a valid outcome
		}
		defer w.Close()
		records := 0
		w.Replay(0, func(lsn uint64, typ RecordType, payload []byte) error {
			records++
			if len(payload) > len(data) {
				t.Fatalf("record %d larger than the whole file (%d > %d)", lsn, len(payload), len(data))
			}
			return nil
		})
		// The writer must be usable after any recovery.
		if _, err := appendSync(w, RecordIngest, []byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery of %d records: %v", records, err)
		}
	})
}
