package service

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/wal"
)

// FuzzDecodeIngest throws arbitrary payloads at the one ingest-record
// decoder, the function crash replay and a forward's admission both
// read RecordIngest through. Whatever the bytes it must not panic; what
// it allocates is bounded by the payload's length (a member is at least
// four bytes, a row at least two bits — no count in the payload is trusted
// past the bytes behind it); an empty payload is refused; every batch it
// accepts is non-decreasing in y, so the AddBatch it goes to finds it
// sorted; and the grammar is canonical: re-encoding the members it
// accepted yields the payload, byte for byte.
func FuzzDecodeIngest(f *testing.F) {
	record := func(batches ...tenantBatch) []byte {
		buf, err := appendIngest(nil, batches)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	batch := func(name string, tuples ...correlated.Tuple) tenantBatch {
		return tenantBatch{[]byte(name), tuples}
	}
	f.Add([]byte{})
	f.Add(record(batch("", correlated.Tuple{X: 1, Y: 2, W: 1})))
	f.Add(record(
		batch("ta", correlated.Tuple{X: 5, Y: 6, W: 1}, correlated.Tuple{X: 4, Y: 6, W: 1}),
		batch("", correlated.Tuple{X: 3, Y: 4, W: 9}, correlated.Tuple{X: 1 << 40, Y: 1 << 20, W: 1}),
		batch("tb"),
	))
	for _, hostile := range [][]byte{
		{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0xff, 0}, // count claims 2^32 tuples
		{2, 't', 'a', 1, 2, 2, 0xa6, 120},                // second member: 120-byte key, no bytes
		{1, 0x07, 0, 0, 0, 0},                            // control byte in the key
		{0, 1, 0x80, 0, 0x0a, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // weight overflows int64
	} {
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		st := &replayState{}
		batches, err := st.decodeIngest(payload, nil)
		tuples := 0
		for _, b := range st.batches {
			tuples += cap(b.tuples)
		}
		if len(st.batches) > len(payload)/4+1 || tuples > 4*len(payload) {
			t.Fatalf("%d-byte payload allocated %d members holding room for %d tuples", len(payload), len(st.batches), tuples)
		}
		if err != nil {
			return
		}
		if len(payload) == 0 || len(batches) == 0 {
			t.Fatalf("accepted a %d-byte payload as %d members", len(payload), len(batches))
		}
		for i, b := range batches {
			if !slices.IsSortedFunc(b.tuples, func(a, b correlated.Tuple) int { return cmp.Compare(a.Y, b.Y) }) {
				t.Fatalf("member %d decoded out of y order", i)
			}
		}
		if again, err := appendIngest(nil, batches); err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("encode(decode(payload)) differs from the payload (err %v)", err)
		}
	})
}

// FuzzDecodeSnapshot fuzzes the decoders of a checkpoint: the
// RecordCheckpoint payload replay and a standby's forward apply read
// (decodeCheckpoint, the log's snapshot), and the earlier release's
// snapshot file the import reads (decodeSnapshot). Whatever the bytes
// neither may panic, and neither trusts a tenant or site count past the
// bytes behind it: what it allocates is one entry per tenant and one per
// site's mark. A checkpoint record it accepts round-trips: decoding what
// encodeCheckpoint makes of it yields the same tenants in the same order
// and the same marks. A snapshot that does not open with the magic is
// refused as ErrSnapshotFormat.
func FuzzDecodeSnapshot(f *testing.F) {
	// A live checkpoint of three tenants, one of them spilled, with two
	// sites' marks: one from a forward, and one as large as a mark can be.
	svc, err := New(Config{Options: testOptions(), WALDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"", "acme", "beta"} {
		if err := svc.commit(ingestOf(name, testStream(200, uint64(i+1)))); err != nil {
			f.Fatal(err)
		}
	}
	for site, lsn := range map[uint64]uint64{0x9e3779b97f4a7c15: 41, 7: 1<<64 - 1} {
		body := client.AppendForwardRecord(nil, lsn, uint8(wal.RecordIngest), ingestRecord(f, "acme"))
		if err := svc.commit(&ingestJob{op: opForward, site: site, image: body}); err != nil {
			f.Fatal(err)
		}
	}
	svc.spillTenant(svc.tenantByName("beta"))
	if err := svc.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	var live []byte
	ck := svc.wal.LastCheckpoint()
	err = svc.wal.Replay(ck.LSN-1, func(_ uint64, _ wal.RecordType, payload []byte) error {
		live = bytes.Clone(payload)
		return nil
	})
	svc.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(live)
	for _, cut := range []int{0, 1, 2, len(live) / 2, len(live) - 1} {
		f.Add(live[:cut])
	}
	f.Add(append(bytes.Clone(live), 0))                                            // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})                                    // forged tenant count
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})                                 // forged site count
	f.Add([]byte{0, 2, 1, 5, 1, 5})                                                // one site listed twice
	f.Add([]byte{1, 2, 'a', 7, 0})                                                 // a tenant name with a control byte
	f.Add([]byte{1, 0x7f, 'a', 0})                                                 // a tenant name longer than the input
	f.Add(encodeCheckpoint(nil, nil))                                              // no tenant, no site
	f.Add(encodeCheckpoint([]string{"", "z", "a"}, map[uint64]uint64{3: 1, 1: 3})) // names in any order
	parent, err := os.ReadFile(filepath.Join("testdata", "parent.corrdsn4"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent) // a snapshot file the import takes
	f.Add(append([]byte("corrdsn3"), parent[len(snapshotMagic):]...))
	f.Add(parent[len(snapshotMagic):]) // a bare image, as before the WAL existed

	f.Fuzz(func(t *testing.T, data []byte) {
		names, marks, err := decodeCheckpoint(data)
		if cap(names) > len(data) || len(marks) > len(data)/2 {
			t.Fatalf("%d-byte input allocated room for %d tenants and %d marks", len(data), cap(names), len(marks))
		}
		if err == nil {
			names2, marks2, err := decodeCheckpoint(encodeCheckpoint(names, marks))
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if !slices.Equal(names2, names) || !maps.Equal(marks2, marks) {
				t.Fatalf("round trip turned tenants %q, marks %v into %q, %v", names, marks, names2, marks2)
			}
		}
		images, marks, err := decodeSnapshot(data)
		if cap(images) > len(data) || len(marks) > len(data)/2 {
			t.Fatalf("%d-byte snapshot allocated room for %d tenants and %d marks", len(data), cap(images), len(marks))
		}
		if err != nil && !bytes.HasPrefix(data, snapshotMagic) && !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("input without the magic refused as %v, want ErrSnapshotFormat", err)
		}
	})
}
