package service

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"slices"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/wal"
)

// FuzzDecodeIngest throws arbitrary payloads at the one ingest-record
// decoder, the function crash replay and a replica's live apply both
// read RecordIngest through. Whatever the bytes it must not panic; what
// it allocates is bounded by the payload's length (a member is at least
// five bytes, a row at least two bits — no count in the payload is trusted
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
		{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0xff, 0},                                  // count claims 2^32 tuples
		{2, 't', 'a', 1, 2, 2, 0xa6, 0, 120},                                              // second member: 120-byte key, no bytes
		{1, 0x07, 0, 0, 0, 0},                                                             // control byte in the key
		{0, 1, 0, 0, 0x0a, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // weight overflows int64
	} {
		f.Add(hostile)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		st := newReplayState(0, true)
		batches, err := st.decodeIngest(payload, nil)
		tuples := 0
		for _, b := range st.batches {
			tuples += cap(b.tuples)
		}
		if len(st.batches) > len(payload)/5+1 || tuples > 4*len(payload) {
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

// FuzzDecodeSnapshot throws arbitrary bytes at the one snapshot decoder,
// which reads disk files at startup and re-seed frames off a replication
// connection. Whatever the bytes it must not panic; the images it returns
// alias the input, so what it allocates is one entry per tenant and one per
// site's mark, and no tenant or site count is trusted past the bytes behind
// it; bytes that do not open with the current magic are refused as
// ErrSnapshotFormat; and on everything it accepts, decode ∘ encode is the
// identity: re-encoding what was decoded and decoding that yields the same
// LSN, the same tenants and the same marks.
func FuzzDecodeSnapshot(f *testing.F) {
	// A live three-tenant snapshot, one of them spilled, with two sites'
	// marks: one from a forward, and one as large as a mark can be.
	svc, err := New(Config{Options: testOptions()})
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
	_, live, _, _, err := svc.buildSnapshot()
	svc.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(live)
	for _, cut := range []int{0, 4, len(snapshotMagic), len(snapshotMagic) + 1, len(live) / 2, len(live) - 1} {
		f.Add(live[:cut])
	}
	f.Add(append(bytes.Clone(live), 0))                                           // trailing byte
	f.Add(append(bytes.Clone(snapshotMagic), 0, 0xff, 0xff, 0xff, 0xff, 0x0f))    // forged tenant count
	f.Add(append(bytes.Clone(snapshotMagic), 7, 1, 1, 'a', 0xff, 0x7f))           // image longer than the input
	f.Add(append(bytes.Clone(snapshotMagic), 7, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)) // forged site count
	f.Add(append(bytes.Clone(snapshotMagic), 7, 0, 2, 1, 5, 1, 5))                // one site listed twice
	f.Add(encodeSnapshot(9, nil, nil))
	for _, old := range []string{"corrdsn1", "corrdsn2", "corrdsn3"} {
		f.Add(append([]byte(old), live[len(snapshotMagic):]...))
	}
	f.Add(live[len(snapshotMagic):]) // a bare image, as before the WAL existed

	f.Fuzz(func(t *testing.T, data []byte) {
		covered, images, marks, err := decodeSnapshot(data)
		if cap(images) > len(data) || len(marks) > len(data)/2 {
			t.Fatalf("%d-byte input allocated room for %d tenants and %d marks", len(data), cap(images), len(marks))
		}
		if err != nil {
			if !bytes.HasPrefix(data, snapshotMagic) && !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("input without the magic refused as %v, want ErrSnapshotFormat", err)
			}
			return
		}
		again := encodeSnapshot(covered, images, marks)
		covered2, images2, marks2, err := decodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if covered2 != covered || len(images2) != len(images) || !maps.Equal(marks2, marks) {
			t.Fatalf("round trip turned LSN %d, %d tenants, marks %v into LSN %d, %d tenants, marks %v",
				covered, len(images), marks, covered2, len(images2), marks2)
		}
		for i, ti := range images {
			if images2[i].name != ti.name || !bytes.Equal(images2[i].image, ti.image) {
				t.Fatalf("tenant %d (%q) changed across the round trip", i, ti.name)
			}
		}
	})
}
