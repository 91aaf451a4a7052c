package service

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	correlated "github.com/streamagg/correlated"
	"github.com/streamagg/correlated/client"
	"github.com/streamagg/correlated/internal/tupleio"
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

// FuzzDecodeSnapshot fuzzes the decoder of a checkpoint: the
// RecordCheckpoint payload replay and a standby's forward apply read
// (decodeCheckpoint, the log's snapshot). Whatever the bytes it may not
// panic, and it trusts no tenant or site count past the bytes behind it:
// what it allocates is one entry per tenant and one per site's mark. A
// checkpoint record it accepts round-trips: decoding what encodeCheckpoint
// makes of it yields the same tenants in the same order and the same marks.
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
	parent := parentSnapshot(f)
	f.Add(parent) // earlier releases' snapshot files
	f.Add(append([]byte("corrdsn3"), parent[8:]...))
	f.Add(parent[8:])

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
	})
}

// FuzzDecodeForward fuzzes the decoder of a forward's body, which comes
// from the network (decodeSiteRecords). Whatever the bytes it must not
// panic; what it allocates is bounded by the body's length and by the
// tuple budget it is handed (1<<12 here; maxForwardTuples live); it refuses
// a record nested past maxForwardDepth; and what it accepts re-encodes,
// record for record, to bytes it decodes to again. The fuzz bytes also
// drive a builder (forwardOf) that makes a body with
// client.AppendForwardRecord and appendIngest, and that body must decode
// and re-encode byte for byte, through the log's encoder (appendSiteRecord)
// too: as it came, and with every checkpoint's record dropped to a probe
// as the builder dropped it.
func FuzzDecodeForward(f *testing.F) {
	image := append(tupleio.AppendTenant(nil, "x"), "not an image, which the decode does not read"...)
	ck := encodeCheckpoint([]string{"x"}, map[uint64]uint64{7: 3})
	deep := client.AppendForwardRecord(nil, 8, uint8(wal.RecordImage), image)
	deep = client.AppendForwardRecord(deep, 9, uint8(wal.RecordCheckpoint), ck)
	deep = client.AppendForwardRecord(deep, 10, uint8(wal.RecordIngest), ingestRecord(f, "a", "b"))
	mid := client.AppendForwardRecord(nil, 3, uint8(wal.RecordProbe), nil)
	mid = client.AppendForwardRecord(mid, 4, uint8(wal.RecordForward), nested(0x333, deep))
	body := client.AppendForwardRecord(nil, 1, uint8(wal.RecordImage), image)
	body = client.AppendForwardRecord(body, 2, uint8(wal.RecordCheckpoint), ck)
	body = client.AppendForwardRecord(body, 3, uint8(wal.RecordIngest), ingestRecord(f, ""))
	body = client.AppendForwardRecord(body, 4, uint8(wal.RecordForward), nested(0x222, mid))
	f.Add(body)
	f.Add(deep)
	f.Add(mid)
	f.Add(body[:len(body)-1])
	f.Add([]byte{1, byte(wal.RecordProbe), 0})
	f.Add([]byte{1, byte(wal.RecordForward), 2, 0x7f, 0})                        // a nested forward whose record has no header
	f.Add([]byte{2, byte(wal.RecordProbe), 0, 1, byte(wal.RecordProbe), 0})      // LSNs that descend
	f.Add([]byte{1, byte(wal.RecordIngest), 6, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count past the cap
	nest := []byte{1, byte(wal.RecordProbe), 0}
	for range maxForwardDepth + 1 {
		nest = client.AppendForwardRecord(nil, 1, uint8(wal.RecordForward), nested(1, nest))
	}
	f.Add(nest)
	f.Add([]byte{0x01, 0x12, 0x04, 0x03, 0x01, 0x02, 0x00, 0x03, 0x80})       // a program: image, checkpoint, a forward of those, ingest
	f.Add([]byte{0x04, 0x07, 0x04, 0x05, 0x04, 0x03, 0x04, 0x01, 0x02, 0x00}) // a program: forwards nested four deep

	svc := &Server{cfg: Config{Options: testOptions()}}
	const budget = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		left, st := uint64(budget), &replayState{}
		recs, err := svc.decodeSiteRecords(data, 0, &left, st)
		tuples := 0
		for _, b := range st.batches {
			tuples += cap(b.tuples)
		}
		if tuples > min(budget, 4*len(data)) || len(st.batches) > len(data)/4 {
			t.Fatalf("%d-byte body allocated %d members holding room for %d tuples", len(data), len(st.batches), tuples)
		}
		if err == nil {
			if d := forwardDepth(recs); d > maxForwardDepth {
				t.Fatalf("accepted a record nested %d forwards deep", d)
			}
			again := reencode(t, recs)
			recs2, err := svc.decodeSiteRecords(again, 0, nil, &replayState{})
			if err != nil || !bytes.Equal(reencode(t, recs2), again) {
				t.Fatalf("the re-encoded body does not decode to itself (err %v)", err)
			}
		}

		body, dropped := forwardOf(t, data, 0)
		if len(body) == 0 {
			return
		}
		recs, err = svc.decodeSiteRecords(body, 0, nil, &replayState{})
		if err != nil {
			t.Fatalf("a built body does not decode: %v", err)
		}
		var logged, probes []byte
		for i := range recs {
			logged = appendSiteRecord(logged, &recs[i], false)
			probes = appendSiteRecord(probes, &recs[i], true)
		}
		if !bytes.Equal(reencode(t, recs), body) || !bytes.Equal(logged, body) || !bytes.Equal(probes, dropped) {
			t.Fatalf("a built body re-encodes to other bytes (rebuilt %t, logged %t, dropped %t)",
				bytes.Equal(reencode(t, recs), body), bytes.Equal(logged, body), bytes.Equal(probes, dropped))
		}
	})
}

// forwardDepth is how many forwards the deepest of recs is nested in.
func forwardDepth(recs []siteRecord) (d int) {
	for _, r := range recs {
		if r.typ == wal.RecordForward {
			d = max(d, 1+forwardDepth(r.recs))
		}
	}
	return d
}

// reencode is a decoded body made bytes again from what the decode kept:
// an ingest record from its batches, a forward from its site and records.
func reencode(t *testing.T, recs []siteRecord) (body []byte) {
	for _, r := range recs {
		payload := r.payload
		switch r.typ {
		case wal.RecordIngest:
			var err error
			if payload, err = appendIngest(nil, r.batches); err != nil {
				t.Fatal(err)
			}
		case wal.RecordForward:
			payload = append(binary.AppendUvarint(nil, r.site), reencode(t, r.recs)...)
		}
		body = client.AppendForwardRecord(body, r.lsn, uint8(r.typ), payload)
	}
	return body
}

// forwardOf builds a forward's body from program bytes, one record a byte
// while they last: the byte's high nibble adds to the LSN, and its low
// one picks an ingest record (of one or two tenants, its tuples from the
// byte), an image, a checkpoint's record, a probe or, within
// maxForwardDepth, a forward of the records the next byte's count of
// bytes build. dropped is the body with every checkpoint's record a probe.
func forwardOf(t *testing.T, prog []byte, depth int) (body, dropped []byte) {
	var lsn uint64
	for len(prog) > 0 {
		op := prog[0]
		prog = prog[1:]
		lsn += 1 + uint64(op>>4)
		typ, payload := wal.RecordProbe, []byte(nil)
		dtyp, dpayload := typ, payload // the record as a dropping server logs it
		switch op % 5 {
		case 0:
			var batches []tenantBatch
			for k := range 1 + int(op>>7) {
				rows := make([]correlated.Tuple, 1+int(op>>5)%4)
				for i := range rows {
					rows[i] = correlated.Tuple{X: uint64(op) << i, Y: uint64(i * int(op)), W: 1 + int64(i&int(op)&1)}
				}
				batches = append(batches, tenantBatch{key: []byte{'a' + byte(k)}, tuples: rows})
			}
			var err error
			if payload, err = appendIngest(nil, batches); err != nil {
				t.Fatal(err)
			}
			typ = wal.RecordIngest
			dtyp, dpayload = typ, payload
		case 1:
			typ, payload = wal.RecordImage, append(tupleio.AppendTenant(nil, "i"), op)
		case 2:
			typ, payload = wal.RecordCheckpoint, encodeCheckpoint([]string{"i"}, map[uint64]uint64{uint64(op): lsn})
		case 4:
			if depth == maxForwardDepth || len(prog) == 0 {
				break
			}
			n := min(int(prog[0]%8)+1, len(prog)-1)
			inner, innerDropped := forwardOf(t, prog[1:1+n], depth+1)
			prog = prog[1+n:]
			if len(inner) == 0 {
				break
			}
			site := binary.AppendUvarint(nil, uint64(op)+1)
			typ, payload = wal.RecordForward, append(slices.Clip(site), inner...)
			dtyp, dpayload = typ, append(site, innerDropped...)
		}
		body = client.AppendForwardRecord(body, lsn, uint8(typ), payload)
		dropped = client.AppendForwardRecord(dropped, lsn, uint8(dtyp), dpayload)
	}
	return body, dropped
}
