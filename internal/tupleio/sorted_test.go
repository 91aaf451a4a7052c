package tupleio

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/gen"
)

// mustSorted encodes a batch that is sorted.
func mustSorted(tb testing.TB, buf []byte, tenant string, batch []core.Tuple) []byte {
	tb.Helper()
	buf, err := AppendSortedBatch(buf, tenant, batch)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// TestSortedBatchRoundTrip: every shape of batch decodes to itself, row
// order inside equal-y runs included, alone and as one of several members
// back to back in one buffer; unit weights end the member at the flag.
func TestSortedBatchRoundTrip(t *testing.T) {
	const top = math.MaxUint64
	members := []struct {
		tenant string
		batch  []core.Tuple
	}{
		{"", nil},
		{"a", []core.Tuple{{X: 7, Y: 100, W: 1}}},
		{"runs", []core.Tuple{{X: 9, Y: 3, W: 1}, {X: 2, Y: 3, W: 1}, {X: 9, Y: 3, W: 1}, {X: 5, Y: 8, W: 1}, {X: 1, Y: 8, W: 1}}},
		{"edges", []core.Tuple{{X: 0, Y: 0, W: 1}, {X: top, Y: 0, W: 1}, {X: 1, Y: top, W: 1}, {X: top, Y: top, W: 1}}},
		{"", []core.Tuple{{X: 1, Y: 1, W: 1}, {X: 2, Y: 2, W: 1}, {X: 3, Y: 2, W: 1}}},
		{strings.Repeat("k", MaxTenantLen), []core.Tuple{{X: 4, Y: 5, W: 3}, {X: 4, Y: 5, W: 1}, {X: 6, Y: 1 << 40, W: math.MaxInt64}}},
	}
	var all []byte
	for _, m := range members {
		wire := mustSorted(t, nil, m.tenant, m.batch)
		name, got, rest, err := DecodeSortedBatch(nil, wire)
		if err != nil || len(rest) != 0 {
			t.Fatalf("tenant %q: err %v, %d bytes left", m.tenant, err, len(rest))
		}
		if string(name) != m.tenant || !slices.Equal(got, m.batch) {
			t.Fatalf("tenant %q decoded as %q %v, want %v", m.tenant, name, got, m.batch)
		}
		unit := !slices.ContainsFunc(m.batch, func(t core.Tuple) bool { return t.W != 1 })
		if unit && wire[len(wire)-1] != 0 {
			t.Fatalf("tenant %q: every weight is 1, but the member ends % x", m.tenant, wire[len(wire)-1:])
		}
		all = append(all, wire...)
	}
	var dst []core.Tuple
	for i, m := range members {
		name, got, rest, err := DecodeSortedBatch(dst, all)
		if err != nil || string(name) != m.tenant || !slices.Equal(got, m.batch) {
			t.Fatalf("member %d of the concatenation: %q %v (err %v)", i, name, got, err)
		}
		dst, all = got, rest
	}
	if len(all) != 0 {
		t.Fatalf("%d bytes left after the last member", len(all))
	}

	// README "Storage format" works this member through byte by byte.
	example := mustSorted(t, nil, "a", []core.Tuple{{X: 7, Y: 100, W: 1}, {X: 9, Y: 100, W: 1}, {X: 300, Y: 130, W: 1}})
	if want := []byte{0x01, 'a', 0x03, 0x64, 0x07, 0x00, 0x09, 0x1e, 0xac, 0x02, 0x00}; !bytes.Equal(example, want) {
		t.Fatalf("the README's example member encodes as % x, the README says % x", example, want)
	}

	// A zero weight is the codec's 1.
	wire := mustSorted(t, nil, "z", []core.Tuple{{X: 1, Y: 2}})
	if _, got, _, err := DecodeSortedBatch(nil, wire); err != nil || got[0].W != 1 || wire[len(wire)-1] != 0 {
		t.Fatalf("zero weight: %v (err %v), wire % x", got, err, wire)
	}
}

// TestSortedBatchRefusesUnsorted: the encoder checks its precondition
// instead of writing y − previous y modulo 2^64, and gives the buffer back
// as it got it.
func TestSortedBatchRefusesUnsorted(t *testing.T) {
	buf := []byte("kept")
	out, err := AppendSortedBatch(buf, "a", []core.Tuple{{X: 1, Y: 5, W: 1}, {X: 2, Y: 9, W: 1}, {X: 3, Y: 8, W: 1}})
	if !errors.Is(err, ErrUnsorted) {
		t.Fatalf("descending pair: err %v, want ErrUnsorted", err)
	}
	if string(out) != "kept" {
		t.Fatalf("refused encode left %q in the buffer", out)
	}
}

// TestSortedBatchDecodeHostile: what the encoder never writes is refused as
// ErrBadStream — by claim before anything is allocated — and truncation at
// every byte of a valid member is refused too. Bytes after a member are
// the caller's.
func TestSortedBatchDecodeHostile(t *testing.T) {
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = appendUvarint(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"count beyond the body", u(0, 3, 1, 1, 1, 1, 0)},
		{"count beyond MaxDecodeTuples", append(u(0, MaxDecodeTuples+1), make([]byte, 2*MaxDecodeTuples+3)...)},
		{"count 2^40 on a short body", u(0, 1<<40, 1, 1, 0)},
		{"wrapping gap", u(0, 2, 5, 1, math.MaxUint64-4, 1, 0)},
		{"weight 0", u(0, 2, 1, 1, 1, 1, 1, 3, 0)},
		{"weight 2^63", u(0, 1, 1, 1, 1, 1<<63)},
		{"flag 2", u(0, 1, 1, 1, 2)},
		{"no flag", u(0, 1, 1, 1)},
		{"weights listed though all are 1", u(0, 2, 1, 1, 1, 1, 1, 1, 1)},
		{"weights listed for an empty batch", u(0, 0, 1)},
		{"padded count", []byte{0, 0x81, 0x00, 1, 1, 0}},
		{"padded gap", []byte{0, 1, 0x80, 0x00, 1, 0}},
		{"padded x", []byte{0, 1, 1, 0x85, 0x00, 0}},
		{"padded weight", []byte{0, 1, 1, 1, 1, 0x82, 0x00}},
		{"padded tenant length", []byte{0x81, 0x00, 'a', 0, 0}},
		{"control byte in the key", []byte{1, 0x07, 0, 0}},
		{"key length beyond the cap", append(u(MaxTenantLen+1), make([]byte, MaxTenantLen+3)...)},
	} {
		_, got, _, err := DecodeSortedBatch(nil, tc.wire)
		if !errors.Is(err, ErrBadStream) || len(got) != 0 {
			t.Fatalf("%s: decoded %d tuples, err %v", tc.name, len(got), err)
		}
		if cap(got) > len(tc.wire)/minRowBytes {
			t.Fatalf("%s: a %d-byte input allocated room for %d tuples", tc.name, len(tc.wire), cap(got))
		}
	}

	valid := mustSorted(t, nil, "ta", []core.Tuple{{X: 300, Y: 7, W: 2}, {X: 1, Y: 7, W: 1}, {X: 2, Y: 1 << 20, W: 1 << 40}})
	for cut := 0; cut < len(valid); cut++ {
		if _, _, _, err := DecodeSortedBatch(nil, valid[:cut]); !errors.Is(err, ErrBadStream) {
			t.Fatalf("truncated at byte %d of %d: err %v", cut, len(valid), err)
		}
	}
	_, got, rest, err := DecodeSortedBatch(nil, append(bytes.Clone(valid), 0xAA, 0xBB))
	if err != nil || len(got) != 3 || !bytes.Equal(rest, []byte{0xAA, 0xBB}) {
		t.Fatalf("trailing bytes: %d tuples, rest % x, err %v", len(got), rest, err)
	}
}

// TestSortedBatchDecodeAllocs: decoding into a warm buffer allocates
// nothing, with weights or without — replay's steady state.
func TestSortedBatchDecodeAllocs(t *testing.T) {
	batch := make([]core.Tuple, 256)
	for i := range batch {
		batch[i] = core.Tuple{X: uint64(i * 1000), Y: uint64(i / 3 * 500), W: 1}
	}
	for _, weighted := range []bool{false, true} {
		if weighted {
			batch[17].W = 9
		}
		wire := mustSorted(t, nil, "alloc-test-tenant", batch)
		dst := make([]core.Tuple, 0, len(batch))
		allocs := testing.AllocsPerRun(100, func() {
			name, out, rest, err := DecodeSortedBatch(dst, wire)
			if err != nil || len(name) == 0 || len(out) != len(batch) || len(rest) != 0 {
				t.Fatalf("decode: %q %d %d %v", name, len(out), len(rest), err)
			}
		})
		if allocs != 0 {
			t.Fatalf("sorted-batch decode (weights %v) allocates %.1f per run, want 0", weighted, allocs)
		}
	}
}

// FuzzDecodeSortedBatch throws arbitrary bytes at the member decoder: it
// never panics, never allocates past what the bytes could hold, what it
// accepts is non-decreasing in y with weights in 1…MaxInt64, and the
// grammar is canonical — re-encoding an accepted member gives back exactly
// the bytes it was decoded from.
func FuzzDecodeSortedBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustSorted(f, nil, "", nil))
	f.Add(mustSorted(f, nil, "ta", []core.Tuple{{X: 5, Y: 6, W: 1}, {X: 4, Y: 6, W: 1}, {X: 1 << 40, Y: 1 << 20, W: 1}}))
	f.Add(mustSorted(f, nil, "", []core.Tuple{{X: 3, Y: 0, W: 9}, {X: 3, Y: math.MaxUint64, W: math.MaxInt64}}))
	two := mustSorted(f, nil, "a", []core.Tuple{{X: 1, Y: 2, W: 1}})
	f.Add(mustSorted(f, two, "b", []core.Tuple{{X: 1, Y: 2, W: 2}}))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 0})                                     // count claims 2^32 rows
	f.Add([]byte{0, 2, 5, 1, 0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 0}) // gap wraps y
	f.Add([]byte{0, 1, 1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})    // weight 2^63
	f.Add([]byte{0, 1, 0x80, 0x00, 1, 0})                                                       // padded gap
	f.Add([]byte{0, 1, 1, 1, 2})                                                                // flag 2

	f.Fuzz(func(t *testing.T, data []byte) {
		tenant, batch, rest, err := DecodeSortedBatch(nil, data)
		if cap(batch) > len(data)/minRowBytes {
			t.Fatalf("%d-byte input allocated room for %d tuples", len(data), cap(batch))
		}
		if err != nil {
			if !errors.Is(err, ErrBadStream) || len(batch) != 0 {
				t.Fatalf("refusal returned %d tuples, err %v", len(batch), err)
			}
			return
		}
		if !slices.IsSortedFunc(batch, func(a, b core.Tuple) int { return cmp.Compare(a.Y, b.Y) }) {
			t.Fatal("decoded batch is not non-decreasing in y")
		}
		for i, tu := range batch {
			if tu.W < 1 {
				t.Fatalf("row %d decoded with weight %d", i, tu.W)
			}
		}
		again, err := AppendSortedBatch(nil, string(tenant), batch)
		if err != nil {
			t.Fatalf("accepted member does not re-encode: %v", err)
		}
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(again, consumed) {
			t.Fatalf("encode(decode(p)) = % x, p = % x", again, consumed)
		}
	})
}

// BenchmarkSortedBatch prices the WAL ingest member offline, on the batch
// shapes corrdbench's four workloads hand a commit (x below 100 001, y
// below 1 000 001, unit weights): a 32 768-tuple uniform group
// (stream-saturate), a 16-tuple uniform request (http-small), and a
// 256-tuple zipf frame for the default tenant (mixed-paced) and for a
// two-byte key (tenants-restart). B/tuple is the member's encoded size —
// the client wire spends 7 bytes a tuple on the same streams.
func BenchmarkSortedBatch(b *testing.B) {
	const xdom, ydom = 100001, 1000001
	for _, shape := range []struct {
		name   string
		tenant string
		stream gen.Stream
	}{
		{"uniform-32768", "", gen.Uniform(32768, xdom, ydom, 11)},
		{"uniform-16", "", gen.Uniform(16, xdom, ydom, 11)},
		{"zipf-256", "", gen.Zipf(256, xdom, ydom, 1, 11)},
		{"zipf-256-keyed", "t3", gen.Zipf(256, xdom, ydom, 1, 11)},
	} {
		var batch []core.Tuple
		for _, t := range gen.Collect(shape.stream) {
			batch = append(batch, core.Tuple{X: t.X, Y: t.Y, W: 1})
		}
		core.SortByY(batch)
		wire := mustSorted(b, nil, shape.tenant, batch)
		perTuple := float64(len(wire)) / float64(len(batch))
		b.Run("encode/"+shape.name, func(b *testing.B) {
			buf := make([]byte, 0, len(wire))
			b.SetBytes(int64(len(wire)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = mustSorted(b, buf[:0], shape.tenant, batch)
			}
			b.ReportMetric(perTuple, "B/tuple")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/tuple")
		})
		b.Run("decode/"+shape.name, func(b *testing.B) {
			dst := make([]core.Tuple, 0, len(batch))
			b.SetBytes(int64(len(wire)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, out, _, err := DecodeSortedBatch(dst, wire); err != nil || len(out) != len(batch) {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perTuple, "B/tuple")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/tuple")
		})
	}
}
