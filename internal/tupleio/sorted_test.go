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
	// 200 rows at (0, 0) and one far off: the last row's codes run past 64
	// bits.
	zeros := make([]core.Tuple, 200)
	for i := range zeros {
		zeros[i].W = 1
	}
	// Rows at (0, 0), then a row of exactly 64 bits in the stream's last
	// eight bytes, then rows whose codes cross where it ended: read with a
	// 64-bit row left in the reader, the first is refused as non-zero
	// padding and the second decodes as other tuples.
	wide := append(zeros[:32:32], core.Tuple{X: 31, Y: 31, W: 1}, core.Tuple{X: 0, Y: 63, W: 1})
	wider := append(zeros[:36:36], core.Tuple{X: 39, Y: 23, W: 1}, core.Tuple{X: 17, Y: 39, W: 1})
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
		{"k=63", []core.Tuple{{X: top, Y: 1 << 63, W: 1}, {X: 1 << 63, Y: top, W: 1}}},
		{"long unary", append(zeros, core.Tuple{X: 5000, Y: 9000, W: 1})},
		{"64-bit row", wide},
		{"64-bit row, a long row after", wider},
	}
	var all []byte
	for _, m := range members {
		wire := mustSorted(t, nil, m.tenant, m.batch)
		if n := SortedBatchLen(wire); n != uint64(len(m.batch)) {
			t.Fatalf("tenant %q: SortedBatchLen %d, want %d", m.tenant, n, len(m.batch))
		}
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
	if want := []byte{0x01, 'a', 0x03, 0x05, 0x06, 0x48, 0x1e, 0xc1, 0xa4, 0x87, 0x2c, 0x00}; !bytes.Equal(example, want) {
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

// rows builds a member from its parts, so a test can write what the
// encoder never would: count and the two parameter bytes as given, then
// codes — y gap, x, y gap, x, … — Rice-coded at k_y and k_x, padded, and
// tail after the bitstream.
func rows(tenant string, count uint64, ky, kx byte, codes []uint64, tail ...byte) []byte {
	b := appendUvarint(AppendTenant(nil, tenant), count)
	w := bitWriter{buf: append(b, ky, kx)}
	for i, v := range codes {
		w.rice(v, uint([2]byte{ky, kx}[i%2]))
	}
	return append(w.flush(), tail...)
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
	valid := mustSorted(t, nil, "ta", []core.Tuple{{X: 300, Y: 7, W: 2}, {X: 1, Y: 7, W: 1}, {X: 2, Y: 1 << 20, W: 1 << 40}})
	// Two rows that decode as they are; the same rows coded at another
	// k_y or k_x, or with the bitstream's last bit set, do not.
	base := rows("", 2, 2, 0, []uint64{5, 1, 6, 1}, 0)
	if _, got, _, err := DecodeSortedBatch(nil, base); err != nil || len(got) != 2 {
		t.Fatalf("the base member: %v (err %v)", got, err)
	}
	padded := bytes.Clone(base)
	padded[len(padded)-2] |= 0x80
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"no Rice parameters", u(0, 1)},
		{"one Rice parameter", u(0, 1, 0)},
		{"count beyond the body", append(u(0, 9, 0, 0), 0xff, 0)},
		{"count the bits cannot hold", append(u(0, 3, 30, 30), make([]byte, 10)...)},
		{"count beyond MaxDecodeTuples", append(u(0, MaxDecodeTuples+1, 0, 0), make([]byte, MaxDecodeTuples)...)},
		{"count 2^40 on a short body", u(0, 1<<40, 0, 0, 0xff, 0)},
		{"k_y 64", u(0, 1, 64, 0, 0xff, 0)},
		{"k_x 64", u(0, 1, 0, 64, 0xff, 0)},
		{"wrong k_y", rows("", 2, 3, 0, []uint64{5, 1, 6, 1}, 0)},
		{"wrong k_x", rows("", 2, 2, 1, []uint64{5, 1, 6, 1}, 0)},
		{"non-zero padding", padded},
		{"unterminated unary run", u(0, 1, 0, 0, 0, 0)},
		{"unterminated unary run in x", append(u(0, 1, 0, 0), 0x01, 0, 0)},
		{"k = 63, quotient 2", append(u(0, 1, 63, 0), 0b100, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"wrapping gap", rows("", 2, 62, 0, []uint64{5, 1, math.MaxUint64 - 4, 1}, 0)},
		{"weight 0", rows("", 2, 0, 0, []uint64{1, 1, 1, 1}, 1, 3, 0)},
		{"weight 2^63", append(rows("", 1, 0, 0, []uint64{1, 1}, 1), u(1<<63)...)},
		{"flag 2", rows("", 1, 0, 0, []uint64{1, 1}, 2)},
		{"no flag", rows("", 1, 0, 0, []uint64{1, 1})},
		{"weights listed though all are 1", rows("", 2, 0, 0, []uint64{1, 1, 1, 1}, 1, 1, 1)},
		{"weights listed for an empty batch", u(0, 0, 0, 0, 1)},
		{"padded count", []byte{0, 0x81, 0x00, 0, 0, 0x05, 0}},
		{"padded weight", rows("", 1, 0, 0, []uint64{1, 1}, 1, 0x82, 0x00)},
		{"padded tenant length", []byte{0x81, 0x00, 'a', 0, 0, 0, 0}},
		{"control byte in the key", []byte{1, 0x07, 0, 0, 0, 0}},
		{"key length beyond the cap", append(u(MaxTenantLen+1), make([]byte, MaxTenantLen+3)...)},
	} {
		_, got, _, err := DecodeSortedBatch(nil, tc.wire)
		if !errors.Is(err, ErrBadStream) || len(got) != 0 {
			t.Fatalf("%s: decoded %d tuples, err %v", tc.name, len(got), err)
		}
		if uint64(cap(got)) > maxRows(len(tc.wire), 0, 0) {
			t.Fatalf("%s: a %d-byte input allocated room for %d tuples", tc.name, len(tc.wire), cap(got))
		}
	}

	long := mustSorted(t, nil, "", []core.Tuple{{X: 0, Y: 0, W: 1}, {X: 0, Y: 0, W: 1}, {X: 0, Y: 0, W: 1}, {X: 1 << 10, Y: 1 << 10, W: 1}})
	for _, wire := range [][]byte{valid, base, long} {
		for cut := 0; cut < len(wire); cut++ {
			if _, _, _, err := DecodeSortedBatch(nil, wire[:cut]); !errors.Is(err, ErrBadStream) {
				t.Fatalf("% x truncated at byte %d: err %v", wire, cut, err)
			}
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
	f.Add(mustSorted(f, nil, "", []core.Tuple{{X: 1 << 63, Y: 1 << 63, W: 1}, {X: math.MaxUint64, Y: math.MaxUint64, W: 1}})) // k = 63
	f.Add(mustSorted(f, nil, "", append(make([]core.Tuple, 90), core.Tuple{X: 5000, Y: 9000, W: 1})))                         // codes past 64 bits
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0xff, 0})                                                             // count claims 2^32 rows
	f.Add(rows("", 2, 62, 0, []uint64{5, 1, math.MaxUint64 - 4, 1}, 0))                                                       // gap wraps y
	f.Add(append(rows("", 1, 0, 0, []uint64{1, 1}, 1), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))           // weight 2^63
	f.Add(rows("", 2, 3, 0, []uint64{5, 1, 6, 1}, 0))                                                                         // wrong k_y
	f.Add([]byte{0, 1, 0, 0, 0x8a, 0})                                                                                        // non-zero padding
	f.Add([]byte{0, 1, 63, 0, 0b100, 0, 0, 0, 0, 0, 0, 0, 0, 0})                                                              // k = 63, quotient 2
	f.Add(rows("", 1, 0, 0, []uint64{1, 1}, 2))                                                                               // flag 2

	f.Fuzz(func(t *testing.T, data []byte) {
		tenant, batch, rest, err := DecodeSortedBatch(nil, data)
		if uint64(cap(batch)) > maxRows(len(data), 0, 0) {
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

// sortedShape is one batch as a commit hands it to the codec.
type sortedShape struct {
	name, tenant string
	batch        []core.Tuple
}

// sortedShapes are the batch shapes corrdbench's four workloads hand a
// commit (x below 100 001, y below 1 000 001, unit weights), sorted: a
// 32 768-tuple uniform group (stream-saturate), a 16-tuple uniform request
// (http-small), and a 256-tuple zipf frame for the default tenant
// (mixed-paced) and for a two-byte key (tenants-restart).
func sortedShapes() []sortedShape {
	const xdom, ydom = 100001, 1000001
	sorted := func(s gen.Stream) (batch []core.Tuple) {
		for _, t := range gen.Collect(s) {
			batch = append(batch, core.Tuple{X: t.X, Y: t.Y, W: 1})
		}
		core.SortByY(batch)
		return batch
	}
	return []sortedShape{
		{"uniform-32768", "", sorted(gen.Uniform(32768, xdom, ydom, 11))},
		{"uniform-16", "", sorted(gen.Uniform(16, xdom, ydom, 11))},
		{"zipf-256", "", sorted(gen.Zipf(256, xdom, ydom, 1, 11))},
		{"zipf-256-keyed", "t3", sorted(gen.Zipf(256, xdom, ydom, 1, 11))},
	}
}

// TestSortedBatchSize pins the member's encoded size on corrdbench's
// shapes, so a change that grows the log fails here before it shows in a
// benchmark. The uvarint member of before the Rice code took 126 065, 91,
// 947 and 949 bytes.
func TestSortedBatchSize(t *testing.T) {
	want := map[string]int{"uniform-32768": 96295, "uniform-16": 73, "zipf-256": 907, "zipf-256-keyed": 909}
	for _, shape := range sortedShapes() {
		if got := len(mustSorted(t, nil, shape.tenant, shape.batch)); got != want[shape.name] {
			t.Errorf("%s: %d bytes (%.3f a tuple), want %d", shape.name, got, float64(got)/float64(len(shape.batch)), want[shape.name])
		}
	}
}

// BenchmarkSortedBatch prices the WAL ingest member offline on
// sortedShapes. B/tuple is the member's encoded size — the client wire
// spends 7 bytes a tuple on the same streams.
func BenchmarkSortedBatch(b *testing.B) {
	for _, shape := range sortedShapes() {
		batch := shape.batch
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
