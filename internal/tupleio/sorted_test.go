package tupleio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/streamagg/correlated/internal/bitcode"
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

// paramsOf reads the two parameter bytes of the member at the front of
// wire.
func paramsOf(tb testing.TB, wire []byte) (py, px byte) {
	tb.Helper()
	_, rest, err := DecodeTenantPrefix(wire)
	if err != nil {
		tb.Fatal(err)
	}
	_, n := uvarint(rest)
	if n <= 0 || len(rest) < n+2 {
		tb.Fatalf("no parameter bytes in % x", wire)
	}
	return rest[n], rest[n+1]
}

// pickedCodes encodes batch, sorted, and returns the codes its columns
// took, as describe names them.
func pickedCodes(tb testing.TB, batch []core.Tuple) (y, x string) {
	tb.Helper()
	py, px := paramsOf(tb, mustSorted(tb, nil, "", batch))
	return bitcode.Describe(py), bitcode.Describe(px)
}

// column shapes that pick a code at an edge of k, and the batches that
// carry them as x, over y = 0: a column at k = 0 in each code, at the
// largest k each can win at (Exp-Golomb never wins at 63: that k needs
// every value 64 bits long, where each is a bit shorter in Rice), an
// Exp-Golomb code past 64 bits, and a tie, which Rice takes.
var edgeColumns = []struct {
	name, code string
	xs         []uint64
}{
	{"Rice at k=0", "Rice k=0", []uint64{1, 1, 1, 1}},
	{"Exp-Golomb at k=0", "Exp-Golomb k=0", []uint64{0, 0, 0, 0, 0, 0, 0, 100}},
	{"Rice at k=63", "Rice k=63", []uint64{1 << 63, math.MaxUint64}},
	{"Exp-Golomb at k=62", "Exp-Golomb k=62", append([]uint64{0}, repeat(5<<61, 63)...)},
	{"Exp-Golomb code of 129 bits", "Exp-Golomb k=0", append(make([]uint64, 200), math.MaxUint64)},
	{"tie", "Rice k=0", []uint64{0, 0, 0, 4}},
}

// repeat is n copies of v.
func repeat(v uint64, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = v
	}
	return vs
}

// xColumn is a batch whose x are xs in order, every y 0, unit weights.
func xColumn(xs []uint64) []core.Tuple {
	batch := make([]core.Tuple, len(xs))
	for i, x := range xs {
		batch[i] = core.Tuple{X: x, W: 1}
	}
	return batch
}

// TestSortedBatchRoundTrip: every shape of batch decodes to itself, row
// order inside equal-y runs included, alone and as one of several members
// back to back in one buffer; unit weights leave p_y's weights bit clear.
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
		{"Exp-Golomb past 64 bits", append(zeros[:63:63], core.Tuple{X: 1 << 40, Y: 1 << 40, W: 1})},
	}
	for _, c := range edgeColumns {
		members = append(members, struct {
			tenant string
			batch  []core.Tuple
		}{c.name, xColumn(c.xs)})
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
		if py, _ := paramsOf(t, wire); unit != (py&weightsBit == 0) {
			t.Fatalf("tenant %q: unit weights %v, but p_y is %#02x", m.tenant, unit, py)
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

	// README "Storage format" works this member through byte by byte: y
	// Rice-coded at k = 5, x Exp-Golomb-coded at k = 4.
	example := mustSorted(t, nil, "a", []core.Tuple{{X: 7, Y: 100, W: 1}, {X: 9, Y: 100, W: 1}, {X: 300, Y: 130, W: 1}})
	if want := []byte{0x01, 'a', 0x03, 0x05, 0x44, 0x48, 0x5e, 0x30, 0x7b, 0xc8, 0x03}; !bytes.Equal(example, want) {
		t.Fatalf("the README's example member encodes as % x, the README says % x", example, want)
	}

	// Each edge column takes the code it is named for.
	for _, c := range edgeColumns {
		if y, x := pickedCodes(t, xColumn(c.xs)); y != "Rice k=0" || x != c.code {
			t.Fatalf("%s: y coded %s and x %s, want Rice k=0 and %s", c.name, y, x, c.code)
		}
	}

	// A zero weight is the codec's 1.
	wire := mustSorted(t, nil, "z", []core.Tuple{{X: 1, Y: 2}})
	if py, _ := paramsOf(t, wire); py&weightsBit != 0 {
		t.Fatalf("zero weight: p_y is %#02x, want no weights bit", py)
	}
	if _, got, _, err := DecodeSortedBatch(nil, wire); err != nil || got[0].W != 1 {
		t.Fatalf("zero weight: %v (err %v), wire % x", got, err, wire)
	}
}

// TestParamsPickTheShorterCode: on every shape the tests know, each
// column's parameter byte names the code that writes it in fewer bits, Rice
// on a tie — counted by writing the column in both codes, so the pricing
// the encoder and the decoder share is checked against the codes
// themselves.
func TestParamsPickTheShorterCode(t *testing.T) {
	batches := [][]core.Tuple{nil}
	for _, shape := range sortedShapes() {
		batches = append(batches, shape.batch)
	}
	for _, c := range edgeColumns {
		batches = append(batches, xColumn(c.xs))
	}
	// Bits a column takes in the code p names.
	written := func(vs []uint64, p byte) int {
		w := bitcode.NewWriter(nil)
		for _, v := range vs {
			w.Code(v, p)
		}
		return w.Bits()
	}
	for i, batch := range batches {
		var y, x bitcode.Column
		gaps, xs := make([]uint64, len(batch)), make([]uint64, len(batch))
		var prev uint64
		for j, tu := range batch {
			gaps[j], xs[j], prev = tu.Y-prev, tu.X, tu.Y
			y.Add(gaps[j])
			x.Add(xs[j])
		}
		n := uint64(len(batch))
		py, px := params(batch, y, x)
		for _, col := range []struct {
			name   string
			vs     []uint64
			sums   bitcode.Column
			picked byte
		}{{"y", gaps, y, py}, {"x", xs, x, px}} {
			r, e := col.sums.Ks(n)
			rice, eg := written(col.vs, byte(r)), written(col.vs, byte(e)|bitcode.ExpGolomb)
			want := byte(r)
			if eg < rice {
				want = byte(e) | bitcode.ExpGolomb
			}
			if col.picked != want {
				t.Errorf("batch %d, %s: picked %s; Rice k=%d takes %d bits, Exp-Golomb k=%d %d", i, col.name, bitcode.Describe(col.picked), r, rice, e, eg)
			}
		}
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
// codes — y gap, x, y gap, x, … — in the codes p_y and p_x name, padded,
// and tail after the bitstream.
func rows(tenant string, count uint64, py, px byte, codes []uint64, tail ...byte) []byte {
	b := appendUvarint(AppendTenant(nil, tenant), count)
	w := bitcode.NewWriter(append(b, py, px))
	for i, v := range codes {
		w.Code(v, [2]byte{py, px}[i%2])
	}
	return append(w.Flush(), tail...)
}

// overX interleaves zero y gaps with xs, as rows takes them.
func overX(xs ...uint64) []uint64 {
	codes := make([]uint64, 0, 2*len(xs))
	for _, x := range xs {
		codes = append(codes, 0, x)
	}
	return codes
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
	base := rows("", 2, 2, 0, []uint64{5, 1, 6, 1})
	if _, got, _, err := DecodeSortedBatch(nil, base); err != nil || len(got) != 2 {
		t.Fatalf("the base member: %v (err %v)", got, err)
	}
	padded := bytes.Clone(base)
	padded[len(padded)-1] |= 0x80
	// Seven zeros and a 100: an x column Exp-Golomb codes shorter at k = 0
	// (edgeColumns).
	eg := xColumn([]uint64{0, 0, 0, 0, 0, 0, 0, 100})
	if _, x := pickedCodes(t, eg); x != "Exp-Golomb k=0" {
		t.Fatalf("the Exp-Golomb member's x is coded %s", x)
	}
	zeros := make([]byte, 8)
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"no parameter bytes", u(0, 1)},
		{"one parameter byte", u(0, 1, 0)},
		{"count beyond the body", append(u(0, 9, 0, 0), 0xff, 0)},
		{"count the bits cannot hold", append(u(0, 3, 30, 30), make([]byte, 10)...)},
		{"count beyond MaxDecodeTuples", append(u(0, MaxDecodeTuples+1, 0, 0), make([]byte, MaxDecodeTuples)...)},
		{"count 2^40 on a short body", u(0, 1<<40, 0, 0, 0xff, 0)},
		{"undefined bit 7 of p_x", append(u(0, 1, 0), 0x80, 0xff)},
		{"undefined bit 7 of p_x, weights listed", append(rows("", 1, 0, 0x80, []uint64{1, 1}), 2)},
		{"wrong k_y", rows("", 2, 3, 0, []uint64{5, 1, 6, 1})},
		{"wrong k_x", rows("", 2, 2, 1, []uint64{5, 1, 6, 1})},
		{"the dearer code: Exp-Golomb", rows("", 4, 0, bitcode.ExpGolomb, overX(1, 1, 1, 1))},
		{"the dearer code: Rice", rows("", 8, 0, 3, overX(0, 0, 0, 0, 0, 0, 0, 100))},
		{"the dearer code in y", rows("", 4, bitcode.ExpGolomb, 0, []uint64{1, 0, 1, 0, 1, 0, 1, 0})},
		{"a tie written as Exp-Golomb", rows("", 4, 0, bitcode.ExpGolomb, overX(0, 0, 0, 4))},
		{"Exp-Golomb at the wrong k", rows("", 8, 0, bitcode.ExpGolomb|1, overX(0, 0, 0, 0, 0, 0, 0, 100))},
		{"Exp-Golomb code past the bytes", u(0, 1, bitcode.ExpGolomb, 0, 0x00, 0x04)},
		{"Exp-Golomb prefix past 64 − k", append(append(u(0, 1, bitcode.ExpGolomb|1, 0), zeros...), 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)},
		{"Exp-Golomb value past 2^64", append(append(append(u(0, 1, bitcode.ExpGolomb, 0), zeros...), 0x03), zeros...)},
		{"non-zero padding", padded},
		{"unterminated unary run", u(0, 1, 0, 0, 0, 0)},
		{"unterminated unary run in x", append(u(0, 1, 0, 0), 0x01, 0, 0)},
		{"k = 63, quotient 2", append(u(0, 1, 63, 0), 0b100, 0, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"wrapping gap", rows("", 2, 62, 0, []uint64{5, 1, math.MaxUint64 - 4, 1})},
		{"weight 0", rows("", 2, weightsBit, 0, []uint64{1, 1, 1, 1}, 3, 0)},
		{"weight 2^63", append(rows("", 1, weightsBit, 0, []uint64{1, 1}), u(1<<63)...)},
		{"no weights behind the weights bit", rows("", 1, weightsBit, 0, []uint64{1, 1})},
		{"weights listed though all are 1", rows("", 2, weightsBit, 0, []uint64{1, 1, 1, 1}, 1, 1)},
		{"weights listed for an empty batch", append(u(0, 0), weightsBit, 0)},
		{"padded count", []byte{0, 0x81, 0x00, 0, 0, 0x05}},
		{"padded weight", rows("", 1, weightsBit, 0, []uint64{1, 1}, 0x82, 0x00)},
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
	for _, wire := range [][]byte{valid, base, long, mustSorted(t, nil, "eg", eg)} {
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
// nothing, with weights or without, in either code — replay's steady
// state.
func TestSortedBatchDecodeAllocs(t *testing.T) {
	ramp := make([]core.Tuple, 256)
	for i := range ramp {
		ramp[i] = core.Tuple{X: uint64(i * 1000), Y: uint64(i / 3 * 500), W: 1}
	}
	weighted := slices.Clone(ramp)
	weighted[17].W = 9
	skewed := slices.Clone(ramp)
	for i := range skewed {
		skewed[i].X = uint64(1) << (i % 32)
	}
	if _, x := pickedCodes(t, skewed); !strings.HasPrefix(x, "Exp-Golomb") {
		t.Fatalf("the skewed batch's x is coded %s", x)
	}
	for name, batch := range map[string][]core.Tuple{"rice": ramp, "weighted": weighted, "exp-golomb": skewed} {
		wire := mustSorted(t, nil, "alloc-test-tenant", batch)
		dst := make([]core.Tuple, 0, len(batch))
		allocs := testing.AllocsPerRun(100, func() {
			name, out, rest, err := DecodeSortedBatch(dst, wire)
			if err != nil || len(name) == 0 || len(out) != len(batch) || len(rest) != 0 {
				t.Fatalf("decode: %q %d %d %v", name, len(out), len(rest), err)
			}
		})
		if allocs != 0 {
			t.Fatalf("sorted-batch decode (%s) allocates %.1f per run, want 0", name, allocs)
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
	f.Add(append(rows("", 1, weightsBit, 0, []uint64{1, 1}), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01))     // weight 2^63
	f.Add(rows("", 2, 3, 0, []uint64{5, 1, 6, 1}))                                                                            // wrong k_y
	f.Add([]byte{0, 1, 0, 0, 0x8a})                                                                                           // non-zero padding
	f.Add([]byte{0, 1, 63, 0, 0b100, 0, 0, 0, 0, 0, 0, 0, 0, 0})                                                              // k = 63, quotient 2
	f.Add(append(rows("", 1, 0, weightsBit, []uint64{1, 1}), 2))                                                              // undefined bit 7 of p_x
	f.Add(rows("", 4, 0, bitcode.ExpGolomb, overX(1, 1, 1, 1)))                                                               // the dearer code
	f.Add(rows("", 4, 0, bitcode.ExpGolomb, overX(0, 0, 0, 4)))                                                               // a tie written as Exp-Golomb
	f.Add([]byte{0, 1, bitcode.ExpGolomb, 0, 0x00, 0x04})                                                                     // Exp-Golomb code past the bytes
	f.Add([]byte{0, 1, bitcode.ExpGolomb, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x03, 0, 0, 0, 0, 0, 0, 0, 0})                           // Exp-Golomb value past 2^64
	for _, c := range edgeColumns {
		f.Add(mustSorted(f, nil, "", xColumn(c.xs)))
	}

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

// fuzzRows writes batch as FuzzSortedBatchRoundTrip reads it.
func fuzzRows(batch []core.Tuple) []byte {
	var b []byte
	for _, t := range batch {
		b = append(appendUvarint(appendUvarint(b, t.X), t.Y), byte(int8(t.W)))
	}
	return b
}

// FuzzSortedBatchRoundTrip builds a batch from the fuzz bytes — rows of
// uvarint x, uvarint y and a weight byte read as an int8, until the bytes
// run out — sorts it with core.SortByY, and checks that the member it
// encodes to decodes to the batch (a non-positive weight as 1) and
// re-encodes to the same bytes. The seeds carry edgeColumns as x and,
// where their sum fits, as y gaps.
func FuzzSortedBatchRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzRows([]core.Tuple{{X: 5, Y: 9, W: 3}, {X: 1 << 40, Y: 2, W: -4}, {X: 7, Y: 9, W: 1}}))
	for _, c := range edgeColumns {
		f.Add(fuzzRows(xColumn(c.xs)))
		gaps := make([]core.Tuple, len(c.xs))
		var y uint64
		for i, gap := range c.xs {
			if gap > math.MaxUint64-y {
				gaps = nil
				break
			}
			y += gap
			gaps[i] = core.Tuple{Y: y, W: 1}
		}
		if gaps != nil {
			f.Add(fuzzRows(gaps))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var batch []core.Tuple
		for len(data) > 0 {
			x, n := binary.Uvarint(data)
			if n <= 0 {
				break
			}
			y, m := binary.Uvarint(data[n:])
			if m <= 0 || len(data) == n+m {
				break
			}
			batch = append(batch, core.Tuple{X: x, Y: y, W: int64(int8(data[n+m]))})
			data = data[n+m+1:]
		}
		core.SortByY(batch)
		wire := mustSorted(t, nil, "fz", batch)
		for i := range batch {
			batch[i].W = max(batch[i].W, 1)
		}
		name, got, rest, err := DecodeSortedBatch(nil, wire)
		if err != nil || string(name) != "fz" || len(rest) != 0 {
			t.Fatalf("decode: %q, %d bytes left, err %v", name, len(rest), err)
		}
		if !slices.Equal(got, batch) {
			t.Fatalf("decoded %v, encoded %v", got, batch)
		}
		if again := mustSorted(t, nil, "fz", got); !bytes.Equal(again, wire) {
			t.Fatalf("re-encoded % x, first encoded % x", again, wire)
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
// (mixed-paced) and for a two-byte key (tenants-restart); and, as 256-tuple
// frames, corrbench's two other datasets: the paper's Ethernet stand-in
// (packet sizes below 2 048, millisecond timestamps) and zipf at α = 2.
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
		{"ethernet-256", "", sorted(gen.Ethernet(256, 11))},
		{"zipf2-256", "", sorted(gen.Zipf(256, xdom, ydom, 2, 11))},
	}
}

// TestSortedBatchSize pins the member's encoded size on sortedShapes, so a
// change that grows the log fails here before it shows in a benchmark. The
// uvarint member of log version 4 took 126 065, 91, 947 and 949 bytes on
// the first four; the Rice-only member of version 5 took 96 295, 73, 907,
// 909, 405 and 533 (the weight flag was a byte of its own, and every column
// was Rice-coded).
func TestSortedBatchSize(t *testing.T) {
	want := map[string]int{"uniform-32768": 96294, "uniform-16": 72, "zipf-256": 853, "zipf-256-keyed": 855, "ethernet-256": 404, "zipf2-256": 515}
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
