package tupleio

// The sorted batch: the member of a WAL ingest record, which is also what a
// site forwards to its coordinators and standbys. A
// record holds one member per tenant its commit group touched, and a member
// is the argument of the one AddBatch that tenant got — already sorted by
// y, so y travels as the gap to the row before it and a weight only when
// some weight is not 1:
//
//	member   uvarint(len(tenant)) tenant
//	         uvarint(count)
//	         p_y p_x                                   one byte each
//	         count × ( code(y − previous y, p_y)  code(x, p_x) )
//	                 one bitstream, least significant bit of each byte
//	                 first, zero-padded to a byte; previous y starts at 0
//	         count × uvarint(weight), in row order, when p_y's bit 7 is set
//
//	p        bits 0–5  k, the column's parameter, 0…63
//	         bit 6     0: the column is Rice-coded, 1: Exp-Golomb-coded
//	         bit 7     p_y: 1 when weights follow (some weight is not 1);
//	                   p_x: 0
//
// Each column takes the shorter of a Golomb–Rice and an Exp-Golomb code,
// by the exact bit count of its values (package bitcode, which defines both
// codes, the bit order and the choice).
//
// The rows keep the batch's order exactly, equal-y runs included: the order
// inside a run is part of what a summary's state is a function of
// (core.SortByY). The form is canonical — one byte string per batch — so the
// decoder refuses what the encoder never writes: a parameter byte other
// than the one the rows give (the decoder recomputes both codes' costs, so
// a dearer code, a tie written as Exp-Golomb or another k is refused), a
// weights bit set over weights that are all 1, p_x's bit 7, non-zero
// padding, a padded uvarint, a weight of 0. Hostile-input discipline is the
// rest of the codec's: the count is checked against MaxDecodeTuples and
// against what the bytes behind it could hold (a row is at least 2+k_y+k_x
// bits in either code) before anything is allocated, a value may not
// overflow 64 bits, y may not wrap, a weight must fit int64, and the tenant
// key aliases the input.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/streamagg/correlated/internal/bitcode"
	"github.com/streamagg/correlated/internal/core"
)

// ErrUnsorted reports a batch handed to AppendSortedBatch that is not
// non-decreasing in y: the gap to the previous row would have wrapped.
var ErrUnsorted = errors.New("tupleio: batch is not sorted by y")

// weightsBit is the bit of p_y that says weights follow the bitstream.
const weightsBit = 0x80

// params are the parameter bytes, less the weights bit, of a batch whose
// y gaps and x values the first pass summed up as y and x: each column's
// shorter code, priced exactly by a second pass over the rows.
func params(batch []core.Tuple, y, x bitcode.Column) (py, px byte) {
	n := uint64(len(batch))
	gy, gx := y.Pricer(n), x.Pricer(n)
	var prev uint64
	for i := range batch {
		gy.Add(batch[i].Y - prev)
		gx.Add(batch[i].X)
		prev = batch[i].Y
	}
	return gy.Param(), gx.Param()
}

// maxRows is how many rows a bitstream within size bytes can hold at
// parameters ky and kx: a code at k is at least 1+k bits long.
func maxRows(size int, ky, kx uint) uint64 {
	return 8 * uint64(size) / uint64(2+ky+kx)
}

// AppendSortedBatch appends tenant's sorted batch to buf. The batch must be
// non-decreasing in y (core.SortByY leaves it so); one that is not is
// refused with ErrUnsorted and buf comes back as it was given. A
// non-positive weight is written as 1, as everywhere in the codec.
func AppendSortedBatch(buf []byte, tenant string, batch []core.Tuple) ([]byte, error) {
	var y, x bitcode.Column
	var prev uint64
	unit := true
	for i := range batch {
		t := &batch[i]
		if t.Y < prev {
			return buf, fmt.Errorf("%w: y = %d follows y = %d at row %d", ErrUnsorted, t.Y, prev, i)
		}
		y.Add(t.Y - prev)
		x.Add(t.X)
		prev = t.Y
		unit = unit && t.W <= 1
	}
	n := uint64(len(batch))
	py, px := params(batch, y, x)
	buf = AppendTenant(buf, tenant)
	buf = binary.AppendUvarint(buf, n)
	at := len(buf)
	w := bitcode.NewWriter(append(buf, py, px))
	prev = 0
	for i := range batch {
		t := &batch[i]
		w.Code(t.Y-prev, py)
		w.Code(t.X, px)
		prev = t.Y
	}
	buf = w.Flush()
	if unit {
		return buf, nil
	}
	buf[at] |= weightsBit
	for i := range batch {
		w := batch[i].W
		if w <= 0 {
			w = 1
		}
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	return buf, nil
}

// rowChunk is how many rows DecodeSortedBatch reads from the bitstream at a
// time.
const rowChunk = 64

// uvarint reads one uvarint in its shortest form; n <= 0 reports a
// truncated, overlong or padded one.
func uvarint(data []byte) (v uint64, n int) {
	if len(data) > 0 && data[0] < 0x80 {
		return uint64(data[0]), 1
	}
	if v, n = binary.Uvarint(data); n > 1 && data[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// DecodeSortedBatch parses one member from the front of data into dst
// (reusing its capacity): the tenant key (aliasing data — copy to keep), the
// batch, non-decreasing in y, and the bytes after the member, which are the
// caller's — a record decodes member by member. Every accepted member is
// one AppendSortedBatch wrote: re-encoding the result gives back the bytes
// consumed.
func DecodeSortedBatch(dst []core.Tuple, data []byte) (tenant []byte, batch []core.Tuple, rest []byte, err error) {
	bad := func(format string, a ...any) ([]byte, []core.Tuple, []byte, error) {
		return nil, dst[:0], data, fmt.Errorf("%w: sorted batch: %s", ErrBadStream, fmt.Sprintf(format, a...))
	}
	head := data
	if tenant, data, err = DecodeTenantPrefix(data); err != nil {
		return nil, dst[:0], data, err
	}
	if sz := len(head) - len(data) - len(tenant); sz > 1 && head[sz-1] == 0 {
		return bad("padded tenant length")
	}
	n, sz := uvarint(data)
	if sz <= 0 {
		return bad("bad count")
	}
	data = data[sz:]
	if n > MaxDecodeTuples {
		return bad("count claims %d tuples, cap is %d", n, MaxDecodeTuples)
	}
	if len(data) < 2 {
		return bad("no parameter bytes")
	}
	py, px := data[0], data[1]
	data = data[2:]
	if px&weightsBit != 0 {
		return bad("x's parameter byte %#02x sets the undefined bit 7", px)
	}
	if most := maxRows(len(data), uint(py&bitcode.KBits), uint(px&bitcode.KBits)); n > most {
		return bad("count claims %d tuples, body can hold at most %d", n, most)
	}
	if uint64(cap(dst)) < n {
		dst = make([]core.Tuple, 0, n)
	}
	dst = dst[:0]
	r := bitcode.NewReader(data)
	var y uint64
	var ys, xs bitcode.Column
	var gaps, x [rowChunk]uint64
	for uint64(len(dst)) < n {
		k := int(min(n-uint64(len(dst)), rowChunk))
		if !r.Pairs(py, px, gaps[:k], x[:k]) {
			return bad("rows %d to %d run past the bits or overflow 64 bits", len(dst), len(dst)+k-1)
		}
		for j, gap := range gaps[:k] {
			if gap > math.MaxUint64-y {
				return bad("y wraps at row %d", len(dst))
			}
			y += gap
			ys.Add(gap)
			xs.Add(x[j])
			dst = append(dst, core.Tuple{X: x[j], Y: y, W: 1})
		}
	}
	if wy, wx := params(dst, ys, xs); wy != py&^weightsBit || wx != px {
		return bad("y and x coded %s and %s, the rows give %s and %s", bitcode.Describe(py), bitcode.Describe(px), bitcode.Describe(wy), bitcode.Describe(wx))
	}
	used := r.Used()
	end := (used + 7) / 8
	if used%8 != 0 && data[end-1]>>(used%8) != 0 {
		return bad("non-zero padding")
	}
	data = data[end:]
	if py&weightsBit == 0 {
		return tenant, dst, data, nil
	}
	unit := true
	for i := range dst {
		w, sz := uvarint(data)
		if sz <= 0 {
			return bad("bad weight at row %d", i)
		}
		data = data[sz:]
		if w == 0 || w > math.MaxInt64 {
			return bad("weight %d at row %d is outside 1…MaxInt64", w, i)
		}
		dst[i].W = int64(w)
		unit = unit && w == 1
	}
	if unit {
		return bad("weights listed though every one is 1")
	}
	return tenant, dst, data, nil
}

// SortedBatchLen is the tuple count the member at the front of data
// claims, read without decoding the member; 0 when data holds no count.
// DecodeSortedBatch checks the claim.
func SortedBatchLen(data []byte) uint64 {
	_, data, err := DecodeTenantPrefix(data)
	if err != nil {
		return 0
	}
	n, _ := binary.Uvarint(data)
	return n
}
