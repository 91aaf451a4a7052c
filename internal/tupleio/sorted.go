package tupleio

// The sorted batch: the member of a WAL ingest record, which is also what a
// primary ships to a replica and a site forwards to its coordinator. A
// record holds one member per tenant its commit group touched, and a member
// is the argument of the one AddBatch that tenant got — already sorted by
// y, so y travels as the gap to the row before it and a weight only when
// some weight is not 1:
//
//	member   uvarint(len(tenant)) tenant
//	         uvarint(count)
//	         k_y k_x                                   one byte each
//	         count × ( rice(y − previous y, k_y)  rice(x, k_x) )
//	                 one bitstream, least significant bit of each byte
//	                 first, zero-padded to a byte; previous y starts at 0
//	         flag    0: every weight is 1
//	                 1: count × uvarint(weight) follow, in row order
//
//	rice(v, k)  v>>k zero bits, a one bit, then the k low bits of v,
//	            least significant first
//
// A Golomb–Rice code (Golomb 1966; Rice 1979) with each column's parameter
// taken from its own mean: k_y = ⌊log2 mean(y gaps)⌋ and k_x = ⌊log2
// mean(x)⌋, 0 where the mean is below 1 (or there are no rows), the sums
// taken in 128 bits. Since 2^k ≤ mean, a column's quotients add up to at
// most count·mean/2^k < 2·count: however skewed the column, its unary bits
// stay under two a row.
//
// The rows keep the batch's order exactly, equal-y runs included: the order
// inside a run is part of what a summary's state is a function of
// (core.SortByY). The form is canonical — one byte string per batch — so the
// decoder refuses what the encoder never writes: a k other than the one the
// rows' means give, non-zero padding, a padded uvarint, a flag other than 0
// or 1, flag 1 over weights that are all 1, a weight of 0. Hostile-input
// discipline is the rest of the codec's: the count is checked against
// MaxDecodeTuples and against what the bytes behind it could hold (a row
// is at least 2+k_y+k_x bits) before anything is allocated, a value may
// not overflow 64 bits, y may not wrap, a weight must fit int64, and the
// tenant key aliases the input.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/streamagg/correlated/internal/core"
)

// ErrUnsorted reports a batch handed to AppendSortedBatch that is not
// non-decreasing in y: the gap to the previous row would have wrapped.
var ErrUnsorted = errors.New("tupleio: batch is not sorted by y")

// riceK is a column's parameter, ⌊log2 mean⌋ of n values summing to
// hi·2^64 + lo, or 0 where the mean is below 1. hi < n holds for any n
// values below 2^64.
func riceK(hi, lo, n uint64) uint {
	if n == 0 {
		return 0
	}
	if mean, _ := bits.Div64(hi, lo, n); mean > 0 {
		return uint(bits.Len64(mean) - 1)
	}
	return 0
}

// maxRows is how many rows a bitstream within size bytes can hold at
// parameters ky and kx.
func maxRows(size int, ky, kx uint) uint64 {
	return 8 * uint64(size) / uint64(2+ky+kx)
}

// AppendSortedBatch appends tenant's sorted batch to buf. The batch must be
// non-decreasing in y (core.SortByY leaves it so); one that is not is
// refused with ErrUnsorted and buf comes back as it was given. A
// non-positive weight is written as 1, as everywhere in the codec.
func AppendSortedBatch(buf []byte, tenant string, batch []core.Tuple) ([]byte, error) {
	var prev, xHi, xLo, c uint64
	unit := true
	for i := range batch {
		t := &batch[i]
		if t.Y < prev {
			return buf, fmt.Errorf("%w: y = %d follows y = %d at row %d", ErrUnsorted, t.Y, prev, i)
		}
		xLo, c = bits.Add64(xLo, t.X, 0)
		xHi += c
		prev = t.Y
		unit = unit && t.W <= 1
	}
	n := uint64(len(batch))
	ky, kx := riceK(0, prev, n), riceK(xHi, xLo, n) // the gaps add up to the last y
	buf = AppendTenant(buf, tenant)
	buf = binary.AppendUvarint(buf, n)
	buf = append(buf, byte(ky), byte(kx))
	w := bitWriter{buf: buf}
	prev = 0
	for i := range batch {
		t := &batch[i]
		w.rice(t.Y-prev, ky)
		w.rice(t.X, kx)
		prev = t.Y
	}
	buf = w.flush()
	if unit {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	for i := range batch {
		w := batch[i].W
		if w <= 0 {
			w = 1
		}
		buf = binary.AppendUvarint(buf, uint64(w))
	}
	return buf, nil
}

// bitWriter appends a bitstream to buf, least significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64 // bits not yet appended, the first at bit 0
	n   uint   // how many, below 64
}

// write appends the n low bits of v (n ≤ 64, v < 2^n).
func (w *bitWriter) write(v uint64, n uint) {
	w.acc |= v << (w.n & 63)
	if w.n += n; w.n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.n -= 64
		w.acc = v >> (n - w.n) // what of v did not fit; 0 when all did
	}
}

// rice appends v's Rice code at parameter k (k < 64), in one write when
// the code fits 64 bits.
func (w *bitWriter) rice(v uint64, k uint) {
	q := v >> k
	for ; q >= 63; q -= 63 {
		w.write(0, 63)
	}
	low := v & (1<<k - 1)
	if l := uint(q) + 1 + k; l <= 64 {
		w.write(low<<(q+1)|1<<q, l)
		return
	}
	w.write(1<<q, uint(q)+1)
	w.write(low, k)
}

// flush appends the bits pending, zero-padded to a byte, and returns the
// buffer.
func (w *bitWriter) flush() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
	return w.buf
}

// bitReader reads the bitstream bitWriter writes from the front of data.
// Loading eight bytes at a time may put bits of the bytes from pos on into
// acc at and above n; they are the stream's own bits, only not yet
// counted, and a later load writes the same bits over them.
type bitReader struct {
	data []byte
	pos  int    // the next byte to load
	acc  uint64 // loaded bits not yet read, the next at bit 0
	n    uint   // how many, below 64
}

// refill loads bytes until at least 56 bits are loaded or data ends.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.LittleEndian.Uint64(r.data[r.pos:]) << (r.n & 63)
		r.pos += int(63-r.n) >> 3
		r.n |= 56
		return
	}
	for ; r.n < 56 && r.pos < len(r.data); r.pos++ {
		r.acc |= uint64(r.data[r.pos]) << r.n
		r.n += 8
	}
}

// rice reads one Rice code at parameter k (k < 64); ok is false when the
// stream ends inside it or its value overflows 64 bits.
func (r *bitReader) rice(k uint) (v uint64, ok bool) {
	r.refill()
	var q uint64
	for {
		if tz := uint(bits.TrailingZeros64(r.acc)); tz < r.n {
			q += uint64(tz)
			r.acc >>= tz + 1
			r.n -= tz + 1
			break
		}
		if r.pos == len(r.data) {
			return 0, false // an unterminated unary run
		}
		q += uint64(r.n)
		r.acc, r.n = 0, 0
		r.refill()
	}
	if q>>(64-k) != 0 {
		return 0, false
	}
	for got := uint(0); got < k; {
		if r.n == 0 {
			if r.refill(); r.n == 0 {
				return 0, false
			}
		}
		take := min(k-got, r.n)
		v |= (r.acc & (1<<take - 1)) << got
		r.acc >>= take
		r.n -= take
		got += take
	}
	return q<<k | v, true
}

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
		return bad("no Rice parameters")
	}
	ky, kx := uint(data[0]), uint(data[1])
	data = data[2:]
	if ky > 63 || kx > 63 {
		return bad("Rice parameters %d and %d, at most 63", ky, kx)
	}
	if most := maxRows(len(data), ky, kx); n > most {
		return bad("count claims %d tuples, body can hold at most %d", n, most)
	}
	if uint64(cap(dst)) < n {
		dst = make([]core.Tuple, 0, n)
	}
	dst = dst[:0]
	r := bitReader{data: data}
	var y, xHi, xLo, c uint64
	for uint64(len(dst)) < n {
		gap, ok := r.rice(ky)
		if !ok {
			return bad("y gap at row %d runs past the bits or overflows 64 bits", len(dst))
		}
		x, ok := r.rice(kx)
		if !ok {
			return bad("x at row %d runs past the bits or overflows 64 bits", len(dst))
		}
		if gap > math.MaxUint64-y {
			return bad("y wraps at row %d", len(dst))
		}
		y += gap
		xLo, c = bits.Add64(xLo, x, 0)
		xHi += c
		dst = append(dst, core.Tuple{X: x, Y: y, W: 1})
	}
	if wy, wx := riceK(0, y, n), riceK(xHi, xLo, n); wy != ky || wx != kx { // the gaps add up to y
		return bad("Rice parameters %d and %d, the rows' means give %d and %d", ky, kx, wy, wx)
	}
	used := 8*uint64(r.pos) - uint64(r.n) // bits read
	end := (used + 7) / 8
	if used%8 != 0 && data[end-1]>>(used%8) != 0 {
		return bad("non-zero padding")
	}
	data = data[end:]
	if len(data) == 0 {
		return bad("no weight flag")
	}
	flag := data[0]
	data = data[1:]
	switch flag {
	case 0:
	case 1:
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
	default:
		return bad("unknown weight flag %d", flag)
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
