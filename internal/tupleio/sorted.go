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
//	         bit 6     0: the column is rice(v, k), 1: expgolomb(v, k)
//	         bit 7     p_y: 1 when weights follow (some weight is not 1);
//	                   p_x: 0
//
//	rice(v, k)       v>>k zero bits, a one bit, then the k low bits of v,
//	                 least significant first
//	expgolomb(v, k)  m zero bits, a one bit, then the m+k low bits of
//	                 v + 2^k, least significant first, where m + k + 1 is
//	                 the bit length of v + 2^k
//
// Each column takes the shorter of two codes, by the exact bit count of its
// values: a Golomb–Rice code (Golomb 1966; Rice 1979) at k = ⌊log2 mean⌋,
// 0 where the mean is below 1 (or there are no rows), the sums taken in 128
// bits; or an Exp-Golomb code (Teuhola 1978) at k = max(0, ⌊mean bit
// length⌋ − 1). A tie is Rice. Rice fits a column whose values crowd near
// their mean — uniform x, the gaps of uniform y — and since 2^k ≤ mean its
// quotients add up to at most count·mean/2^k < 2·count: however skewed the
// column, its unary bits stay under two a row. But on a skewed column (zipf
// x, the paper's packet sizes) the tail sets the mean, and every common
// small value pays Rice's k bits for it; Exp-Golomb's prefix grows with the
// logarithm of a value, so a small value costs little more than k bits and
// a tail value about twice its length. Exp-Golomb never wins at k = 63:
// that k needs every value 64 bits long, and each is then a bit shorter in
// Rice.
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
	"math/bits"

	"github.com/streamagg/correlated/internal/core"
)

// ErrUnsorted reports a batch handed to AppendSortedBatch that is not
// non-decreasing in y: the gap to the previous row would have wrapped.
var ErrUnsorted = errors.New("tupleio: batch is not sorted by y")

// The bits of a parameter byte.
const (
	kBits        = 0x3f // the column's k
	expGolombBit = 0x40 // the column is Exp-Golomb-coded, else Rice
	weightsBit   = 0x80 // in p_y: weights follow the bitstream
)

// column sums what a column's parameters are set from: its values, in
// 128 bits, and their bit lengths.
type column struct{ hi, lo, lens uint64 }

func (c *column) add(v uint64) {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, v, 0)
	c.hi += carry
	c.lens += uint64(bits.Len64(v))
}

// ks are the column's parameters over n values: Rice's ⌊log2 mean⌋, 0
// where the mean is below 1, and Exp-Golomb's max(0, ⌊mean bit length⌋ −
// 1). Both are below 64; hi < n holds for any n values below 2^64.
func (c column) ks(n uint64) (rice, eg uint) {
	if n == 0 {
		return 0, 0
	}
	if mean, _ := bits.Div64(c.hi, c.lo, n); mean > 0 {
		rice = uint(bits.Len64(mean) - 1)
	}
	if l := c.lens / n; l > 1 {
		eg = uint(l - 1)
	}
	return rice, eg
}

// params are the parameter bytes, less the weights bit, of a batch whose
// y gaps and x values the first pass summed up as y and x: each column's
// shorter code, priced exactly by a second pass over the rows. Beyond 1+k
// bits a value, Rice spends the value's quotient by 2^k and Exp-Golomb
// twice its prefix.
func params(batch []core.Tuple, y, x column) (py, px byte) {
	n := uint64(len(batch))
	ry, ey := y.ks(n)
	rx, ex := x.ks(n)
	var qy, my, qx, mx, prev uint64
	for i := range batch {
		gap, v := batch[i].Y-prev, batch[i].X
		prev = batch[i].Y
		qy += gap >> (ry & 63) // the masks tell the compiler k < 64
		my += egPrefix(gap >> (ey & 63))
		qx += v >> (rx & 63)
		mx += egPrefix(v >> (ex & 63))
	}
	return pick(n, ry, qy, ey, my), pick(n, rx, qx, ex, mx)
}

// pick is the parameter byte of the shorter code of a column of n values
// whose quotients by 2^r sum to q and whose prefixes at e sum to m; a tie
// is Rice. The quotients add up to under 2n (2^r ≤ mean) and the prefixes
// to at most 64n: no sum overflows below 2^56 rows.
func pick(n uint64, r uint, q uint64, e uint, m uint64) byte {
	if n*uint64(e)+2*m < n*uint64(r)+q {
		return byte(e) | expGolombBit
	}
	return byte(r)
}

// egPrefix is the length of the zero prefix of an Exp-Golomb code whose
// value's quotient by 2^k is q: ⌊log2(q+1)⌋, without q+1 overflowing.
func egPrefix(q uint64) uint64 { return uint64(bits.Len64(q>>1 + q&1)) }

// describe names the code a parameter byte gives a column.
func describe(p byte) string {
	if p&expGolombBit != 0 {
		return fmt.Sprintf("Exp-Golomb k=%d", p&kBits)
	}
	return fmt.Sprintf("Rice k=%d", p&kBits)
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
	var y, x column
	var prev uint64
	unit := true
	for i := range batch {
		t := &batch[i]
		if t.Y < prev {
			return buf, fmt.Errorf("%w: y = %d follows y = %d at row %d", ErrUnsorted, t.Y, prev, i)
		}
		y.add(t.Y - prev)
		x.add(t.X)
		prev = t.Y
		unit = unit && t.W <= 1
	}
	n := uint64(len(batch))
	py, px := params(batch, y, x)
	buf = AppendTenant(buf, tenant)
	buf = binary.AppendUvarint(buf, n)
	at := len(buf)
	w := bitWriter{buf: append(buf, py, px)}
	prev = 0
	for i := range batch {
		t := &batch[i]
		w.code(t.Y-prev, py)
		w.code(t.X, px)
		prev = t.Y
	}
	buf = w.flush()
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

// code appends v in the code parameter byte p names (k < 64), in one
// write when the code fits 64 bits. An Exp-Golomb code with prefix m has
// for its tail v less (2^m − 1)·2^k, the first value with that prefix;
// m + k ≤ 64.
func (w *bitWriter) code(v uint64, p byte) {
	k := uint(p & kBits)
	if p&expGolombBit == 0 {
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
		return
	}
	m := uint(egPrefix(v >> k))
	tail := v - (1<<m-1)<<k
	if l := 2*m + 1 + k; l <= 64 {
		w.write(tail<<(m+1)|1<<m, l)
		return
	}
	w.write(0, m)
	w.write(1, 1)
	w.write(tail, m+k)
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

// code reads one value in the code parameter byte p names; ok is false
// when the stream ends inside it or its value overflows 64 bits. A code
// the bits loaded hold is read in place.
func (r *bitReader) code(p byte) (v uint64, ok bool) {
	k := uint(p & kBits)
	r.refill()
	if q := uint(bits.TrailingZeros64(r.acc)); q < r.n {
		if p&expGolombBit == 0 {
			if l := q + 1 + k; l <= r.n {
				v = uint64(q)<<k | r.acc>>(q+1)&(1<<k-1)
				r.acc >>= l
				r.n -= l
				return v, true
			}
		} else if l := 2*q + 1 + k; l <= r.n {
			v = (r.acc>>(q+1)&(1<<(q+k)-1) | 1<<(q+k)) - 1<<k
			r.acc >>= l
			r.n -= l
			return v, true
		}
	}
	q, ok := r.unary()
	if !ok {
		return 0, false
	}
	if p&expGolombBit == 0 {
		if q>>(64-k) != 0 {
			return 0, false
		}
		v, ok = r.bits(k)
		return q<<k | v, ok
	}
	if q > uint64(64-k) {
		return 0, false
	}
	offset := (uint64(1)<<q - 1) << k
	if v, ok = r.bits(uint(q) + k); !ok || v > math.MaxUint64-offset {
		return 0, false
	}
	return v + offset, true
}

// unary reads zero bits up to a one bit and returns how many it read; ok
// is false when the stream ends first.
func (r *bitReader) unary() (q uint64, ok bool) {
	r.refill()
	for {
		if tz := uint(bits.TrailingZeros64(r.acc)); tz < r.n {
			r.acc >>= tz + 1
			r.n -= tz + 1
			return q + uint64(tz), true
		}
		if r.pos == len(r.data) {
			return 0, false
		}
		q += uint64(r.n)
		r.acc, r.n = 0, 0
		r.refill()
	}
}

// bits reads k bits (k ≤ 64), the first at bit 0 of v; ok is false when
// the stream ends first.
func (r *bitReader) bits(k uint) (v uint64, ok bool) {
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
	return v, true
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
		return bad("no parameter bytes")
	}
	py, px := data[0], data[1]
	data = data[2:]
	if px&weightsBit != 0 {
		return bad("x's parameter byte %#02x sets the undefined bit 7", px)
	}
	if most := maxRows(len(data), uint(py&kBits), uint(px&kBits)); n > most {
		return bad("count claims %d tuples, body can hold at most %d", n, most)
	}
	if uint64(cap(dst)) < n {
		dst = make([]core.Tuple, 0, n)
	}
	dst = dst[:0]
	r := bitReader{data: data}
	var y uint64
	var ys, xs column
	for uint64(len(dst)) < n {
		gap, ok := r.code(py)
		if !ok {
			return bad("y gap at row %d runs past the bits or overflows 64 bits", len(dst))
		}
		x, ok := r.code(px)
		if !ok {
			return bad("x at row %d runs past the bits or overflows 64 bits", len(dst))
		}
		if gap > math.MaxUint64-y {
			return bad("y wraps at row %d", len(dst))
		}
		y += gap
		ys.add(gap)
		xs.add(x)
		dst = append(dst, core.Tuple{X: x, Y: y, W: 1})
	}
	if wy, wx := params(dst, ys, xs); wy != py&^weightsBit || wx != px {
		return bad("y and x coded %s and %s, the rows give %s and %s", describe(py), describe(px), describe(wy), describe(wx))
	}
	used := 8*uint64(r.pos) - uint64(r.n) // bits read
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
