// Package bitcode is the bit coder of the log's sorted batches and of the
// sketches' packed runs: columns of unsigned integers, each written in the
// shorter of two codes, in one bitstream.
//
//	p        bits 0–5  k, the column's parameter, 0…63
//	         bit 6     0: the column is rice(v, k), 1: expgolomb(v, k)
//	         bit 7     the caller's
//
//	rice(v, k)       v>>k zero bits, a one bit, then the k low bits of v,
//	                 least significant first
//	expgolomb(v, k)  m zero bits, a one bit, then the m+k low bits of
//	                 v + 2^k, least significant first, where m + k + 1 is
//	                 the bit length of v + 2^k
//
// The bitstream is written least significant bit of each byte first and
// zero-padded to a byte.
//
// Each column takes the shorter of two codes, by the exact bit count of its
// values: a Golomb–Rice code (Golomb 1966; Rice 1979) at k = ⌊log2 mean⌋,
// 0 where the mean is below 1 (or there are no values), the sums taken in
// 128 bits; or an Exp-Golomb code (Teuhola 1978) at k = max(0, ⌊mean bit
// length⌋ − 1). A tie is Rice. Rice fits a column whose values crowd near
// their mean — uniform x, the gaps of uniform y — and since 2^k ≤ mean its
// quotients add up to at most count·mean/2^k < 2·count: however skewed the
// column, its unary bits stay under two a value. But on a skewed column
// (zipf x, the paper's packet sizes) the tail sets the mean, and every
// common small value pays Rice's k bits for it; Exp-Golomb's prefix grows
// with the logarithm of a value, so a small value costs little more than k
// bits and a tail value about twice its length. Exp-Golomb never wins at
// k = 63: that k needs every value 64 bits long, and each is then a bit
// shorter in Rice.
//
// A column's parameter byte comes from two passes over its values: the
// first sums them (Column), the second prices both codes at the k the sums
// give (Pricer); Param makes both over a column held in a slice.
package bitcode

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The bits of a parameter byte the coder reads.
const (
	KBits     = 0x3f // the column's k
	ExpGolomb = 0x40 // the column is Exp-Golomb-coded, else Rice
)

// Column sums what a column's parameters are set from: its values, in
// 128 bits, and their bit lengths.
type Column struct{ hi, lo, lens uint64 }

// Add counts v into the sums.
func (c *Column) Add(v uint64) {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, v, 0)
	c.hi += carry
	c.lens += uint64(bits.Len64(v))
}

// Ks are the column's parameters over n values: Rice's ⌊log2 mean⌋, 0
// where the mean is below 1, and Exp-Golomb's max(0, ⌊mean bit length⌋ −
// 1). Both are below 64; hi < n holds for any n values below 2^64.
func (c Column) Ks(n uint64) (rice, eg uint) {
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

// Pricer prices a column's two codes at the parameters its sums give, over
// a second pass of its values. Beyond 1+k bits a value, Rice spends the
// value's quotient by 2^k and Exp-Golomb twice its prefix.
type Pricer struct {
	n        uint64
	rice, eg uint
	q, m     uint64 // the quotients by 2^rice and the prefixes at eg so far
}

// Pricer returns the pricing pass of a column of n values with these sums.
func (c Column) Pricer(n uint64) Pricer {
	r, e := c.Ks(n)
	return Pricer{n: n, rice: r, eg: e}
}

// Add prices v.
func (p *Pricer) Add(v uint64) {
	p.q += v >> (p.rice & 63) // the masks tell the compiler k < 64
	p.m += egPrefix(v >> (p.eg & 63))
}

// Param is the parameter byte of the shorter code; a tie is Rice. The
// quotients add up to under 2n (2^r ≤ mean) and the prefixes to at most
// 64n: no sum overflows below 2^56 values.
func (p Pricer) Param() byte {
	if p.n*uint64(p.eg)+2*p.m < p.n*uint64(p.rice)+p.q {
		return byte(p.eg) | ExpGolomb
	}
	return byte(p.rice)
}

// Param is the parameter byte of the shorter code of the column vs: both
// passes over a column held whole.
func Param(vs []uint64) byte {
	var c Column
	for _, v := range vs {
		c.Add(v)
	}
	p := c.Pricer(uint64(len(vs)))
	for _, v := range vs {
		p.Add(v)
	}
	return p.Param()
}

// egPrefix is the length of the zero prefix of an Exp-Golomb code whose
// value's quotient by 2^k is q: ⌊log2(q+1)⌋, without q+1 overflowing.
func egPrefix(q uint64) uint64 { return uint64(bits.Len64(q>>1 + q&1)) }

// Describe names the code a parameter byte gives a column.
func Describe(p byte) string {
	if p&ExpGolomb != 0 {
		return fmt.Sprintf("Exp-Golomb k=%d", p&KBits)
	}
	return fmt.Sprintf("Rice k=%d", p&KBits)
}

// Writer appends a bitstream to a buffer, least significant bit first.
type Writer struct {
	buf []byte
	acc uint64 // bits not yet appended, the first at bit 0
	n   uint   // how many, below 64
}

// NewWriter returns a Writer appending to buf.
func NewWriter(buf []byte) Writer { return Writer{buf: buf} }

// write appends the n low bits of v (n ≤ 64, v < 2^n).
func (w *Writer) write(v uint64, n uint) {
	w.acc |= v << (w.n & 63)
	if w.n += n; w.n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.n -= 64
		w.acc = v >> (n - w.n) // what of v did not fit; 0 when all did
	}
}

// Code appends v in the code parameter byte p names, in one write when the
// code fits 64 bits. An Exp-Golomb code with prefix m has for its tail v
// less (2^m − 1)·2^k, the first value with that prefix; m + k ≤ 64.
func (w *Writer) Code(v uint64, p byte) {
	k := uint(p & KBits)
	if p&ExpGolomb == 0 {
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

// Bits returns how many bits have been written.
func (w *Writer) Bits() int { return 8*len(w.buf) + int(w.n) }

// Flush appends the bits pending, zero-padded to a byte, and returns the
// buffer.
func (w *Writer) Flush() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
	return w.buf
}

// Reader reads the bitstream a Writer writes from the front of data.
// Loading eight bytes at a time may put bits of the bytes from pos on into
// acc at and above n; they are the stream's own bits, only not yet
// counted, and a later load writes the same bits over them.
type Reader struct {
	data []byte
	pos  int    // the next byte to load
	acc  uint64 // loaded bits not yet read, the next at bit 0
	n    uint   // how many, below 64
}

// NewReader returns a Reader of the bitstream at the front of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Used returns how many bits have been read.
func (r *Reader) Used() uint64 { return 8*uint64(r.pos) - uint64(r.n) }

// refill loads bytes until at least 56 bits are loaded or data ends.
func (r *Reader) refill() {
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

// Pairs reads pairs of values, in the codes p and q name, into us and vs —
// as many as us holds: the rows of the log's sorted batch, the pairs of a
// sketch's packed run. ok is false when the stream ends inside a code or a
// value overflows 64 bits. A pair the bits loaded hold, as two short codes
// of columns that crowd near their means do, is read in place, the stream
// loaded at most once for it and the reader's state kept in registers
// across the pairs; any other is read a code at a time (code). A second
// code that is Rice at k = 0 and starts with a one bit is 0, one bit long,
// and is taken without decoding, so that the next pair's bits are known
// before it is: a packed run's weights are nearly all that code.
func (r *Reader) Pairs(p, q byte, us, vs []uint64) (ok bool) {
	vs = vs[:len(us)]
	data, pos, acc, n := r.data, r.pos, r.acc, r.n
	for i := range us {
		if n < 32 {
			if pos+8 <= len(data) {
				acc |= binary.LittleEndian.Uint64(data[pos:]) << (n & 63)
				pos += int(63-n) >> 3
				n |= 56
			} else {
				for ; n < 56 && pos < len(data); pos++ {
					acc |= uint64(data[pos]) << (n & 63)
					n += 8
				}
			}
		}
		u, l := decode(acc, p)
		t := acc >> (l & 63)
		v, m := uint64(0), uint(1)
		if q&(ExpGolomb|KBits) != 0 || t&1 == 0 {
			v, m = decode(t, q)
		}
		if l+m <= n {
			acc >>= (l + m) & 63
			n -= l + m
			us[i], vs[i] = u, v
			continue
		}
		r.pos, r.acc, r.n = pos, acc, n
		if us[i], ok = r.code(p); !ok {
			return false
		}
		if vs[i], ok = r.code(q); !ok {
			return false
		}
		pos, acc, n = r.pos, r.acc, r.n
	}
	r.pos, r.acc, r.n = pos, acc, n
	return true
}

// decode returns the value of the code p names at the bottom of acc, and
// the code's length, for the caller to hold against the bits loaded; past
// them, or at 64 bits or more, the value is garbage. Past
// its prefix of q zero bits and a one, a code has m more bits — k of
// Rice's, q+k of Exp-Golomb's — and its value is those bits plus the first
// value with its prefix, q·2^k for Rice and (2^q − 1)·2^k for Exp-Golomb.
func decode(acc uint64, p byte) (v uint64, l uint) {
	q := uint(bits.TrailingZeros64(acc))
	m := uint(p & KBits)
	first := uint64(q) << m
	if p&ExpGolomb != 0 {
		first = (1<<(q&63) - 1) << m
		m += q
	}
	return acc>>((q+1)&63)&(1<<(m&63)-1) + first, q + 1 + m
}

// code reads one value in the code p names, one the bits loaded may not
// hold: a code that runs beyond them, or one longer than 64 bits; ok is
// false when the stream ends inside it or its value overflows 64 bits.
func (r *Reader) code(p byte) (v uint64, ok bool) {
	r.refill()
	if v, l := decode(r.acc, p); l <= r.n {
		r.acc >>= l
		r.n -= l
		return v, true
	}
	k := uint(p & KBits)
	q, ok := r.unary()
	if !ok {
		return 0, false
	}
	if p&ExpGolomb == 0 {
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
func (r *Reader) unary() (q uint64, ok bool) {
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
func (r *Reader) bits(k uint) (v uint64, ok bool) {
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
