package sketch

import (
	"encoding/binary"
	"unsafe"
)

// The loops over a dense CountSketch's counters, written once over the three
// widths a counter is stored at. Values cross these functions as int64: a
// store checks that the value survives the narrowing (int64(T(v)) == v, which
// is no test at all for int64) and otherwise reports where it stopped, so the
// caller can widen the array and resume. Nothing is ever truncated. A closed
// bucket's array is read, never written, in a fourth form, packed (see
// packArray), whose loops close the file.

// ctr is a stored counter width.
type ctr interface{ int8 | int16 | int64 }

// fits reports whether v survives being stored at cw bytes.
func fits(cw uint8, v int64) bool {
	spare := 64 - 8*uint(cw)
	return v<<spare>>spare == v
}

// addRows adds ±w (the sign is the slot's low bit) to one counter in each of
// rows[from:] and keeps the rows' sums of squares current. It returns
// len(rows), or the first row whose counter would not fit T, with the rows
// before it applied. It is the innermost loop of the core structure's ingest
// path.
func addRows[T ctr](data []T, rowF2 []float64, rows Slots, w int64, width, from int) int {
	w2 := float64(w) * float64(w)
	base := from * width
	for i := from; i < len(rows); i++ {
		v := rows[i]
		idx := base + int(v>>1)
		old := int64(data[idx])
		delta := (int64(v&1)*2 - 1) * w
		nv := old + delta
		if int64(T(nv)) != nv {
			return i
		}
		data[idx] = T(nv)
		// (old+delta)^2 - old^2 = 2*old*delta + delta^2, and delta^2 = w^2.
		// The product is taken in floating point — as an integer it wraps
		// once |old·w| reaches 2^62 — and rounded on its own, so no platform
		// fuses it with the addition.
		rowF2[i] += float64(2*float64(old)*float64(delta)) + w2
		base += width
	}
	return len(rows)
}

// scatterPairs hashes pairs xs[j], fs[j] (a weight as its bits) into a
// dense array with m's row hashes, starting at row i of pair j. It returns
// len(xs), or the pair and row whose counter would not fit T, with
// everything before applied.
func scatterPairs[T ctr](m *F2Maker, data []T, xs, fs []uint64, j, i int) (int, int) {
	for ; j < len(xs); j, i = j+1, 0 {
		if i = scatterRows(data, m.slotsOf(xs[j])[:m.depth], int64(fs[j]), m.width, i); i < m.depth {
			return j, i
		}
	}
	return j, 0
}

// scatterRows adds ±f (the sign is the slot's low bit) to one counter in
// each of rows[from:] of a dense array. It returns len(rows), or the first
// row whose counter would not fit T, with the rows before it applied.
func scatterRows[T ctr](data []T, rows Slots, f int64, width, from int) int {
	for i := from; i < len(rows); i++ {
		v := rows[i]
		idx := i*width + int(v>>1)
		nv := int64(data[idx]) + (int64(v&1)*2-1)*f
		if int64(T(nv)) != nv {
			return i
		}
		data[idx] = T(nv)
	}
	return len(rows)
}

// addInto adds src[from:] to dst[from:] index by index. It returns len(dst),
// or the first index whose sum would not fit T, with those before it added.
func addInto[T, U ctr](dst []T, src []U, from int) int {
	for j := from; j < len(dst); j++ {
		nv := int64(dst[j]) + int64(src[j])
		if int64(T(nv)) != nv {
			return j
		}
		dst[j] = T(nv)
	}
	return len(dst)
}

// addFrom is addInto from o's counters, whatever their width or form.
func addFrom[T ctr](dst []T, o *CountSketch, from int) int {
	switch o.cw {
	case 0:
		return addPacked(dst, o, from)
	case 1:
		return addInto(dst, countersOf[int8](o), from)
	case 2:
		return addInto(dst, countersOf[int16](o), from)
	default:
		return addInto(dst, countersOf[int64](o), from)
	}
}

// sumRows sets each rowF2 entry to the sum, in index order, of the squares
// of that row's counters.
func sumRows[T ctr](data []T, rowF2 []float64) {
	w := len(data) / len(rowF2)
	for i := range rowF2 {
		var f2 float64
		for _, v := range data[i*w : (i+1)*w] {
			f2 += float64(v) * float64(v)
		}
		rowF2[i] = f2
	}
}

// widened copies src into the zeroed, wider dst.
func widened[T, U ctr](dst []T, src []U) {
	for j, v := range src {
		dst[j] = T(v)
	}
}

// appendCounters appends every counter in index order as a varint.
func appendCounters[T ctr](buf []byte, data []T) []byte {
	for _, v := range data {
		buf = appendI64(buf, int64(v))
	}
	return buf
}

// widen moves a dense sketch to a block of the next stored width — its row
// sums copied, its counters widened — and hands back the one it leaves. At
// int64 there is no next width, and nothing to do.
func (c *CountSketch) widen() {
	m := c.maker
	var p unsafe.Pointer
	var cw uint8
	switch c.cw {
	case 1:
		p, cw = m.arena.take(m.denseBytes(2)), 2
		widened(countersAt[int16](m, p), countersOf[int8](c))
	case 2:
		p, cw = m.arena.take(m.denseBytes(8)), 8
		widened(countersAt[int64](m, p), countersOf[int16](c))
	default:
		return
	}
	copy(unsafe.Slice((*float64)(p), m.depth), c.rowF2())
	m.arena.putZeroed(c.p, m.denseBytes(c.cw))
	c.p, c.cw = p, cw
}

// at returns dense counter j.
func (c *CountSketch) at(j int) int64 {
	switch c.cw {
	case 0:
		nib, list, _ := c.frame()
		e := escapes{list: list}
		e.seek(j)
		return e.value(nib, j)
	case 1:
		return int64(countersOf[int8](c)[j])
	case 2:
		return int64(countersOf[int16](c)[j])
	default:
		return countersOf[int64](c)[j]
	}
}

// put stores v in dense counter j, widening the array until v fits.
func (c *CountSketch) put(j int, v int64) {
	for !fits(c.cw, v) {
		c.widen()
	}
	switch c.cw {
	case 1:
		countersOf[int8](c)[j] = int8(v)
	case 2:
		countersOf[int16](c)[j] = int16(v)
	default:
		countersOf[int64](c)[j] = v
	}
}

// A closed bucket's array is never written by ingest again, so Compact packs
// it — a fixed-width frame with patched exceptions, in the style of PFOR
// (Zukowski, Héman, Nes & Boncz, ICDE 2006) — into one block:
//
//	rowF2       d float64s, as ever: Estimate and ThresholdBudget read them
//	nibbles     ⌈d·w/2⌉ bytes, counter j in byte j/2, the low nibble for an
//	            even j: zigzag(v) for −7 ≤ v ≤ 7, else escape (15)
//	uvarint(len(list))
//	list        for each escaped counter, in index order:
//	            uvarint(j − the escaped index before it − 1, from −1)
//	            uvarint(zigzag(v))
//
// where zigzag(v) is 2v for v ≥ 0 and −2v − 1 below, so any geometry and any
// int64 fits. The sketch says so by cw 0. A packed array is read from its
// nibbles, an escape taking the list's next entry — the gaps let a read from
// index j skip the entries before it (seek) — and the first write to one
// unpacks it into a plain array at the width its counters need (unpack). A
// packed array is in memory only: an image holds the counters as ever.

// escape is the nibble of a counter that the exception list holds.
const escape = 15

// nibbleValue is the counter a nibble other than escape holds.
var nibbleValue = [16]int8{0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6, -7, 7, 0}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// nibbleBytes returns the bytes of a packed array's nibbles.
func (m *F2Maker) nibbleBytes() int { return (m.depth*m.width + 1) / 2 }

// packArray re-encodes a dense sketch's plain array as a packed one and hands
// back the block it leaves, unless the packed one would take no fewer bytes
// than the plain array at the width its counters need — which is what a
// restored copy holds, so the choice does not depend on the array's history.
func (c *CountSketch) packArray() {
	m := c.maker
	var buf []byte
	var need uint8
	switch c.cw {
	case 1:
		buf, need = appendFrame(m.runScratch[:0], countersOf[int8](c))
	case 2:
		buf, need = appendFrame(m.runScratch[:0], countersOf[int16](c))
	default:
		buf, need = appendFrame(m.runScratch[:0], countersOf[int64](c))
	}
	m.runScratch = buf
	rows, nib := 8*m.depth, m.nibbleBytes()
	list := len(buf) - nib
	size := rows + nib + uvarintLen(uint64(list)) + list
	if size >= m.denseBytes(need) {
		return
	}
	p := m.arena.take(size)
	block := unsafe.Slice((*byte)(p), size)
	k := copy(block, unsafe.Slice((*byte)(c.p), rows))
	k += copy(block[k:], buf[:nib])
	k += binary.PutUvarint(block[k:], uint64(list))
	copy(block[k:], buf[nib:])
	m.release(c.p, c.Bytes())
	c.p, c.cw = p, 0
}

// appendFrame appends a packed array's nibbles, then its exception list, of
// the counters in data to buf, and returns it with the bytes a counter the
// widest of them needs.
func appendFrame[T ctr](buf []byte, data []T) ([]byte, uint8) {
	buf = append(buf, make([]byte, (len(data)+1)/2)...)
	next, need := 0, uint8(1)
	for j, v := range data {
		z := zigzag(int64(v))
		if z >= escape {
			buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(j-next)), z)
			z, next = escape, j+1
			switch {
			case !fits(2, int64(v)):
				need = 8
			case !fits(1, int64(v)):
				need = max(need, 2)
			}
		}
		buf[j>>1] |= byte(z) << (j & 1 * 4)
	}
	return buf, need
}

// uvarintLen returns the bytes of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// uvarintAt reads the uvarint at p, which the sketch's own code wrote there,
// and returns it and its bytes.
func uvarintAt(p unsafe.Pointer) (v, k int) {
	for shift := 0; ; shift += 7 {
		b := *(*byte)(unsafe.Add(p, k))
		k++
		if v |= int(b&0x7f) << shift; b < 0x80 {
			return v, k
		}
	}
}

// frame returns a packed array's nibbles and exception list, and the bytes of
// its block.
func (c *CountSketch) frame() (nib, list []byte, size int) {
	m := c.maker
	at := unsafe.Add(c.p, 8*m.depth)
	nib = unsafe.Slice((*byte)(at), m.nibbleBytes())
	n, k := uvarintAt(unsafe.Add(at, len(nib)))
	list = unsafe.Slice((*byte)(unsafe.Add(at, len(nib)+k)), n)
	return nib, list, 8*m.depth + len(nib) + k + n
}

// escapes reads a packed array's exception list in index order.
type escapes struct {
	list []byte // the entries not yet read
	next int    // one past the index of the last entry read
}

// read returns the next entry: its counter's index and value. packArray wrote
// every entry, so none runs past the list or overflows.
func (e *escapes) read() (j int, v int64) {
	gap, k := binary.Uvarint(e.list)
	z, n := binary.Uvarint(e.list[k:])
	e.list = e.list[k+n:]
	j = e.next + int(gap)
	e.next = j + 1
	return j, unzigzag(z)
}

// seek passes over the entries of the counters before index j.
func (e *escapes) seek(j int) {
	for len(e.list) > 0 {
		at := *e
		if i, _ := e.read(); i >= j {
			*e = at
			return
		}
	}
}

// value returns counter j of a packed array with nibbles nib: its nibble's, or
// the list's next entry's, which must be j's.
func (e *escapes) value(nib []byte, j int) int64 {
	if z := nib[j>>1] >> (j & 1 * 4) & 15; z != escape {
		return int64(nibbleValue[z])
	}
	_, v := e.read()
	return v
}

// addPacked is addInto from a packed array's counters: two a byte while
// neither escapes and both sums fit, else one at a time.
func addPacked[T ctr](dst []T, o *CountSketch, from int) int {
	nib, list, _ := o.frame()
	e := escapes{list: list}
	e.seek(from)
	j, n := from, len(dst)
	for {
		for ; j&1 == 0 && j+1 < n; j += 2 {
			b := nib[j>>1]
			if b&15 == escape || b>>4 == escape {
				break
			}
			lo, hi := int64(dst[j])+int64(nibbleValue[b&15]), int64(dst[j+1])+int64(nibbleValue[b>>4])
			if int64(T(lo)) != lo || int64(T(hi)) != hi {
				break
			}
			dst[j], dst[j+1] = T(lo), T(hi)
		}
		if j == n {
			return n
		}
		v := int64(dst[j]) + e.value(nib, j)
		if int64(T(v)) != v {
			return j
		}
		dst[j] = T(v)
		j++
	}
}

// appendPacked appends a packed array's counters in index order as varints,
// as appendCounters does a plain array's.
func appendPacked(buf []byte, c *CountSketch) []byte {
	nib, list, _ := c.frame()
	e := escapes{list: list}
	for j := range c.maker.depth * c.maker.width {
		buf = appendI64(buf, e.value(nib, j))
	}
	return buf
}

// unpack moves a packed array to a plain one at the width its counters need,
// the row sums as they were, and hands back the packed block: the first step
// of any write to it.
func (c *CountSketch) unpack() {
	m := c.maker
	packed := *c
	c.p, c.cw = m.arena.take(m.denseBytes(1)), 1
	copy(c.rowF2(), packed.rowF2())
	c.addCounters(&packed)
	m.release(packed.p, packed.Bytes())
}
