package sketch

import "unsafe"

// The loops over a dense CountSketch's counters, written once over the three
// widths a counter is stored at. Values cross these functions as int64: a
// store checks that the value survives the narrowing (int64(T(v)) == v, which
// is no test at all for int64) and otherwise reports where it stopped, so the
// caller can widen the array and resume. Nothing is ever truncated.

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

// addFrom is addInto from o's counters, whatever their width.
func addFrom[T ctr](dst []T, o *CountSketch, from int) int {
	switch o.cw {
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
