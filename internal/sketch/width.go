package sketch

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

// maxWidePool bounds each of a maker's two free lists of widened arrays, and
// maxNarrowPool the int8 list with the rest of maxPool. Separate bounds,
// rather than one on the total, keep a burst of recycled wide arrays from
// crowding out the narrow ones every promotion starts from.
const maxWidePool, maxNarrowPool = maxPool / 8, maxPool - 2*maxWidePool

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

// scatterPairs hashes the pairs of an items table into a dense array with
// m's row hashes, starting at row i of slot k. It returns tab.slots(), or the
// slot and row whose counter would not fit T, with everything before applied.
func scatterPairs[T ctr](m *F2Maker, data []T, tab table, k, i int) (int, int) {
	for n := tab.slots(); k < n; k, i = k+1, 0 {
		x, f := tab.pairAt(k)
		if f == 0 {
			continue
		}
		rows := m.slotsOf(x)[:m.depth]
		for ; i < len(rows); i++ {
			v := rows[i]
			idx := i*m.width + int(v>>1)
			nv := int64(data[idx]) + (int64(v&1)*2-1)*f
			if int64(T(nv)) != nv {
				return k, i
			}
			data[idx] = T(nv)
		}
	}
	return k, 0
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
		return addInto(dst, o.c8, from)
	case 2:
		return addInto(dst, o.wide.c16, from)
	default:
		return addInto(dst, o.wide.c64, from)
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

// widened copies src into the zeroed, wider dst and returns it.
func widened[T, U ctr](dst []T, src []U) []T {
	for j, v := range src {
		dst[j] = T(v)
	}
	return dst
}

// appendCounters appends every counter in index order as a varint.
func appendCounters[T ctr](buf []byte, data []T) []byte {
	for _, v := range data {
		buf = appendI64(buf, int64(v))
	}
	return buf
}

// takeArray returns a zeroed array of n counters or table words, pooled if
// there is one.
func takeArray[T any](pool *[][]T, n int) []T {
	k := len(*pool)
	if k == 0 {
		return make([]T, n)
	}
	a := (*pool)[k-1]
	(*pool)[k-1] = nil
	*pool = (*pool)[:k-1]
	return a
}

// putArray zeroes a and pools it, unless the list already holds limit.
func putArray[T any](pool *[][]T, a []T, limit int) {
	if len(*pool) < limit {
		clear(a)
		*pool = append(*pool, a)
	}
}

// release zeroes and pools the array cw names, leaving the sketch without one.
func (c *CountSketch) release() {
	m := c.maker
	m.held -= int(c.cw) * m.width * m.depth
	switch c.cw {
	case 1:
		putArray(&m.pool8, c.c8, maxNarrowPool)
		c.c8 = nil
	case 2:
		putArray(&m.pool16, c.wide.c16, maxWidePool)
		c.wide.c16 = nil
	case 8:
		putArray(&m.pool64, c.wide.c64, maxWidePool)
		c.wide.c64 = nil
	}
	c.cw = 0
}

// widen moves a dense sketch's counters to an array of the next stored
// width, the first time into a new wideCounters, and pools the one they leave.
func (c *CountSketch) widen() {
	m := c.maker
	switch c.cw {
	case 1:
		c.wide = new(wideCounters)
		m.headers += wideCountersBytes
		wider := widened(takeArray(&m.pool16, len(c.c8)), c.c8)
		c.release()
		c.wide.c16, c.cw = wider, 2
	case 2:
		wider := widened(takeArray(&m.pool64, len(c.wide.c16)), c.wide.c16)
		c.release()
		c.wide.c64, c.cw = wider, 8
	default:
		return
	}
	m.held += int(c.cw) * m.width * m.depth
}

// at returns dense counter j.
func (c *CountSketch) at(j int) int64 {
	switch c.cw {
	case 1:
		return int64(c.c8[j])
	case 2:
		return int64(c.wide.c16[j])
	default:
		return c.wide.c64[j]
	}
}

// put stores v in dense counter j, widening the array until v fits.
func (c *CountSketch) put(j int, v int64) {
	for !fits(c.cw, v) {
		c.widen()
	}
	switch c.cw {
	case 1:
		c.c8[j] = int8(v)
	case 2:
		c.wide.c16[j] = int16(v)
	default:
		c.wide.c64[j] = v
	}
}
