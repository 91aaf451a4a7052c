package core

import "math/bits"

// ymap is the singleton level's index: each stored singleton's y and its
// sketch's handle, in a table of linear probes over a power of two of slots.
// A handle is never 0, so 0 marks an empty slot, and a deletion shifts the
// rest of its probe run back rather than leaving a tombstone. The table
// doubles at three quarters full and, like a Go map, never shrinks; unlike
// one, its slots say exactly what it keeps on the heap (bytes), which
// Footprint charges. The zero value is an empty map.
type ymap struct {
	ys    []uint64
	hs    []uint32
	n     int
	shift uint8 // 64 − log2(slots): home's multiply-shift
}

// home returns the slot y hashes to: a Fibonacci multiplicative hash's top
// bits.
func (m *ymap) home(y uint64) int { return int(y * 0x9E3779B97F4A7C15 >> m.shift) }

// find returns y's slot, or the empty slot where y belongs. The table holds
// at least one empty slot.
func (m *ymap) find(y uint64) int {
	mask := len(m.hs) - 1
	j := m.home(y)
	for m.hs[j] != 0 && m.ys[j] != y {
		j = (j + 1) & mask
	}
	return j
}

// get returns y's handle, 0 for none.
func (m *ymap) get(y uint64) uint32 {
	if m.n == 0 {
		return 0
	}
	return m.hs[m.find(y)]
}

// set stores h, never 0, as y's handle.
func (m *ymap) set(y uint64, h uint32) {
	if (m.n+1)*4 > len(m.hs)*3 {
		m.grow()
	}
	j := m.find(y)
	if m.hs[j] == 0 {
		m.n++
	}
	m.ys[j], m.hs[j] = y, h
}

// grow doubles the table, eight slots at first, and puts every entry back.
func (m *ymap) grow() {
	ys, hs := m.ys, m.hs
	slots := max(8, 2*len(hs))
	m.ys, m.hs = make([]uint64, slots), make([]uint32, slots)
	m.shift = uint8(65 - bits.Len(uint(slots)))
	for j, h := range hs {
		if h != 0 {
			k := m.find(ys[j])
			m.ys[k], m.hs[k] = ys[j], h
		}
	}
}

// del removes y, if stored, shifting back every later entry of its probe run
// that would otherwise be cut off from its home slot.
func (m *ymap) del(y uint64) {
	if m.n == 0 {
		return
	}
	j := m.find(y)
	if m.hs[j] == 0 {
		return
	}
	mask := len(m.hs) - 1
	for k := (j + 1) & mask; m.hs[k] != 0; k = (k + 1) & mask {
		// Entry k may fill the hole unless its home lies cyclically in (j, k].
		if (k-m.home(m.ys[k]))&mask >= (k-j)&mask {
			m.ys[j], m.hs[j] = m.ys[k], m.hs[k]
			j = k
		}
	}
	m.ys[j], m.hs[j] = 0, 0
	m.n--
}

// each calls fn for every entry, in slot order. fn must not change the map.
func (m *ymap) each(fn func(y uint64, h uint32)) {
	for j, h := range m.hs {
		if h != 0 {
			fn(m.ys[j], h)
		}
	}
}

// bytes is what the table keeps on the heap: a y and a handle a slot.
func (m *ymap) bytes() int64 { return 8*int64(cap(m.ys)) + 4*int64(cap(m.hs)) }
