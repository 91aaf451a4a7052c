package sketch

import (
	"testing"

	"github.com/streamagg/correlated/internal/hash"
)

// TestRecycleReturnsStorageWhenThePoolIsFull: a burst of freed sketches larger
// than the maker's lists — one group can evict hundreds of buckets — still
// hands every array and table back to the lists, up to their own bounds,
// zeroed, and every struct's slot back to the maker's slab.
func TestRecycleReturnsStorageWhenThePoolIsFull(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(5))
	const burst = maxPool + 50
	var handles []uint32
	for i := 0; i < burst; i++ {
		h, k := m.Alloc(), m.Alloc()
		handles = append(handles, h, k)
		c, d := m.At(h).(*CountSketch), m.At(k).(*CountSketch)
		c.Add(uint64(i), 3)
		for x := 0; x <= m.itemsMax; x++ {
			d.Add(uint64(x), int64(1+i%5))
		}
		if !d.dense || d.cw != 1 || c.dense || len(c.tab) != 4 {
			t.Fatalf("sketch %d: dense=%v at %d bytes a counter, items dense=%v in %d words", i, d.dense, d.cw, c.dense, len(c.tab))
		}
	}
	clear(m.tables) // what the promotions' growth steps left: the burst alone is under test
	spare := m.slab.Spare()
	for _, h := range handles {
		m.Free(h)
	}
	if m.slab.Spare() != spare+2*burst || m.slab.Live() != 0 || len(m.tables[0]) != maxTablePool || len(m.pool8) != maxNarrowPool {
		t.Fatalf("the slab holds %d sketches and %d spare slots, the lists %d first tables and %d int8 arrays; want 0, %d, %d and %d",
			m.slab.Live(), m.slab.Spare(), len(m.tables[0]), len(m.pool8), spare+2*burst, maxTablePool, maxNarrowPool)
	}
	for _, tab := range m.tables[0] {
		for _, w := range tab {
			if w != 0 {
				t.Fatalf("a pooled table holds %#x", w)
			}
		}
	}
	for _, a := range m.pool8 {
		for _, v := range a {
			if v != 0 {
				t.Fatalf("a pooled array holds %d", v)
			}
		}
	}
	held, bound := m.PooledBytes()
	if want := maxTablePool*4*8 + (maxNarrowPool)*m.width*m.depth + m.slab.Spare()*countSketchBytes; held != want || held > bound {
		t.Fatalf("PooledBytes = %d of at most %d, want %d", held, bound, want)
	}
	// The bound is every list full.
	for k := range m.tables {
		for len(m.tables[k]) < maxTablePool {
			m.putTable(make([]uint64, 4<<k))
		}
		m.putTable(make([]uint64, 4<<k)) // one too many: dropped
	}
	for i := 0; i < maxPool; i++ {
		putArray(&m.pool8, make([]int8, m.width*m.depth), maxNarrowPool)
		putArray(&m.pool16, make([]int16, m.width*m.depth), maxWidePool)
		putArray(&m.pool64, make([]int64, m.width*m.depth), maxWidePool)
	}
	if held, bound := m.PooledBytes(); held != bound {
		t.Fatalf("PooledBytes = %d with every list full, bound %d", held, bound)
	}
}
