package sketch

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/streamagg/correlated/internal/hash"
)

// checkArena fails unless m's arena is what its chunks and free lists hold:
// every free block lies in a chunk and is zero but for the word that links it,
// the free blocks add up to idle, the chunks to mapped, and mapped is the
// blocks out at their class sizes, the free ones, the end of the last chunk
// and the ends stranded before it. PooledBytes' arena half is mapped less what
// the blocks out were asked for. It returns the free blocks of each class.
func checkArena(t *testing.T, step string, m *F2Maker) map[int]int {
	t.Helper()
	a := m.arena
	in := func(p unsafe.Pointer, size int) bool {
		for _, c := range a.chunks {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
			if uintptr(p) >= lo && uintptr(p)+uintptr(size) <= lo+uintptr(len(c)) {
				return true
			}
		}
		return false
	}
	free, idle := map[int]int{}, 0
	for k, l := range a.free {
		for p := l.head; p != nil; p = *(*unsafe.Pointer)(p) {
			if !in(p, l.size) || uintptr(p)%8 != 0 {
				t.Fatalf("%s: a free block of class %d, %d bytes, at %p is not an aligned block of a chunk", step, k, l.size, p)
			}
			if b := unsafe.Slice((*byte)(p), l.size); !bytes.Equal(b[8:], zeros[:l.size-8]) {
				t.Fatalf("%s: a free block of class %d, %d bytes, is dirty", step, k, l.size)
			}
			free[k]++
			idle += l.size
		}
	}
	mapped := 0
	for _, c := range a.chunks {
		mapped += len(c)
	}
	if a.idle != idle || a.mapped != mapped || mapped != a.used+a.idle+len(a.rest)+a.stranded {
		t.Fatalf("%s: the arena counts %d free and %d mapped bytes, %d out, %d at the end of its chunk, %d stranded; its lists hold %d and its chunks %d",
			step, a.idle, a.mapped, a.used, len(a.rest), a.stranded, idle, mapped)
	}
	if pooled, _ := m.PooledBytes(); pooled != mapped-m.HeldBytes() || m.ArenaBytes() != mapped || a.used < a.asked {
		t.Fatalf("%s: PooledBytes %d, ArenaBytes %d, HeldBytes %d over %d mapped, %d out at class sizes",
			step, pooled, m.ArenaBytes(), m.HeldBytes(), mapped, a.used)
	}
	return free
}

// TestArenaClasses: a block's class is at least what was asked, at most an
// eighth more past 128 bytes (and then whole pages once it is a mapping of its
// own), always the same size for one class and one class for one size; the
// sizes the maker names are classes of their own, rounded by nothing.
func TestArenaClasses(t *testing.T) {
	a := newArena(1424, 2848, 11392, 32, 40000)
	sizeOf, classOf := map[int]int{}, map[int]int{}
	for n := 1; n <= 70_000; n++ {
		k, size := a.class(n)
		limit := max(roundUp(n, 8), roundUp(n, 8)*9/8)
		if size > ownBlock {
			limit = roundUp(limit, pageSize)
		}
		if size < n || size > limit || size%8 != 0 {
			t.Fatalf("%d bytes take a %d-byte block of class %d, want %d to %d", n, size, k, n, limit)
		}
		if s, ok := sizeOf[k]; ok && s != size {
			t.Fatalf("class %d holds %d-byte and %d-byte blocks", k, s, size)
		}
		sizeOf[k] = size
		if c, ok := classOf[size]; ok && c != k && k >= len(a.exact) && c >= len(a.exact) {
			// Two classes past ownBlock can round to the same pages; below it
			// one size is one class.
			if size <= ownBlock {
				t.Fatalf("%d-byte blocks are in classes %d and %d", size, c, k)
			}
		}
		classOf[size] = k
	}
	for i, n := range []int{1424, 2848, 11392, 32} {
		if k, size := a.class(n); k != i || size != n {
			t.Fatalf("the named size %d is class %d of %d bytes, want class %d of its own size", n, k, size, i)
		}
	}
	if _, size := a.class(40000); size != roundUp(40000, pageSize) {
		t.Fatalf("a named size past ownBlock takes %d bytes, want whole pages", size)
	}
}

// TestArenaMapsAsSketchesFill: a maker maps nothing until a sketch takes a
// table, then more as its sketches fill — chunk by chunk, everything it maps
// on the process's count — and its books stay a walk of its blocks.
func TestArenaMapsAsSketchesFill(t *testing.T) {
	before := settledMapped() // earlier tests' arenas go back before the loop, not inside it
	m := NewF2Maker(356, 4, hash.New(3))
	var out []*CountSketch
	for i := 0; i < 4; i++ {
		h := m.Alloc()
		out = append(out, m.At(h).(*CountSketch))
	}
	if m.ArenaBytes() != 0 || mappedBytes.Load() != before {
		t.Fatalf("empty sketches mapped %d bytes", m.ArenaBytes())
	}
	last := 0
	rose := 0
	for i := 0; i < 600; i++ {
		c := m.At(m.Alloc()).(*CountSketch)
		out = append(out, c)
		for x := 0; x < 20+i%400; x++ {
			c.Add(uint64(i*7919+x), int64(1+x%3))
		}
		if i%3 == 0 {
			c.Compact()
		}
		if got := m.ArenaBytes(); got < last {
			t.Fatalf("sketch %d: the arena went from %d to %d bytes", i, last, got)
		} else if got > last {
			rose++
			last = got
		}
		if got := mappedBytes.Load() - before; got != int64(last) {
			t.Fatalf("sketch %d: the process counts %d mapped bytes, the arena %d", i, got, last)
		}
	}
	checkBooks(t, "filled", m, out)
	if rose < 10 || m.HeldBytes() < last/2 {
		t.Fatalf("the arena grew %d times to %d bytes for %d held", rose, last, m.HeldBytes())
	}
	t.Logf("%d sketches hold %d bytes in %d mapped (%d stranded, %d at the end of the last chunk)",
		len(out), m.HeldBytes(), m.ArenaBytes(), m.arena.stranded, len(m.arena.rest))
}

// settledMapped collects until the process's mapped count stops moving: what
// earlier tests dropped is given back first.
func settledMapped() int64 {
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		cur := mappedBytes.Load()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestArenaGoesBackWithItsMaker: once nothing reaches a maker — its slab's
// sketches point back to it, so the maker and its sketches go together — the
// collector finalizes its arena and every byte it mapped goes back to the
// kernel.
func TestArenaGoesBackWithItsMaker(t *testing.T) {
	start := settledMapped()
	mapped := func() int {
		m := NewF2Maker(356, 4, hash.New(4))
		for i := 0; i < 300; i++ {
			c := m.At(m.Alloc()).(*CountSketch)
			for x := 0; x < 5+i; x++ {
				c.Add(uint64(x), 1)
			}
		}
		q := m.New()
		q.Add(1, 1)
		return m.ArenaBytes()
	}()
	if mapped == 0 || mappedBytes.Load() < start+int64(mapped) {
		t.Fatalf("the maker mapped %d bytes, the process counts %d more", mapped, mappedBytes.Load()-start)
	}
	deadline := time.Now().Add(5 * time.Second)
	// Below the start is fine too: an arena an earlier test dropped may be
	// finalized late.
	for mappedBytes.Load() > start && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := mappedBytes.Load(); got > start {
		t.Fatalf("after the maker was dropped the process maps %d bytes, %d before it", got, start)
	}
}

// TestSketchOutlivesItsMaker: a sketch kept after every other reference to its
// maker is gone keeps the maker, and with it the arena its counters are in: it
// answers and encodes as it did, and takes more updates.
func TestSketchOutlivesItsMaker(t *testing.T) {
	kept := func() []*CountSketch {
		m := NewF2Maker(64, 4, hash.New(6))
		items, dense, wide := m.At(m.Alloc()).(*CountSketch), m.New().(*CountSketch), m.At(m.Alloc()).(*CountSketch)
		for x := uint64(0); x < 20; x++ {
			items.Add(x, 2)
		}
		for x := uint64(0); x < 200; x++ {
			dense.Add(x, 1)
			wide.Add(x, 1<<20)
		}
		if items.dense || !dense.dense || wide.cw != 8 {
			t.Fatalf("setup: items dense=%v, dense dense=%v, wide at %d bytes a counter", items.dense, dense.dense, wide.cw)
		}
		return []*CountSketch{items, dense, wide}
	}()
	type answer struct {
		est, item float64
		img       []byte
	}
	answers := func() (out []answer) {
		for _, c := range kept {
			img, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{c.Estimate(), c.EstimateItem(7), img})
		}
		return out
	}
	want := answers()
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	for i, got := range answers() {
		if got.est != want[i].est || got.item != want[i].item || !bytes.Equal(got.img, want[i].img) {
			t.Fatalf("sketch %d answers %v, %v after the collections, %v, %v before", i, got.est, got.item, want[i].est, want[i].item)
		}
	}
	for _, c := range kept {
		c.Add(1_000_000, 5)
	}
	checkArena(t, "after the collections", kept[0].maker)
}

// TestRecycleReturnsStorageToTheArena: a burst of freed sketches — one group
// can evict hundreds of buckets — hands every array and table back to the
// arena, zeroed, and every struct's slot back to the maker's slab; the same
// burst again takes them back and maps nothing more.
func TestRecycleReturnsStorageToTheArena(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(5))
	burst := func() {
		var handles []uint32
		for i := 0; i < 300; i++ {
			h, k := m.Alloc(), m.Alloc()
			handles = append(handles, h, k)
			c, d := m.At(h).(*CountSketch), m.At(k).(*CountSketch)
			c.Add(uint64(i), 3)
			for x := 0; x <= m.itemsMax; x++ {
				d.Add(uint64(x), int64(1+i%5))
			}
			if !d.dense || d.cw != 1 || c.dense || c.Bytes() != 32 {
				t.Fatalf("sketch %d: dense=%v at %d bytes a counter, items dense=%v in %d bytes", i, d.dense, d.cw, c.dense, c.Bytes())
			}
		}
		for _, h := range handles {
			m.Free(h)
		}
	}
	burst()
	if m.slab.Live() != 0 || m.slab.Spare() < 600 || m.HeldBytes() != 0 {
		t.Fatalf("after the burst the slab holds %d sketches and %d spare slots, the sketches %d bytes", m.slab.Live(), m.slab.Spare(), m.HeldBytes())
	}
	free := checkArena(t, "after the burst", m)
	array, _ := m.arena.class(m.denseBytes(1))
	first, _ := m.arena.class(32)
	if free[array] < 300 || free[first] < 300 {
		t.Fatalf("the arena's lists hold %d int8 arrays and %d first tables, want at least 300 of each", free[array], free[first])
	}
	mapped := m.ArenaBytes()
	burst()
	checkArena(t, "after the second burst", m)
	if m.ArenaBytes() != mapped {
		t.Fatalf("the same burst again mapped %d bytes more", m.ArenaBytes()-mapped)
	}
}

// TestFkGivesItsLevelsBack: the level sketches of an Fk hold blocks of its
// CountSketch maker's arena, and Free and Recycle hand every one back, so
// with no Fk out the CountSketch maker's books read nothing held.
func TestFkGivesItsLevelsBack(t *testing.T) {
	m := NewFkMaker(3, 8, 16, 64, 3, hash.New(8))
	h := m.Alloc()
	slab, scratch := m.At(h), m.New()
	for x := uint64(0); x < 500; x++ {
		slab.Add(x, 1)
		scratch.Add(x%50, 2)
	}
	if m.csMaker.HeldBytes() == 0 {
		t.Fatal("setup: the level sketches hold nothing")
	}
	m.Free(h)
	m.Recycle(scratch)
	if held, headers := m.csMaker.HeldBytes(), m.csMaker.HeaderBytes(); held != 0 || headers != 0 {
		t.Fatalf("with no Fk out the CountSketch maker holds %d bytes and %d of headers", held, headers)
	}
	checkArena(t, "after Free and Recycle", m.csMaker)
}
