package sketch

import (
	"bytes"
	"cmp"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/streamagg/correlated/internal/hash"
)

// span is a run of an arena's words: where it starts and how many bytes.
type span struct {
	at   uintptr
	size int
}

// checkArena fails unless a's lists are what its chunks hold: every listed
// run lies in a chunk between its guard words, is on the list of its class at
// the place its first and last words name, and is zero between them; the
// guard words are zero; and no two runs overlap or touch, since a block
// handed back joins the free runs beside it. mapped is the chunks, and lists
// the heap bytes behind the lists. It returns the free runs, ordered by
// address, and their bytes.
func checkArena(t testing.TB, step string, a *arena) (runs []span, free int) {
	t.Helper()
	mapped := 0
	for _, c := range a.chunks {
		mapped += len(c)
		if w := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(c))), len(c)/8); w[0] != 0 || w[len(w)-1] != 0 {
			t.Fatalf("%s: a chunk's guard words read %#x and %#x", step, w[0], w[len(w)-1])
		}
	}
	if a.mapped != mapped {
		t.Fatalf("%s: the arena counts %d mapped bytes, its chunks are %d", step, a.mapped, mapped)
	}
	lists := 24*cap(a.runs) + 8*cap(a.holds)
	for k, l := range a.runs {
		lists += 8 * cap(l)
		if (len(l) > 0) != (a.holds[k>>6]&(1<<(k&63)) != 0) {
			t.Fatalf("%s: class %d holds %d runs, its bit reads otherwise", step, k, len(l))
		}
		for i, p := range l {
			g := runLen(p)
			if g == 0 || runClass(g) != k || !in(a.chunks, uintptr(p), int(8*g)) {
				t.Fatalf("%s: run %d of class %d at %p is marked %d words long", step, i, k, p, g)
			}
			w := unsafe.Slice((*uint64)(p), g)
			if w[0] != g<<32|uint64(i) || w[g-1] != w[0] {
				t.Fatalf("%s: run %d of class %d at %p: %d words, marked %#x … %#x", step, i, k, p, g, w[0], w[g-1])
			}
			for j := 1; j+1 < len(w); j++ {
				if w[j] != 0 {
					t.Fatalf("%s: a free run of %d words is dirty", step, g)
				}
			}
			runs = append(runs, span{uintptr(p), int(8 * g)})
			free += int(8 * g)
		}
	}
	if a.lists != lists {
		t.Fatalf("%s: the arena counts %d bytes of lists, they take %d", step, a.lists, lists)
	}
	slices.SortFunc(runs, func(x, y span) int { return cmp.Compare(x.at, y.at) })
	for i := 1; i < len(runs); i++ {
		if runs[i-1].at+uintptr(runs[i-1].size) >= runs[i].at {
			t.Fatalf("%s: free runs at %#x (%d bytes) and %#x touch", step, runs[i-1].at, runs[i-1].size, runs[i].at)
		}
	}
	return runs, free
}

// in reports whether size bytes at p lie in one of the chunks, between its
// guard words.
func in(chunks [][]byte, p uintptr, size int) bool {
	for _, c := range chunks {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(c))) + guards/2
		if p%8 == 0 && p >= lo && p+uintptr(size) <= lo+uintptr(len(c)-guards) {
			return true
		}
	}
	return false
}

// checkHeld fails unless the held blocks — start and bytes asked — lie in
// a's chunks, overlap no free run and no other block, and add up with the
// free runs and the guard words to exactly what a maps: held and pooled
// bytes are the arena. It returns the free runs, ordered by address.
func checkHeld(t testing.TB, step string, a *arena, held []span) []span {
	t.Helper()
	runs, free := checkArena(t, step, a)
	all, asked, words := slices.Clone(runs), 0, 0
	for _, b := range held {
		if !in(a.chunks, b.at, b.size) {
			t.Fatalf("%s: a held block of %d bytes at %#x is not in a chunk", step, b.size, b.at)
		}
		all = append(all, span{b.at, roundUp(b.size, 8)})
		asked += b.size
		words += roundUp(b.size, 8)
	}
	slices.SortFunc(all, func(x, y span) int { return cmp.Compare(x.at, y.at) })
	for i := 1; i < len(all); i++ {
		if all[i-1].at+uintptr(all[i-1].size) > all[i].at {
			t.Fatalf("%s: blocks or runs at %#x (%d bytes) and %#x overlap", step, all[i-1].at, all[i-1].size, all[i].at)
		}
	}
	if a.asked != asked || a.mapped != words+free+guards*len(a.chunks) || a.pooled() != a.mapped-asked {
		t.Fatalf("%s: the arena counts %d asked of %d mapped, %d pooled; the blocks held were asked %d and take %d, the free runs %d, the guards %d",
			step, a.asked, a.mapped, a.pooled(), asked, words, free, guards*len(a.chunks))
	}
	return runs
}

// TestArenaClasses: a run's class is its length's own up to 2 KiB, and
// above it one of sixteen to each power of two, in order of length, so the
// runs of a class are within a sixteenth of one another.
func TestArenaClasses(t *testing.T) {
	lo := map[int]uint64{}
	prev := -1
	for g := uint64(1); g <= 1<<16; g++ {
		k := runClass(g)
		if k < prev || k > prev+1 {
			t.Fatalf("%d words are class %d, %d words class %d", g, k, g-1, prev)
		}
		if g <= exactRuns && k != int(g)-1 {
			t.Fatalf("%d words are class %d, want a class of their own", g, k)
		}
		if _, ok := lo[k]; !ok {
			lo[k] = g
		}
		if g > exactRuns && (g-lo[k])*16 >= lo[k] {
			t.Fatalf("class %d holds runs of %d and %d words", k, lo[k], g)
		}
		prev = k
	}
	if k := runClass(1<<32 - 1); k > 700 {
		t.Fatalf("the longest run a word can name is class %d", k)
	}
}

// TestArenaTakesTheSmallestRunThatFits: with runs of several lengths up to
// 2 KiB free, a request takes the shortest one it fits, leaves the rest of it
// free, and a block handed back joins the runs on both sides of it.
func TestArenaTakesTheSmallestRunThatFits(t *testing.T) {
	a := newArena()
	// Blocks of 40, 16, 24, 8, 64 and 400 bytes, then the end of the chunk;
	// freeing every other one leaves runs of 40, 24 and 64 bytes between
	// held ones.
	sizes := []int{40, 16, 24, 8, 64, 400}
	var ps []unsafe.Pointer
	for _, n := range sizes {
		ps = append(ps, a.take(n))
	}
	for _, i := range []int{0, 2, 4} {
		a.putZeroed(ps[i], sizes[i])
	}
	held := func(is ...int) (out []span) {
		for _, i := range is {
			out = append(out, span{uintptr(ps[i]), sizes[i]})
		}
		return out
	}
	checkHeld(t, "three freed", a, held(1, 3, 5))
	for _, c := range []struct {
		n    int
		from int // the block whose run the request must take
	}{{24, 2}, {41, 4}, {33, 0}} {
		p := a.take(c.n)
		if p != ps[c.from] {
			t.Fatalf("%d bytes took %p, want the %d-byte run at %p", c.n, p, sizes[c.from], ps[c.from])
		}
		a.putZeroed(p, c.n)
	}
	// The 16-byte block between the 40- and 24-byte runs joins both.
	a.putZeroed(ps[1], sizes[1])
	runs, _ := checkArena(t, "joined", a)
	if runs[0].at != uintptr(ps[0]) || runs[0].size != 80 {
		t.Fatalf("the first run is %d bytes at %#x, want 80 at %p", runs[0].size, runs[0].at, ps[0])
	}
	for _, i := range []int{3, 5} {
		a.putZeroed(ps[i], sizes[i])
	}
	if runs, free := checkArena(t, "all back", a); len(runs) != 1 || free != a.mapped-guards {
		t.Fatalf("with every block back the chunk is %d runs of %d bytes", len(runs), free)
	}
}

// TestArenaFitsPastTheExactClasses: past 2 KiB a request takes a run of the
// first class whose every run fits it, and looks through its own class only
// when no class above holds a run, before it maps a chunk.
func TestArenaFitsPastTheExactClasses(t *testing.T) {
	// In one chunk, runs of 280 (class exactRuns) and 300 words (the next)
	// between held blocks, and the chunk's tail held, so nothing else is free.
	a := newArena()
	words := []int{280, 1, 300, 1}
	var ps []unsafe.Pointer
	for _, w := range words {
		ps = append(ps, a.take(8*w))
	}
	a.take(a.mapped - guards - 8*582) // no class above its own holds a run: the fallback
	if a.mapped != firstChunk {
		t.Fatalf("the chunk's tail mapped %d bytes", a.mapped)
	}
	a.putZeroed(ps[0], 8*280)
	a.putZeroed(ps[2], 8*300)
	for _, c := range []struct {
		words, from int // the block whose run the request must take
	}{
		{272, 0}, // its class's shortest length: any run of the class fits
		{275, 2}, // not the shortest: the class above, though the 280 fits
		{290, 2}, // nothing above its class: its own, looked through
	} {
		p := a.take(8 * c.words)
		if p != ps[c.from] {
			t.Fatalf("%d words took %p, want the %d-word run at %p", c.words, p, words[c.from], ps[c.from])
		}
		a.putZeroed(p, 8*c.words)
	}
	held := a.take(8 * 300)
	if held != ps[2] {
		t.Fatalf("300 words took %p, want the run at %p", held, ps[2])
	}
	if p := a.take(8 * 281); a.mapped == firstChunk || p == ps[0] {
		t.Fatalf("281 words took %p with a 280-word run free and %d bytes mapped", p, a.mapped)
	}
}

// TestArenaListsShrink: a class's list keeps room for the most runs it has
// held only until it falls under a quarter full, when it halves and the
// arena's books fall by the bytes it lets go; one of listFloor runs' room or
// less never shrinks, and a list that loses a run and gets it back, as a
// query's composition makes it, allocates nothing.
func TestArenaListsShrink(t *testing.T) {
	a := newArena()
	var runs []unsafe.Pointer
	for range 200 {
		runs = append(runs, a.take(16))
		a.take(8) // held between, so that the runs stay apart
	}
	for _, p := range runs {
		a.putZeroed(p, 16)
	}
	k := runClass(2)
	checkArena(t, "200 runs of two words", a)
	halved := 0
	for len(a.runs[k]) > 0 {
		c, lists := cap(a.runs[k]), a.lists
		a.take(16)
		want := c
		if l := len(a.runs[k]); c > listFloor && l < c/4 {
			want = c / 2
			halved++
		}
		if got := cap(a.runs[k]); got != want || a.lists != lists-8*(c-want) {
			t.Fatalf("%d runs left: the list's room went from %d to %d runs and the books from %d to %d bytes; want %d runs, %d bytes",
				len(a.runs[k]), c, got, lists, a.lists, want, lists-8*(c-want))
		}
		if len(a.runs[k]) == 20 {
			if allocs := testing.AllocsPerRun(100, func() { a.putZeroed(a.take(16), 16) }); allocs != 0 {
				t.Fatalf("a run taken and given back allocates %.0f times", allocs)
			}
		}
	}
	if halved < 2 || cap(a.runs[k]) > listFloor {
		t.Fatalf("the list halved %d times, to room for %d runs", halved, cap(a.runs[k]))
	}
	checkArena(t, "every run taken", a)
}

// TestArenaKeepsRoomForAQuery: once an arena keeps room for a query, a
// shorter request does not cut the last free run that holds it below that
// length, but maps a chunk, unless it is a composition's; one that leaves
// the room, or asks for at least as much, takes the run as any other.
func TestArenaKeepsRoomForAQuery(t *testing.T) {
	for _, c := range []struct {
		name  string
		words int  // asked for from the first chunk's 1021-word run, keeping 900
		query bool // asked by a composition
		maps  bool
	}{
		{"cut below the room", 200, false, true},
		{"cut below the room by a composition", 200, true, false},
		{"cut and leave the room", 100, false, false},
		{"ask for the room and more", 950, false, false},
	} {
		a := newArena()
		a.keep = 900
		a.take(8) // the first chunk, 1021 words free after it
		a.query = c.query
		if runs, _ := checkArena(t, c.name, a); len(runs) != 1 || runs[0].size != 8*1021 {
			t.Fatalf("%s: free runs %v, want one of 1021 words", c.name, runs)
		}
		a.take(8 * c.words)
		if mapped := a.mapped > firstChunk; mapped != c.maps {
			t.Fatalf("%s: mapped %d bytes, a chunk more: %v", c.name, a.mapped, mapped)
		}
		runs, _ := checkArena(t, c.name, a)
		if c.maps && runs[0].size != 8*1021 && runs[1].size != 8*1021 {
			t.Fatalf("%s: the kept run went: free runs %v", c.name, runs)
		}
		a.unmap()
	}
}

// TestComposeTakesTheKeptRun: a query's composition, widening to int64 over
// parts that need it, takes its blocks from the run the arena keeps for it,
// though ingest has left no other free run, and maps nothing.
func TestComposeTakesTheKeptRun(t *testing.T) {
	m := NewF2Maker(356, 4, hash.New(7))
	var parts []Sketch
	for i := range 3 {
		c := m.New().(*CountSketch)
		for x := range m.itemsMax + 1 {
			c.Add(uint64(1000*i+x), 1<<20) // dense, at int64
		}
		parts = append(parts, c)
	}
	// Hold every free run, as take would, but the last keep words of the
	// longest, which stay free.
	a := m.arena
	var longest unsafe.Pointer
	for _, l := range a.runs {
		for _, p := range l {
			if longest == nil || runLen(p) > runLen(longest) {
				longest = p
			}
		}
	}
	long := runLen(longest)
	if long < a.keep {
		t.Fatalf("the arena keeps %d words for a query, its longest run is %d", a.keep, long)
	}
	for k := range a.runs {
		for len(a.runs[k]) > 0 {
			p := a.runs[k][0]
			g := runLen(p)
			a.unlist(k, 0)
			*(*uint64)(p), *(*uint64)(unsafe.Add(p, 8*g-8)) = 0, 0
			a.asked += 8 * int(g)
		}
	}
	a.asked -= 8 * int(a.keep)
	a.list(unsafe.Add(longest, 8*(long-a.keep)), a.keep)
	if runs, _ := checkArena(t, "one run kept", a); len(runs) != 1 {
		t.Fatalf("%d free runs, want the one kept", len(runs))
	}
	mapped := m.ArenaBytes()
	m.Recycle(Compose(m, parts))
	if m.ArenaBytes() != mapped {
		t.Fatalf("the composition mapped %d bytes beside the %d kept for it", m.ArenaBytes()-mapped, 8*a.keep)
	}
}

// FuzzArena drives an arena with takes and puts drawn from the fuzz bytes and
// holds it to a model of the blocks out after every operation: no two blocks
// held overlap, every take is zeroed, the blocks held, the free runs and the
// guard words are exactly what it maps, and once every block is back each
// chunk is one free run. The blocks held are filled with words that look like
// a free run's first and last words, so a neighbour is believed free only
// when its list says so.
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 0, 1, 1, 0, 0, 9, 1, 1})
	f.Add([]byte{0, 200, 0, 200, 0, 200, 1, 1, 0, 40, 1, 0, 0, 255, 0, 255})
	f.Add([]byte{2, 2, 0, 7, 0, 7, 0, 7, 0, 7, 1, 0, 1, 1, 1, 0, 0, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := newArena()
		type block struct {
			p unsafe.Pointer
			n int
		}
		var held []block
		spans := func() (out []span) {
			for _, b := range held {
				out = append(out, span{uintptr(b.p), b.n})
			}
			return out
		}
		for len(data) >= 2 {
			op, arg := data[0], int(data[1])
			data = data[2:]
			switch op % 3 {
			case 0, 2: // take: up to 2 KiB in words and bytes, or past ownBlock
				n := 1 + arg*8 + int(op>>2)%8
				if op%3 == 2 {
					n = ownBlock + 1 + arg*64
				}
				p := a.take(n)
				b := unsafe.Slice((*byte)(p), n)
				if !bytes.Equal(b, make([]byte, n)) {
					t.Fatalf("a take of %d bytes is dirty", n)
				}
				w := unsafe.Slice((*uint64)(p), n/8)
				for i := range w {
					w[i] = uint64(1+i%3)<<32 | uint64(i%2) // a run's marks, as a neighbour might read them
				}
				held = append(held, block{p, n})
			case 1: // put the arg-th block held
				if len(held) == 0 {
					continue
				}
				i := arg % len(held)
				a.putZeroed(held[i].p, held[i].n)
				held = slices.Delete(held, i, i+1)
			}
			checkHeld(t, "step", a, spans())
		}
		for _, b := range held {
			a.putZeroed(b.p, b.n)
		}
		if runs, _ := checkArena(t, "all back", a); len(runs) != len(a.chunks) {
			t.Fatalf("with every block back %d chunks hold %d free runs", len(a.chunks), len(runs))
		}
		a.unmap()
	})
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
	_, free := checkArena(t, "filled", m.arena)
	t.Logf("%d sketches hold %d bytes in %d mapped (%d in free runs)", len(out), m.HeldBytes(), m.ArenaBytes(), free)
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
	checkBooks(t, "after the collections", kept[0].maker, kept)
}

// TestRecycleReturnsStorageToTheArena: a burst of freed sketches — one group
// can evict hundreds of buckets — hands every array and table back to the
// arena, zeroed, where they join into one free run a chunk, and every
// struct's slot back to the maker's slab; the same burst again takes them
// back and maps nothing more.
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
	// Every block came back, and joined its neighbours: each chunk is one
	// free run again.
	checkBooks(t, "after the burst", m, nil)
	if runs, _ := checkArena(t, "after the burst", m.arena); len(runs) != len(m.arena.chunks) {
		t.Fatalf("with every block back %d chunks hold %d free runs", len(m.arena.chunks), len(runs))
	}
	mapped := m.ArenaBytes()
	burst()
	checkBooks(t, "after the second burst", m, nil)
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
	checkBooks(t, "after Free and Recycle", m.csMaker, nil)
}
