package sketch

import (
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"
)

// An arena is where an F2Maker's sketches keep their counters: every items
// table, and every dense sketch's row sums and counters, is a block of it.
// The blocks hold no pointers the collector needs to follow, so they live
// outside the collected heap — on unix in anonymous mappings taken from the
// kernel a chunk at a time — and the collector neither traces them nor paces
// itself by them: its headroom is charged on the tree nodes and sketch
// structs around the counters, not on the counters.
//
// It is a good-fit allocator in the style of TLSF (Masmano et al. 2004),
// over eight-byte words. What a chunk does not hold in blocks is free runs,
// each on the list of its class: one class for each length up to 2 KiB, and
// sixteen to each power of two above. A request takes a free run of the
// first non-empty class, found in a bitmap, from the first class whose every
// run fits it — its own up to 2 KiB, and past that the next one unless it is
// its class's shortest length — and what it leaves of the run stays free.
// Only when no such class holds a run does it look through its own class for
// one long enough, before it maps a chunk. Once its owner names the bytes a
// query's composition can hold at once (keep), a shorter request that is not
// a composition's does not cut the last free run that holds them below that
// length: it maps a chunk instead, so that a query finds room in the runs
// ingest left, however finely ingest cut the rest, and gives back what it
// took. A block handed back joins the free
// runs beside it in its chunk, so a chunk whose blocks have all come back is
// one free run again and serves a request of any size. No block carries a
// header: the caller names the size it asked for when it hands the block
// back. A free run is zero but for its first and last words, which both hold
// its length and its place on its class's list; a neighbour is known to be
// free when the list entry that word names is that very run. Each chunk
// starts and ends with a zero word that no run covers, so the word before a
// block and the word after it can always be read.
//
// A block past ownBlock takes a chunk sized to it, and chunks are never
// unmapped while the arena lives. The arena belongs to its maker and to one
// goroutine at a time, the one driving the maker's sketches, and its mappings
// go back to the kernel when the collector finds the arena unreachable: a
// finalizer on the arena, never on the maker, which its slab's sketches point
// back to.
type arena struct {
	chunks [][]byte // every mapping, for the finalizer
	next   int      // the size of the next chunk

	runs  [][]unsafe.Pointer // the free runs, by class
	holds []uint64           // bit k is set when runs[k] is not empty

	mapped int    // Σ len(chunks)
	asked  int    // bytes the blocks held were asked for
	lists  int    // the heap bytes behind runs and holds
	keep   uint64 // words a free run is kept for, 0 for none
	query  bool   // a composition is taking blocks, and may cut the kept run
}

const (
	firstChunk = 8 << 10  // a maker's first chunk: a small summary maps little
	lastChunk  = 64 << 10 // chunks double up to this
	ownBlock   = 16 << 10 // a block past this takes a chunk sized to it

	exactRuns = 256 // runs of up to this many words have a class of their own
	guards    = 16  // the zero words at either end of a chunk
	listFloor = 16  // runs a list keeps room for whatever it falls to
)

// mappedBytes is what every arena of the process has mapped and not yet
// unmapped, dead makers' arenas awaiting their finalizer included.
var mappedBytes atomic.Int64

// newArena returns an empty arena that maps nothing until its first block.
func newArena() *arena {
	a := &arena{next: firstChunk}
	runtime.SetFinalizer(a, (*arena).unmap)
	return a
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// runClass returns the class of a free run of g > 0 words: g − 1 up to
// exactRuns, then sixteen classes to each power of two, in order of length.
func runClass(g uint64) int {
	if g <= exactRuns {
		return int(g) - 1
	}
	e := bits.Len64(g) - 1 // 2^e <= g < 2^(e+1), e >= 8
	return exactRuns + (e-8)*16 + int((g-1<<e)>>(e-4))
}

// take returns a zeroed block of at least n > 0 bytes, eight-byte aligned.
func (a *arena) take(n int) unsafe.Pointer {
	g := uint64(n+7) / 8
	a.asked += n
	p, size := a.fit(g)
	if p == nil {
		p, size = a.mapChunk(g)
	}
	*(*uint64)(p) = 0
	if size > g {
		a.list(unsafe.Add(p, 8*g), size-g) // its last word is the run's last already
	} else {
		*(*uint64)(unsafe.Add(p, 8*g-8)) = 0
	}
	return p
}

// fit takes off its list a free run of at least g words, and returns it and
// its length; nil when there is none. It searches from the first class whose
// every run fits — g's own when g is its class's shortest length, else the
// next — and takes the last run of the first class that holds one. Only when
// there is none does it look in g's own class for a run long enough.
func (a *arena) fit(g uint64) (unsafe.Pointer, uint64) {
	own := runClass(g)
	k := own
	if g > exactRuns && runClass(g-1) == own {
		k++
	}
	i := -1
	if k = a.firstRun(k); k >= 0 {
		i = len(a.runs[k]) - 1
	} else if k = own; k < len(a.runs) {
		i = slices.IndexFunc(a.runs[k], func(p unsafe.Pointer) bool { return runLen(p) >= g })
	}
	if i < 0 {
		return nil, 0
	}
	p := a.runs[k][i]
	if !a.query && g < a.keep && runLen(p) >= a.keep && runLen(p)-g < a.keep && len(a.runs[k]) == 1 && a.firstRun(k+1) < 0 {
		return nil, 0 // the last run that holds what a query needs, cut below it
	}
	a.unlist(k, i)
	return p, runLen(p)
}

// firstRun returns the first class from k on that holds a free run, or −1.
func (a *arena) firstRun(k int) int {
	for w := k >> 6; w < len(a.holds); w++ {
		b := a.holds[w]
		if w == k>>6 {
			b &= ^uint64(0) << (k & 63)
		}
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// runLen returns the length in words of the free run at p.
func runLen(p unsafe.Pointer) uint64 { return *(*uint64)(p) >> 32 }

// list puts the g-word run at p on its class's list and writes its first and
// last words. The words between are zero.
func (a *arena) list(p unsafe.Pointer, g uint64) {
	k := runClass(g)
	if k >= len(a.runs) {
		a.lists -= 24*cap(a.runs) + 8*cap(a.holds)
		a.runs = append(a.runs, make([][]unsafe.Pointer, k+1-len(a.runs))...)
		a.holds = append(a.holds, make([]uint64, (k>>6)+1-len(a.holds))...)
		a.lists += 24*cap(a.runs) + 8*cap(a.holds)
	}
	c := cap(a.runs[k])
	a.runs[k] = append(a.runs[k], p)
	a.lists += 8 * (cap(a.runs[k]) - c)
	a.holds[k>>6] |= 1 << (k & 63)
	a.mark(p, g, len(a.runs[k])-1)
}

// mark writes a free run's first and last words: its length and its place on
// its class's list.
func (a *arena) mark(p unsafe.Pointer, g uint64, i int) {
	w := g<<32 | uint64(i)
	*(*uint64)(p) = w
	*(*uint64)(unsafe.Add(p, 8*g-8)) = w
}

// unlist takes the i-th run of class k off its list, moving the last one into
// its place. The run's own words are the caller's to clear. A list of more
// than listFloor runs' capacity left under a quarter full goes down to half,
// so what the lists hold follows the runs free now, not the most a class
// ever had; a list that shrinks and grows again by a few runs, as a query's
// composition makes it, allocates nothing, and neither does one that never
// held more than listFloor runs, whatever ingest takes from it and gives
// back.
func (a *arena) unlist(k, i int) {
	l := a.runs[k]
	last := len(l) - 1
	if i != last {
		l[i] = l[last]
		a.mark(l[i], runLen(l[i]), i)
	}
	if l = l[:last]; cap(l) > listFloor && len(l) < cap(l)/4 {
		a.lists -= 8 * (cap(l) - cap(l)/2)
		l = append(make([]unsafe.Pointer, 0, cap(l)/2), l...)
	}
	a.runs[k] = l
	if len(l) == 0 {
		a.holds[k>>6] &^= 1 << (k & 63)
	}
}

// freeAt reports whether the word at p is the first or the last word of a
// free run: its length, that run's first word, and its class and place.
// The word at p is read whatever it holds; it is believed only when the list
// it names holds a run at the place it names that starts where it says.
func (a *arena) freeAt(p unsafe.Pointer, last bool) (start unsafe.Pointer, g uint64, k, i int) {
	w := *(*uint64)(p)
	if g = w >> 32; g == 0 {
		return nil, 0, 0, 0
	}
	k, i = runClass(g), int(uint32(w))
	at := uintptr(p)
	if last {
		at -= uintptr(8*g - 8)
	}
	if k >= len(a.runs) || i >= len(a.runs[k]) || uintptr(a.runs[k][i]) != at || runLen(a.runs[k][i]) != g {
		return nil, 0, 0, 0
	}
	return a.runs[k][i], g, k, i
}

// put takes back the block at p that take returned for n bytes. The caller
// has zeroed its n bytes and drops every view of it. The block joins the free
// runs on either side of it.
func (a *arena) put(p unsafe.Pointer, n int) {
	g := uint64(n+7) / 8
	a.asked -= n
	if q, r, k, i := a.freeAt(unsafe.Add(p, 8*g), false); q != nil {
		a.unlist(k, i)
		*(*uint64)(q) = 0
		g += r
	}
	if q, r, k, i := a.freeAt(unsafe.Add(p, -8), true); q != nil {
		a.unlist(k, i)
		*(*uint64)(unsafe.Add(p, -8)) = 0
		p, g = q, g+r
	}
	a.list(p, g)
}

// mapChunk maps a chunk for a block of g words — the next chunk of the
// doubling, or one sized to the block past ownBlock — and returns its free
// run, which take splits.
func (a *arena) mapChunk(g uint64) (unsafe.Pointer, uint64) {
	need := int(8*g) + guards
	size := roundUp(need, pageSize)
	if int(8*g) <= ownBlock {
		size = max(a.next, size)
		a.next = min(2*a.next, lastChunk)
	}
	b := mapBytes(size)
	a.chunks = append(a.chunks, b)
	a.mapped += len(b)
	mappedBytes.Add(int64(len(b)))
	return unsafe.Pointer(&b[guards/2]), uint64(len(b)-guards) / 8
}

// settle lays the arena out as its chunks alone say, when no block is held:
// each chunk one free run, listed in the order the chunks were mapped, on
// lists no longer than that. What the lists kept of the runs a class had
// free before goes with them, so an arena every block has come back to
// places its next blocks as any other with those chunks would.
func (a *arena) settle() {
	if a.asked != 0 {
		return
	}
	a.runs, a.holds, a.lists = nil, nil, 0
	for _, b := range a.chunks {
		a.list(unsafe.Pointer(&b[guards/2]), uint64(len(b)-guards)/8)
	}
}

// pooled returns the bytes the arena maps beyond what its blocks were asked
// for: free runs, the guard words and the rounding of held blocks to words.
func (a *arena) pooled() int { return a.mapped - a.asked }

// unmap gives every mapping back. It is the arena's finalizer: nothing can
// reach a block any more.
func (a *arena) unmap() {
	for _, b := range a.chunks {
		mappedBytes.Add(-int64(len(b)))
		unmapBytes(b)
	}
	*a = arena{}
}

// takeWords returns a zeroed block of n words, nil for none.
func (a *arena) takeWords(n int) unsafe.Pointer {
	if n == 0 {
		return nil
	}
	return a.take(8 * n)
}

// putZeroed zeroes the n-byte block at p and hands it back. Every view of it
// is dead from here on.
func (a *arena) putZeroed(p unsafe.Pointer, n int) {
	clear(unsafe.Slice((*byte)(p), n))
	a.put(p, n)
}
