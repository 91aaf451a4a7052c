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
// A block's size is rounded up to a size class: eight-byte steps up to 128
// bytes, eight steps to each power of two above, and one class of its own
// for each size the maker names (its dense blocks at each counter width),
// which the geometric steps would round by up to an eighth.
// A block handed back goes, zeroed, to its class's free list, linked through
// its first word, and the next block of that class is taken from there; a
// class no block is ever wanted in again keeps what it has. A block larger
// than ownBlock is a mapping of its own. The arena belongs to its maker and
// to one goroutine at a time, the one driving the maker's sketches, and its
// mappings go back to the kernel when the collector finds the arena
// unreachable: a finalizer on the arena, never on the maker, which its slab's
// sketches point back to.
type arena struct {
	chunks [][]byte // every mapping, for the finalizer
	rest   []byte   // the unused end of the last chunk
	next   int      // the size of the next chunk

	exact []int      // the sizes with classes of their own, classes 0..len-1
	free  []freeList // by class

	mapped   int // Σ len(chunks)
	asked    int // bytes the blocks held were asked for
	used     int // the class sizes of the blocks held
	idle     int // the class sizes of the free blocks
	stranded int // chunk ends too short for the block that opened the next chunk
}

// freeList is the free blocks of one size class, linked through their first
// word.
type freeList struct {
	head unsafe.Pointer
	size int
}

const (
	firstChunk = 8 << 10  // a maker's first chunk: a small summary maps little
	lastChunk  = 64 << 10 // chunks double up to this
	ownBlock   = 16 << 10 // a block past this is a mapping of its own
)

// mappedBytes is what every arena of the process has mapped and not yet
// unmapped, dead makers' arenas awaiting their finalizer included.
var mappedBytes atomic.Int64

// newArena returns an empty arena that maps nothing until its first block.
// The sizes, in bytes, get classes of their own.
func newArena(sizes ...int) *arena {
	a := &arena{next: firstChunk}
	for _, n := range sizes {
		if n = roundUp(n, 8); n > 0 && !slices.Contains(a.exact, n) {
			a.exact = append(a.exact, n)
		}
	}
	runtime.SetFinalizer(a, (*arena).unmap)
	return a
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// class returns the size class of an n-byte block and the bytes a block of
// it takes.
func (a *arena) class(n int) (k, size int) {
	n = roundUp(n, 8)
	for k, e := range a.exact {
		if e == n {
			return k, a.own(e)
		}
	}
	k = len(a.exact)
	if n <= 128 {
		return k + n/8 - 1, n
	}
	e := bits.Len(uint(n - 1)) // 2^(e-1) < n <= 2^e
	step := 1 << (e - 4)
	size = roundUp(n, step)
	return k + 16 + (e-8)*8 + (size-1<<(e-1))/step - 1, a.own(size)
}

// own rounds a block that is a mapping of its own up to whole pages.
func (a *arena) own(size int) int {
	if size > ownBlock {
		return roundUp(size, pageSize)
	}
	return size
}

// take returns a zeroed block of at least n > 0 bytes, eight-byte aligned.
func (a *arena) take(n int) unsafe.Pointer {
	k, size := a.class(n)
	a.asked += n
	a.used += size
	if k < len(a.free) && a.free[k].head != nil {
		p := a.free[k].head
		a.free[k].head = *(*unsafe.Pointer)(p)
		*(*unsafe.Pointer)(p) = nil
		a.idle -= size
		return p
	}
	if size > ownBlock {
		return unsafe.Pointer(unsafe.SliceData(a.mapChunk(size)))
	}
	if size > len(a.rest) {
		a.stranded += len(a.rest)
		a.rest = a.mapChunk(max(a.next, roundUp(size, pageSize)))
		a.next = min(2*a.next, lastChunk)
	}
	p := unsafe.Pointer(unsafe.SliceData(a.rest))
	a.rest = a.rest[size:]
	return p
}

// put takes back the block at p that take returned for n bytes. The caller
// has zeroed its n bytes and drops every view of it.
func (a *arena) put(p unsafe.Pointer, n int) {
	k, size := a.class(n)
	a.asked -= n
	a.used -= size
	a.idle += size
	if k >= len(a.free) {
		a.free = append(a.free, make([]freeList, k+1-len(a.free))...)
	}
	l := &a.free[k]
	*(*unsafe.Pointer)(p) = l.head
	l.head, l.size = p, size
}

// mapChunk maps n more bytes.
func (a *arena) mapChunk(n int) []byte {
	b := mapBytes(n)
	a.chunks = append(a.chunks, b)
	a.mapped += len(b)
	mappedBytes.Add(int64(len(b)))
	return b
}

// pooled returns the bytes the arena maps beyond what its blocks were asked
// for: free blocks, chunk ends and the rounding of held blocks to their class.
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
