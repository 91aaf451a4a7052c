package core

import (
	"unsafe"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/sketch"
)

// LevelOccupancy is what one level of a Summary holds: the breakdown behind
// Space and Buckets, for sizing α and ℓmax against the streams a deployment
// actually sees.
type LevelOccupancy struct {
	Level  int // 0 is the singleton level S0
	Virgin bool
	Stored int // buckets stored, as Buckets counts them
	// Shared is the buckets, of those, that both directions keep: one node
	// and one sketch serve LE and GE queries alike.
	Shared int
	Closed int // of those, buckets that have crossed the closing threshold
	// Folded is the closed buckets, of those, whose sketch went into their
	// chain head (see Summary): they hold none.
	Folded int
	// Untouched buckets hold no sketch either: split siblings no tuple has
	// landed in, or the root of a virgin level, for which the shared sketch
	// stands.
	Untouched int
	// Items and Dense count the sketches that report a form (CountSketch):
	// those still keeping their (x, weight) pairs, and those promoted to
	// their counter array. Exact counters and composite sketches count in
	// neither.
	Items, Dense int
	// Counters is the level's share of Space: stored words, bucket overhead
	// included. The shared sketch of the virgin levels is charged to the
	// first of them (to the top level once none is left), so the rows add
	// up to Space.
	Counters int64
	// Bytes is the memory behind Counters: what each sketch that reports a
	// form holds — table slots at 4, 8 or 16 bytes, four for nearly every
	// table, or counters at their stored width, one byte for nearly every
	// array; both are far narrower than Counters' words — and eight bytes a
	// counter for everything else. ItemsBytes and DenseBytes are the two
	// sketch shares of it. ClosedItemsBytes is the share of ItemsBytes in
	// closed buckets that will split, whose tables are packed into runs of
	// the ClosedItemsPairs pairs they hold, under two bytes a pair on
	// corrdbench's streams; the rest sits in hashed tables still open to
	// insertions, which measure 6.5–7 bytes a pair there, empty slots
	// included, against the 4 of a slot. ClosedDenseBytes is the share of
	// DenseBytes in closed buckets that will split, for the
	// ClosedDenseCounters counters they hold: their arrays are packed into
	// four bits a counter with their exceptions listed where that shrinks
	// them, and plain where it would not; the rest sits in arrays still open
	// to insertions, a byte or more a counter.
	Bytes                  int64
	ItemsBytes, DenseBytes int64
	ClosedItemsBytes       int64
	ClosedItemsPairs       int64
	ClosedDenseBytes       int64
	ClosedDenseCounters    int64
	// Pooled is the bytes that wait for the next sketch or node: what the
	// maker's arena maps beyond what the sketches hold — zeroed free runs
	// that sketches have handed back and the next ones will take, its
	// chunks' guard words, the rounding of held blocks to whole words — and
	// the heap behind the arena's lists of them, and the slots of the two
	// slabs — tree nodes, sketch structs — that hold no bucket's, freed by
	// evictions or never yet used, for the next splits.
	// They stand behind no counter and belong to no level, so they are in no
	// row's Bytes; the S0 row alone reports them, the others read zero.
	// It is a property of the summary's past, not its state: a restored
	// summary starts with an empty arena. Footprint reports the arena's share
	// as its Pooled and the slabs' in its Headers, without the walk.
	Pooled int64
	// Watermark is the LE direction's Y_ℓ, the smallest left endpoint it has
	// discarded: it serves cutoffs below it. WatermarkGE is the GE
	// direction's, the largest right endpoint it has discarded: it serves
	// cutoffs above it. Each is math.MaxUint64 while its direction has
	// discarded nothing, or if the summary does not serve it.
	Watermark, WatermarkGE uint64
}

// Occupancy returns one row per level, S0 first. It walks every bucket, like
// Space.
func (s *Summary) Occupancy() []LevelOccupancy {
	rows := make([]LevelOccupancy, s.lmax+1)
	rows[0] = LevelOccupancy{Stored: s.s0.buckets.n}
	rows[0].Watermark, rows[0].WatermarkGE = s.watermarks(s.s0.y)
	s.s0.buckets.each(func(y uint64, h uint32) {
		if s.keepers(&s.s0.y, y) == Both {
			rows[0].Shared++
		}
		rows[0].count(1) // the singleton's y
		rows[0].visit(s.sketch(h), false, false)
	})
	for i := 1; i <= s.lmax; i++ {
		rows[i] = LevelOccupancy{Level: i, Virgin: i >= s.virginFrom}
		rows[i].Watermark, rows[i].WatermarkGE = s.watermarks(s.levels[i].y)
		s.occupy(&rows[i], s.levels[i].root, s.span)
	}
	rows[min(s.virginFrom, s.lmax)].countSketch(s.sketch(s.shared))
	rows[0].Pooled = s.spareNodeBytes()
	if p, ok := s.maker.(pooler); ok {
		arena, heap := p.PooledBytes()
		rows[0].Pooled += int64(arena + heap)
	}
	return rows
}

// watermarks turns a level's watermark distances into the endpoints
// LevelOccupancy reports.
func (s *Summary) watermarks(y [2]uint64) (le, ge uint64) {
	le, ge = noWatermark, noWatermark
	if s.cfg.Dirs&LE != 0 {
		le = y[0]
	}
	if s.cfg.Dirs&GE != 0 && y[1] != noWatermark {
		ge = s.cfg.YMax - y[1]
	}
	return le, ge
}

// pooler is a maker that reports the bytes waiting for its next sketches: in
// its arena, and on the heap — its slab's spare slots and the lists of its
// arena's free runs.
type pooler interface {
	PooledBytes() (arena, heap int)
}

// Footprint is the memory behind a summary in bytes, from counts that are
// kept as the summary changes: reading it walks nothing. Where a maker keeps
// its counters in an arena, off the collected heap (the F2 sketch's), Held
// and Pooled are the arena's, adding up to Arena, and Headers is everything
// the summary keeps on the heap; for the other makers everything is on the
// heap and Arena is 0.
type Footprint struct {
	// Held is what the sketches hold: every table or array at its stored
	// width, what Occupancy's ItemsBytes and DenseBytes add up to. A maker
	// that keeps no books has Held charge every counter, and every word
	// Space charges a bucket, eight bytes: Occupancy's Bytes added up.
	Held int64
	// Pooled is what the arena maps beyond Held: zeroed free runs, two guard
	// words a chunk and the rounding of the blocks held to whole words. For a
	// maker that keeps no books it is the spare slots of the node slab.
	Pooled int64
	// Headers is what stands around the counters on the heap: the node slab
	// whole — a 16-byte record a tree node, spare slots too — the singleton
	// level's table, a y and a sketch's handle a slot, and its directions'
	// heaps of distances (fixedBytes), a record a level, the sketch structs
	// with the maker slab's spare slots, and the lists of the arena's free
	// runs.
	Headers int64
	// Arena is what the maker's arena maps: Held + Pooled, or 0.
	Arena int64
}

// Total is the three added up: the bytes the summary keeps, on the heap and
// in its arena.
func (f Footprint) Total() int64 { return f.Held + f.Pooled + f.Headers }

// Plus adds two footprints field by field.
func (f Footprint) Plus(g Footprint) Footprint {
	return Footprint{f.Held + g.Held, f.Pooled + g.Pooled, f.Headers + g.Headers, f.Arena + g.Arena}
}

// bookkeeper is a maker that keeps running counts of what its sketches hold.
type bookkeeper interface {
	pooler
	HeldBytes() int
	HeaderBytes() int
	ArenaBytes() int
}

// bucketBytes is a tree node's slot in the node slab.
const bucketBytes = int64(unsafe.Sizeof(bucket{}))

// spareNodeBytes is what the node slab's spare slots hold.
func (s *Summary) spareNodeBytes() int64 { return int64(s.nodes.Spare()) * bucketBytes }

// Footprint returns the summary's memory from the maker's running counts and
// the per-level bucket counts. A maker that keeps no books has every counter
// charged at one word, 8 × Space — which is what Occupancy's Bytes add up to
// for it — found by Space's walk, and the node slab's spare slots as Pooled.
func (s *Summary) Footprint() Footprint {
	bk, ok := s.maker.(bookkeeper)
	if !ok {
		return Footprint{Held: 8 * s.Space(), Pooled: s.spareNodeBytes()}
	}
	nodes := int64(0)
	for i := 1; i <= s.lmax; i++ {
		nodes += int64(s.levels[i].nodes)
	}
	arena, heap := bk.PooledBytes()
	return Footprint{
		Held:    int64(bk.HeldBytes()),
		Pooled:  int64(arena),
		Headers: int64(bk.HeaderBytes()+heap) + s.fixedBytes() + bucketBytes*nodes + s.spareNodeBytes(),
		Arena:   int64(bk.ArenaBytes()),
	}
}

// levelBytes is a level's share of the summary's heap: its state, the
// pointer to it, its cached leaf and its watermarks' mirror.
const levelBytes = int64(unsafe.Sizeof(level{}) + unsafe.Sizeof(&level{}) + unsafe.Sizeof(leaf{}) + unsafe.Sizeof([2]uint64{}))

// fixedBytes is what the summary keeps on the heap beside its tree nodes and
// sketch structs: the singleton level's table and its directions' heaps, at
// their capacities, and a record a level, the singleton one's included.
func (s *Summary) fixedBytes() int64 {
	z := &s.s0
	return z.buckets.bytes() + 8*int64(cap(z.ys[0])+cap(z.ys[1])) + int64(s.lmax+1)*levelBytes
}

// count charges n one-word counters to the level.
func (o *LevelOccupancy) count(n int) {
	o.Counters += int64(n)
	o.Bytes += 8 * int64(n)
}

// countSketch charges sk's counters, and the bytes behind them, to the level.
// It returns sk's formed face, nil if it has none.
func (o *LevelOccupancy) countSketch(sk sketch.Sketch) formed {
	f, ok := sk.(formed)
	if !ok {
		o.count(sk.Size())
		return nil
	}
	o.Counters += int64(sk.Size())
	held := int64(f.Bytes())
	o.Bytes += held
	if f.Dense() {
		o.DenseBytes += held
	} else {
		o.ItemsBytes += held
	}
	return f
}

// formed is a sketch that reports its form and the bytes it holds.
type formed interface {
	Dense() bool
	Bytes() int
}

// occupy charges the subtree at h, which spans iv, to the level's row o.
func (s *Summary) occupy(o *LevelOccupancy, h uint32, iv dyadic.Interval) {
	if h == 0 {
		return
	}
	b := s.nodes.At(h)
	var sk sketch.Sketch
	if b.sk != 0 {
		sk = s.sketch(b.sk)
	}
	o.Stored++
	if b.keep() == Both {
		o.Shared++
	}
	o.count(2) // the bucket's interval
	o.visit(sk, b.isClosed(), b.isClosed() && !iv.Single())
	if !b.isLeaf() {
		lc, rc := iv.Children()
		s.occupy(o, b.left, lc)
		s.occupy(o, b.right, rc)
	}
}

// visit charges one bucket's sketch to the level: sk is nil for a folded
// bucket, which is closed, and for an untouched one, and splits says the
// bucket is closed and will split, which a singleton never does.
func (o *LevelOccupancy) visit(sk sketch.Sketch, closed, splits bool) {
	if closed {
		o.Closed++
	}
	switch {
	case sk == nil && closed:
		o.Folded++
		return
	case sk == nil:
		o.Untouched++
		return
	}
	switch f := o.countSketch(sk); {
	case f == nil:
	case f.Dense():
		o.Dense++
		if splits {
			o.ClosedDenseBytes += int64(f.Bytes())
			o.ClosedDenseCounters += int64(sk.Size())
		}
	default:
		o.Items++
		if splits {
			o.ClosedItemsBytes += int64(f.Bytes())
			o.ClosedItemsPairs += int64(sk.Size() / 2) // two words a pair
		}
	}
}

var (
	_ formed     = (*sketch.CountSketch)(nil)
	_ bookkeeper = (*sketch.F2Maker)(nil)
)
