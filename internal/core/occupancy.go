package core

import (
	"unsafe"

	"github.com/streamagg/correlated/internal/sketch"
)

// LevelOccupancy is what one level of a Summary holds: the breakdown behind
// Space and Buckets, for sizing α and ℓmax against the streams a deployment
// actually sees.
type LevelOccupancy struct {
	Level  int // 0 is the singleton level S0
	Virgin bool
	Stored int // buckets stored, as Buckets counts them
	Closed int // of those, buckets that have crossed the closing threshold
	// Untouched buckets hold no sketch: split siblings no tuple has landed
	// in, or the root of a virgin level, for which the shared sketch stands.
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
	// closed buckets that will split, whose tables are cut to the pairs they
	// hold; the rest sits in tables still open to insertions, about half of
	// it empty slots.
	Bytes                  int64
	ItemsBytes, DenseBytes int64
	ClosedItemsBytes       int64
	// Pooled is the bytes the maker's free lists hold: zeroed tables and
	// arrays that sketches have handed back and the next ones will take.
	// They stand behind no counter and belong to no level, so they are in
	// no row's Bytes; the S0 row alone reports them, the others read zero.
	// It is a property of the summary's past, not its state: a restored
	// summary starts with empty lists. Footprint reports the same number
	// beside the rows' Bytes added up, without the walk.
	Pooled    int64
	Watermark uint64 // Y_ℓ; math.MaxUint64 while nothing has been discarded
}

// Occupancy returns one row per level, S0 first. It walks every bucket, like
// Space.
func (s *Summary) Occupancy() []LevelOccupancy {
	rows := make([]LevelOccupancy, s.lmax+1)
	rows[0] = LevelOccupancy{Stored: len(s.s0.buckets), Watermark: s.s0.y}
	for _, b := range s.s0.buckets {
		rows[0].count(1) // the singleton's y
		rows[0].visit(b)
	}
	for i := 1; i <= s.lmax; i++ {
		rows[i] = LevelOccupancy{Level: i, Virgin: i >= s.virginFrom, Watermark: s.levels[i].y}
		rows[i].walk(s.levels[i].root)
	}
	rows[min(s.virginFrom, s.lmax)].countSketch(s.shared)
	if p, ok := s.maker.(pooler); ok {
		held, _ := p.PooledBytes()
		rows[0].Pooled = int64(held)
	}
	return rows
}

// pooler is a maker that reports the bytes its free lists hold, and the most
// they can.
type pooler interface {
	PooledBytes() (held, bound int)
}

// Footprint is the memory behind a summary in bytes, from counts that are
// kept as the summary changes: reading it walks nothing.
type Footprint struct {
	// Held is what Occupancy's rows add up to in Bytes: every sketch's table
	// or array at its stored width, and the words Space charges a bucket.
	Held int64
	// Pooled is Occupancy's Pooled: the maker's free lists.
	Pooled int64
	// Headers is what stands around Held and no row counts: the bucket nodes
	// and the sketch structs, less the words of a node Held already charged.
	// The singleton level's map and heap are not in it.
	Headers int64
}

// Total is the three added up: the bytes the summary keeps from the collector.
func (f Footprint) Total() int64 { return f.Held + f.Pooled + f.Headers }

// Plus adds two footprints field by field.
func (f Footprint) Plus(g Footprint) Footprint {
	return Footprint{f.Held + g.Held, f.Pooled + g.Pooled, f.Headers + g.Headers}
}

// bookkeeper is a maker that keeps running counts of what its sketches hold.
type bookkeeper interface {
	pooler
	HeldBytes() int
	HeaderBytes() int
}

// bucketBytes is what the allocator hands out for a bucket node.
const bucketBytes = (int64(unsafe.Sizeof(bucket{})) + 15) &^ 15

// Footprint returns the summary's memory from the maker's running counts and
// the per-level bucket counts. A maker that keeps no books has every counter
// charged at one word, 8 × Space — which is what Occupancy's Bytes add up to
// for it — found by Space's walk.
func (s *Summary) Footprint() Footprint {
	bk, ok := s.maker.(bookkeeper)
	if !ok {
		return Footprint{Held: 8 * s.Space()}
	}
	singles, nodes := int64(len(s.s0.buckets)), int64(0)
	for i := 1; i <= s.lmax; i++ {
		nodes += int64(s.levels[i].count)
	}
	charged := 8*singles + 16*nodes // the y of a singleton, the interval of a node
	pooled, _ := bk.PooledBytes()
	return Footprint{
		Held:    int64(bk.HeldBytes()) + charged,
		Pooled:  int64(pooled),
		Headers: int64(bk.HeaderBytes()) + (singles+nodes)*bucketBytes - charged,
	}
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

func (o *LevelOccupancy) walk(b *bucket) {
	if b == nil {
		return
	}
	o.Stored++
	o.count(2) // the bucket's interval
	o.visit(b)
	o.walk(b.left)
	o.walk(b.right)
}

func (o *LevelOccupancy) visit(b *bucket) {
	if b.closed {
		o.Closed++
	}
	if b.sk == nil {
		o.Untouched++
		return
	}
	switch f := o.countSketch(b.sk); {
	case f == nil:
	case f.Dense():
		o.Dense++
	default:
		o.Items++
		if b.closed && !b.iv.Single() {
			o.ClosedItemsBytes += int64(f.Bytes())
		}
	}
}

var (
	_ formed     = (*sketch.CountSketch)(nil)
	_ bookkeeper = (*sketch.F2Maker)(nil)
)
