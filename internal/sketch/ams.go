package sketch

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/streamagg/correlated/internal/bitcode"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/slab"
)

// CountSketch is the linear sketch of Charikar–Chen–Farach-Colton laid out
// in the fast style of Thorup–Zhang: d rows of w signed counters, one
// 4-universal hash per row choosing the counter, one 4-universal hash per
// row choosing the sign. Summing the squares of a row's counters gives the
// AMS tug-of-war estimate of the second frequency moment F2 (this is
// exactly the "variant of Alon et al. based on the idea of Thorup and
// Zhang" the paper's experiments use); the median over rows drives the
// failure probability down. The same table answers point queries
// (EstimateItem), which Section 3.3 needs for correlated F2 heavy hitters.
//
// The sketch is linear, so merging is counter-wise addition, and it
// tolerates negative weights, so it doubles as the turnstile whole-stream
// estimator that MULTIPASS (Section 4.2) probes.
//
// A sketch has two forms behind one API. It starts in the items form — an
// open-addressed table of the distinct (x, Σw) pairs it has absorbed, with
// Σf² kept as an exact integer — in which every answer is exact, and
// promotes itself once, when it would hold more than the maker's itemsMax
// pairs, to the dense d×w array by hashing its pairs in. Row hashes are
// deterministic and the sketch is linear, so a promoted sketch holds exactly
// the counters it would have held had it been dense from its first item.
// Only Reset takes a sketch back. The reduction of Section 2 keeps one
// sketch per bucket and most buckets hold few distinct items, so most
// sketches never promote. Size reports what is stored: two words per pair,
// d·w once dense.
//
// Each form in turn is stored as narrow as what it holds allows, because the
// reduction keeps that small: a level-ℓ bucket closes once its estimate
// reaches 2^(ℓ+1), which holds a pair's weight and a dense counter near
// √2^(ℓ+1). A table slot is four bytes — identifier in 24 bits, weight in 8,
// two slots a word — which every table of corrbench's preset streams keeps;
// then eight, 32 bits and 32, which a stream of 32-bit identifiers fills by
// the thousand; then sixteen, the last resort, which no measured stream
// reaches. A counter is int8 in nearly every array; then int16, which holds
// two in five of a zipf stream's arrays; then int64, for the handful at its
// top levels and whatever a weight can reach. A table is rewritten slot for
// slot, or an array widened in place, the first time a pair or a counter needs
// the next rung; only Reset goes back. Nobody chooses a width and nothing
// reads one: pairs are handled as (uint64, int64) values and counters as
// int64, the image is varint-coded and Size counts two words a pair and one a
// counter, so every estimate, budget and image byte is what 16-byte slots and
// an all-int64 array give; Bytes reports what the widths change. A counter of
// an array still open to insertions stays at one to two bytes: further space
// there has to come from fewer counters (α and the sketch width, ROADMAP.md),
// not narrower ones.
//
// The same rule says when a table or an array is finished: a closed bucket
// splits on the next arrival and ingest never writes to it again, so Compact
// re-encodes what it holds. A table becomes a packed run — its n pairs in
// ascending x, each x the gap to the one before and each weight by its
// magnitude and sign, every column in the cheaper of a Rice and an
// Exp-Golomb code (package bitcode, the log's coder) — 1.4–1.6 bytes a pair
// on corrbench's occupancy presets, where a hashed table takes 6.5–7 and
// exactly its slots would take 4. A run has no step on the slot ladder and is
// never probed: lookups and walks read it from its start. An array becomes a
// packed one — four bits a counter, the few outside −7…7 in a list beside
// them (packArray) — unless that would not shrink it (82–99 % of the closed
// arrays there are packed): 0.54–0.70 bytes a counter, row sums included,
// where its plain array takes at least one. A packed array is read a byte at
// a time, as a composition adds it. The first write to either (only a merge
// does that) unpacks it into a hashed table or a plain array first.
//
// And it says what a sketch's life costs: born at eight slots, grown by half
// (8, 12, 16, 24, …) as pairs arrive up to the promotion point, then
// promoted, packed or evicted — every step leaves a block behind. A table, a
// run, or a dense sketch's row sums and counters, is one block of the maker's
// arena (arena.go), off the collected heap, behind the struct's one pointer,
// and a block left behind goes back to it (release), zeroed, for the
// next step of the next sketch. So
// the struct is all of a sketch the collector sees — 32 bytes, a slab record,
// whatever the form — and nothing beside it is allocated on a promotion or a
// widening. The storage a sketch holds is its own until it hands it back and
// nobody's view of it after; the one walk that could outlive its table, a
// merge of a sketch into itself, reads a copy. No view of it may outlive
// every struct that reaches the maker either: the arena is unmapped once the
// maker is collected, so what leaves a sketch — an image, a merge into
// another maker's sketch — is a copy.
type CountSketch struct {
	maker *F2Maker

	// p is the sketch's one block of the maker's arena, nil for none: in the
	// items form a hashed table (see table) or a packed run (see run), in the
	// dense form its row sums then its counters, plain (see rowF2 and
	// countersOf) or packed (see packArray). The fields below say how long it
	// is — a hashed table from step, a plain array from cw and the maker's
	// geometry — or, for a run or a packed array, its head does, so no slice
	// header is stored.
	p unsafe.Pointer

	// f2lo is the low word of Σf² over the pairs, a 128-bit integer. Its high
	// word is 0 at the four-byte rung, whose pairs keep the sum under 2^45,
	// and is the first word of the items block at the eight- and sixteen-byte
	// ones (f2hi).
	f2lo uint64

	n     int32 // items: pairs held, at most the maker's itemsMax
	rung  uint8 // items: a slot is 4<<rung bytes, and a run unpacks to such slots
	step  uint8 // items: a hashed table's step on the slot ladder (stepSlots); 0 for a run or no block
	cw    uint8 // dense: bytes per stored counter — 1, 2 or 8 — or 0, packed (see packArray)
	dense bool
}

// table is the storage of the items form while it takes writes: open
// addressed over a ladder of slot counts, each slot one distinct identifier
// and its net weight. A slot is four bytes, eight or sixteen — the rung — and
// always identifier above weight: 24 bits over 8, two slots a word, the even
// slot in the low half; 32 over 32, one word; or two words, identifier then
// weight. All three live in one block of words, and a table value is a view
// of its slots: a copy reads and writes the same slots, and is dead once the
// block has gone back to the maker (release). At the eight- and sixteen-byte
// rungs the block starts with one word ahead of the slots, Σf²'s high word,
// which the view leaves out.
type table struct {
	tab  []uint64
	rung uint8 // a slot is 4<<rung bytes
}

// table returns a view of the sketch's hashed table, empty without one.
func (c *CountSketch) table() table {
	if c.step == 0 {
		return table{rung: c.rung}
	}
	return table{unsafe.Slice((*uint64)(unsafe.Add(c.p, hiLen(c.rung))), slotWords(c.slots(), c.rung)), c.rung}
}

// slots returns the number of slots of the sketch's hashed table, 0 without
// one.
func (c *CountSketch) slots() int {
	if c.step == 0 {
		return 0
	}
	return stepSlots(c.step)
}

// hiLen returns the bytes of Σf²'s high word at the head of an items block
// at a rung: none at four bytes a slot (itemsMax < 2^31 pairs of |f| ≤ 2^7
// sum under 2^45), one word at eight and sixteen.
func hiLen(rung uint8) int {
	if rung == slot4 {
		return 0
	}
	return 8
}

// hiWord returns Σf²'s high word in the items block, or nil where the sum
// has none: at the four-byte rung and without a block, which holds no
// pairs.
func (c *CountSketch) hiWord() *uint64 {
	if c.rung == slot4 || c.p == nil {
		return nil
	}
	return (*uint64)(c.p)
}

// f2hi returns Σf²'s high word.
func (c *CountSketch) f2hi() uint64 {
	if h := c.hiWord(); h != nil {
		return *h
	}
	return 0
}

// The rungs of the slot ladder.
const (
	slot4 = iota
	slot8
	slot16
)

// slots returns the number of slots, empty ones included. An odd number of
// four-byte slots does not exist: the spare half of the last word is one more
// empty slot.
func (t table) slots() int { return len(t.tab) * 2 >> t.rung }

// pairAt returns the pair in slot j; weight 0 marks an empty slot.
func (t table) pairAt(j int) (x uint64, f int64) {
	switch t.rung {
	case slot4:
		s := uint32(t.tab[j>>1] >> ((j & 1) * 32))
		return uint64(s >> 8), int64(int8(s))
	case slot8:
		w := t.tab[j]
		return w >> 32, int64(int32(w))
	default:
		return t.tab[2*j], int64(t.tab[2*j+1])
	}
}

// setPair stores (x, f) in slot j, or stores nothing and reports false when
// the pair does not fit the table's slots. Nothing is ever truncated.
func (t table) setPair(j int, x uint64, f int64) bool {
	switch {
	case t.rung == slot4 && x>>24 == 0 && int64(int8(f)) == f:
		half := (j & 1) * 32
		t.tab[j>>1] = t.tab[j>>1]&^(math.MaxUint32<<half) | (x<<8|uint64(uint8(f)))<<half
	case t.rung == slot8 && x>>32 == 0 && int64(int32(f)) == f:
		t.tab[j] = x<<32 | uint64(uint32(f))
	case t.rung == slot16:
		t.tab[2*j], t.tab[2*j+1] = x, uint64(f)
	default:
		return false
	}
	return true
}

// slotWords returns the words behind that many slots at a rung.
func slotWords(slots int, rung uint8) int { return (slots<<rung + 1) / 2 }

const (
	// itemsDivisor sets the promotion point: a sketch goes dense when it
	// would hold more than width·depth/itemsDivisor pairs. What that buys is
	// exact answers up to that many distinct identifiers, with Size — two
	// words a pair — topping out at half the array's width·depth. Bytes no
	// longer argue for a smaller one: at corrd's 356×4 a table that full is
	// 2 048 bytes at four bytes a slot, against the 1 456-byte one-byte array
	// it promotes into, and a closed one's packed run far less.
	itemsDivisor = 4
	itemsMinCap  = 8 // initial table slots: stepSlots(1)
)

// stepSlots returns the slots of a hashed table at a step of the ladder
// 8, 12, 16, 24, 32, 48, …: 8·2^k at the odd steps and 12·2^k at the even
// ones, so a table grows by half at a time and, at the load cap of 3/4, is
// never under half full once it has grown. Every count is even, so a table
// of four-byte slots fills whole words.
func stepSlots(step uint8) int { return (itemsMinCap + 4*int(1-step&1)) << ((step - 1) >> 1) }

// stepFor returns the first step whose table holds n pairs without growing.
func stepFor(n int) uint8 {
	step := uint8(1)
	for n*4 > stepSlots(step)*3 {
		step++
	}
	return step
}

// F2Maker creates CountSketch instances sharing one set of row hashes.
// Each row uses a single 4-universal hash drawn into [0, 2w): the low bit
// is the sign and the remaining bits pick the counter, so the (bucket,
// sign) pair is jointly 4-wise independent at half the hashing cost —
// the Thorup–Zhang trick.
//
// It is also where its sketches' storage waits between owners: the slab its
// bucket sketches live in (Alloc), whose freed slots wait for the next one,
// the arena every table and counter array is a block of, whose free runs
// wait for a block of any size that fits (PooledBytes), and one recycled
// sketch from New, which the next New — a query's composition — takes back.
// A maker, its slab and its arena belong to one goroutine at a time, the one
// driving its sketches.
//
// And it keeps the books: every table and array a sketch holds came from the
// arena and goes back to it, so HeldBytes — Σ Bytes over its sketches — is a
// running count kept at those hand-overs, and reading it walks nothing. The
// count follows storage, not reachability: a sketch holding a table must be
// Recycled (or Reset) before it is dropped, or its bytes stay on the books,
// and in the arena, until the maker itself is collected.
type F2Maker struct {
	width, depth int
	rowH         []*hash.FourWise

	itemsMax int // most pairs an items-form sketch holds

	headers int // the structs of the sketches handed out and not yet taken back

	slab  slab.Slab[CountSketch] // the sketches Alloc hands out
	arena *arena                 // the blocks behind every table and array
	spare *CountSketch           // a sketch Recycle took back, for the next New

	medScratch  []float64 // reused by Estimate/EstimateItem
	slotScratch Slots     // reused by slotsOf
	keyScratch  []uint64  // reused by ascending for the pairs' identifiers
	codeScratch []uint64  // and their weights
	runScratch  []byte    // reused by pack for a run's bitstream
}

// NewF2Maker returns a Maker for CountSketch/AMS sketches with d rows of w
// counters each. Width drives the per-row relative error (~sqrt(2/w)),
// depth drives the failure probability.
func NewF2Maker(width, depth int, rng *hash.RNG) *F2Maker {
	if width < 1 || depth < 1 {
		panic("sketch: F2Maker width and depth must be >= 1")
	}
	array := width * depth
	m := &F2Maker{
		width: width, depth: depth,
		itemsMax:   min(array/itemsDivisor, math.MaxInt32), // n is an int32
		arena:      newArena(),
		medScratch: make([]float64, depth),
	}
	for i := 0; i < depth; i++ {
		m.rowH = append(m.rowH, hash.NewFourWise(rng))
	}
	return m
}

// Slots implements SlotMaker: one packed slot word per row — a value in
// [0, 2w) whose low bit is the sign and whose remaining bits pick the
// counter — then x itself, which is all an items-form sketch reads. The
// rows' polynomials share x's powers, and the reduction to [0, 2w) is Lemire
// multiply-shift rather than a modulo, which keeps integer division out of
// the ingest path.
func (m *F2Maker) Slots(x uint64, scratch Slots) Slots {
	v, v2, v3 := hash.Powers61(x)
	for _, h := range m.rowH {
		scratch = append(scratch, hash.Reduce61(h.HashPowers(v, v2, v3), uint64(2*m.width)))
	}
	return append(scratch, x)
}

// slotsOf returns Slots(x) in the maker's own scratch, valid until the next
// call.
func (m *F2Maker) slotsOf(x uint64) Slots {
	m.slotScratch = m.Slots(x, m.slotScratch[:0])
	return m.slotScratch
}

// SlotWidth implements SlotMaker.
func (m *F2Maker) SlotWidth() int { return m.depth + 1 }

// Recycle implements Recycler: the table or array of a sketch from New goes
// back to the arena, and the struct is kept for the next New, or left to the
// collector when the maker keeps one already. A query composes a sketch and
// recycles it, so a maker that answers queries keeps one, and a query's
// composition allocates nothing.
func (m *F2Maker) Recycle(sk Sketch) {
	cs, ok := sk.(*CountSketch)
	if !ok || cs.maker != m {
		return
	}
	cs.Reset()
	m.headers -= countSketchBytes
	if m.spare == nil {
		m.spare = cs
	}
}

// release takes back the n-byte block at p that a sketch has left, zeroed,
// for the next block that fits it; nil is no block. Every view of it is dead
// from here on.
func (m *F2Maker) release(p unsafe.Pointer, n int) {
	if p != nil {
		m.arena.putZeroed(p, n)
	}
}

// denseBytes returns the bytes of a dense sketch's block at cw bytes a
// counter: the row sums, then the counters.
func (m *F2Maker) denseBytes(cw uint8) int { return 8*m.depth + int(cw)*m.depth*m.width }

// countersAt returns the counters, stored as T, of the dense block at p.
func countersAt[T ctr](m *F2Maker, p unsafe.Pointer) []T {
	return unsafe.Slice((*T)(unsafe.Add(p, 8*m.depth)), m.depth*m.width)
}

// countersOf returns a dense sketch's counters, stored as T, which must be
// what its cw names.
func countersOf[T ctr](c *CountSketch) []T { return countersAt[T](c.maker, c.p) }

// rowF2 returns a dense sketch's incrementally maintained sum of squares per
// row, the head of its block. A widening moves the block: what rowF2 returned
// before one is dead after it.
func (c *CountSketch) rowF2() []float64 { return unsafe.Slice((*float64)(c.p), c.maker.depth) }

// PooledBytes returns what waits for the next sketch: in the arena, the bytes
// it maps beyond what the sketches hold — zeroed free runs, two guard words a
// chunk, and the rounding of the blocks held up to whole words — and on the
// heap, the slab's slots that hold no sketch and the arena's lists of its free
// runs. Neither is bounded by a constant: the slab keeps the most it has
// held, and a list goes down to half once under a quarter full.
func (m *F2Maker) PooledBytes() (arena, heap int) {
	return m.arena.pooled(), m.slab.Spare()*countSketchBytes + m.arena.lists
}

// Settle lays the arena out afresh once no sketch holds a block of it: each
// chunk one free run, on lists as long as that. A maker whose every sketch
// has been freed, as a Reset frees them, then places the next ones as it
// would after any other history ending there. It does nothing while a sketch
// holds a block.
func (m *F2Maker) Settle() { m.arena.settle() }

// ListBytes returns the heap bytes behind the arena's lists of its free runs,
// the share of PooledBytes' heap that is not the slab's spare slots.
func (m *F2Maker) ListBytes() int { return m.arena.lists }

// ArenaBytes returns the bytes the maker's arena maps: HeldBytes plus the
// arena's half of PooledBytes, off the collected heap.
func (m *F2Maker) ArenaBytes() int { return m.arena.mapped }

// HeldBytes returns Σ Bytes over the maker's sketches: the tables and arrays
// they hold right now, free blocks excluded. It is a field read.
func (m *F2Maker) HeldBytes() int { return m.arena.asked }

// HeaderBytes returns the memory of the sketch structs themselves, which no
// sketch's Bytes counts: a CountSketch for each sketch handed out, by Alloc or
// New, and not taken back, whatever its form — the struct is all a sketch
// keeps on the collected heap; not the one sketch Recycle keeps for the next
// New.
func (m *F2Maker) HeaderBytes() int { return m.headers }

// What the allocator hands out for a sketch struct: 32 bytes is a size class
// of its own and, a multiple of 16, exactly a slab slot.
const countSketchBytes = (int(unsafe.Sizeof(CountSketch{})) + 15) &^ 15

// NewF2MakerError returns a Maker sized for relative error upsilon with
// failure probability gamma. Following the paper's own experimental setup,
// the sizing uses practical constants rather than the worst-case proof
// constants: width ⌈2/υ²⌉, at least 16, so that a row's relative standard
// deviation, √(2/w), is about υ; and ⌈log2(1/γ)/5⌉ rows, clamped to 3…4,
// which with the median over rows already gives sub-percent failure rates in
// practice.
func NewF2MakerError(upsilon, gamma float64, rng *hash.RNG) *F2Maker {
	if upsilon <= 0 || upsilon >= 1 {
		panic("sketch: upsilon must be in (0,1)")
	}
	w := int(math.Ceil(2 / (upsilon * upsilon)))
	if w < 16 {
		w = 16
	}
	d := int(math.Ceil(math.Log2(1/gamma) / 5))
	if d < 3 {
		d = 3
	}
	if d > 4 {
		d = 4
	}
	return NewF2Maker(w, d, rng)
}

// New implements Maker. The sketch is empty and in the items form: it takes
// its table on the first update, and a dense array only if it promotes.
func (m *F2Maker) New() Sketch {
	m.headers += countSketchBytes
	if c := m.spare; c != nil {
		m.spare = nil
		return c
	}
	return &CountSketch{maker: m}
}

// Alloc implements Maker: an empty items-form sketch, as New's, in a slot of
// the maker's slab.
func (m *F2Maker) Alloc() uint32 {
	h := m.slab.Alloc()
	m.slab.At(h).maker = m
	m.headers += countSketchBytes
	return h
}

// At implements Maker.
func (m *F2Maker) At(h uint32) Sketch { return m.slab.At(h) }

// Free implements Maker. The sketch's table or array goes back to the arena,
// and the slot keeps nothing but its maker.
func (m *F2Maker) Free(h uint32) {
	m.slab.At(h).Reset()
	m.headers -= countSketchBytes
	m.slab.Free(h)
}

// Width returns the number of counters per row.
func (m *F2Maker) Width() int { return m.width }

// Depth returns the number of rows.
func (m *F2Maker) Depth() int { return m.depth }

// Dense reports whether the sketch has promoted to its counter array.
func (c *CountSketch) Dense() bool { return c.dense }

// Add implements Sketch. An items-form update is one table probe; a dense
// one touches d counters and keeps the per-row sum of squares current in
// O(d) time, so Estimate stays O(d).
func (c *CountSketch) Add(x uint64, w int64) {
	if c.dense || !c.addItem(x, w) {
		c.AddSlots(c.maker.slotsOf(x), w)
	}
}

// AddSlots implements SlotAdder; the state change is bit-identical to
// Add(x, w) for the x the slots were computed from. The dense loop is the
// innermost one of the core structure's ingest path, so locals are hoisted
// out of the per-row body.
func (c *CountSketch) AddSlots(slots Slots, w int64) {
	d := len(slots) - 1
	if !c.dense && c.addItem(slots[d], w) {
		return
	}
	if c.cw == 0 {
		c.unpack() // only a merge writes to a closed bucket's array
	}
	// A counter that would leave the stored width stops the pass; the array
	// is widened, which moves the block, and the pass resumes at that row.
	rows, width := slots[:d], c.maker.width
	for i := 0; ; c.widen() {
		switch c.cw {
		case 1:
			i = addRows(countersOf[int8](c), c.rowF2(), rows, w, width, i)
		case 2:
			i = addRows(countersOf[int16](c), c.rowF2(), rows, w, width, i)
		default:
			i = addRows(countersOf[int64](c), c.rowF2(), rows, w, width, i)
		}
		if i == d {
			return
		}
	}
}

// addItem applies (x, w) to an items-form sketch. It reports false, having
// promoted the sketch instead, when x would be one pair more than the form
// holds — the caller then applies the update densely.
func (c *CountSketch) addItem(x uint64, w int64) bool {
	if w == 0 {
		return true
	}
	if c.step == 0 {
		c.grow() // the first table, or a packed run unpacked
	}
	t := c.table()
	j, old := t.probe(x)
	f := old + w
	switch {
	case old != 0 && f != 0:
		c.store(t, j, x, f)
	case old != 0:
		t.remove(j)
		c.n--
	case int(c.n) >= c.maker.itemsMax:
		c.promote()
		return false
	default:
		if int(c.n+1)*4 > t.slots()*3 {
			c.grow()
			t = c.table()
			j, _ = t.probe(x)
		}
		c.store(t, j, x, f)
		c.n++
	}
	c.moveF2(old, f)
	return true
}

// store puts (x, f) in slot j of t, the sketch's table, widening the table
// first if its slots cannot hold the pair, and returns the table then. A
// widening moves no pair, so j stays x's slot.
func (c *CountSketch) store(t table, j int, x uint64, f int64) table {
	if t.setPair(j, x, f) {
		return t
	}
	return c.storeWider(j, x, f)
}

// storeWider is store's way past a table too narrow for the pair.
func (c *CountSketch) storeWider(j int, x uint64, f int64) table {
	for {
		c.widenTable()
		if t := c.table(); t.setPair(j, x, f) {
			return t
		}
	}
}

// moveF2 accounts in Σf² for one pair's weight going from old to f, with f
// already stored: the sum moves by f² − old², taken modulo 2^128. At the
// four-byte rung both weights fit int8 and both sums are under 2^45, so the
// low word alone is exact.
func (c *CountSketch) moveF2(old, f int64) {
	if c.rung == slot4 {
		c.f2lo += uint64(f*f) - uint64(old*old)
		return
	}
	c.moveF2Wide(old, f)
}

// moveF2Wide is moveF2 past the four-byte rung, in 128 bits.
func (c *CountSketch) moveF2Wide(old, f int64) {
	oh, ol := bits.Mul64(magnitude(old), magnitude(old))
	nh, nl := bits.Mul64(magnitude(f), magnitude(f))
	lo, carry := bits.Add64(c.f2lo, nl, 0)
	lo, borrow := bits.Sub64(lo, ol, 0)
	c.f2lo = lo
	h := c.hiWord() // a pair was just stored or removed: there is a table
	hi, _ := bits.Add64(*h, nh, carry)
	*h, _ = bits.Sub64(hi, oh, borrow)
}

// magnitude returns |v| as a uint64 (2^63 for the minimum int64).
func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// weightOf returns the weight of x's pair in the items form, 0 if there is
// none: a probe of a hashed table, a read of a packed run up to x.
func (c *CountSketch) weightOf(x uint64) int64 {
	if c.step != 0 {
		_, f := c.table().probe(x)
		return f
	}
	var w pairs
	c.walk(&w)
	for y, f, ok := w.next(); ok && y <= x; y, f, ok = w.next() {
		if y == x {
			return f
		}
	}
	return 0
}

// Compact implements Compacter: an items-form sketch's hashed table is packed
// — re-encoded as a packed run of its n pairs in ascending x (see pack) — and
// a dense sketch's array into four bits a counter with its exceptions listed
// (see packArray), unless that would not shrink it. Nothing a caller can see
// changes but Bytes, and the sketch stays fully usable: the next write
// unpacks the run or the array. A table whose every pair has cancelled goes
// back whole. A run, or a packed array, is left as it is.
func (c *CountSketch) Compact() {
	if c.dense && c.cw != 0 {
		c.packArray()
	}
	if c.step == 0 {
		return
	}
	m := c.maker
	t, old, size := c.table(), c.p, c.Bytes()
	hi := c.f2hi()
	c.p, c.step = nil, 0
	if c.n > 0 {
		c.p = m.pack(t, hi, c.rung)
	}
	m.release(old, size)
}

// pack returns a new block holding a hashed table's pairs, at least one, as
// a packed run, with hi, Σf²'s high word, ahead of it at the wide rungs:
//
//	run   hi                             8 bytes, at the 8- and 16-byte rungs
//	      p_x p_f                        one byte each: the columns' codes
//	      uvarint(len(bits))
//	      bits  n × ( code(x − previous x − 1, p_x)  code(w(f), p_f) )
//
// The pairs are in ascending x, previous x starting at −1 (2^64 − 1), so no
// gap is negative; w(f) is 2(|f| − 1), plus one when f < 0, so the common ±1
// is 0 or 1. Each column takes bitcode's parameter byte and codes, and the
// bitstream is bitcode's. A run is in memory only — an image holds the pairs
// as ever — and is read from its start (pairs): it is never probed and never
// written to.
func (m *F2Maker) pack(t table, hi uint64, rung uint8) unsafe.Pointer {
	xs, fs := m.ascending(t)
	prev := uint64(math.MaxUint64)
	for i, x := range xs {
		xs[i], fs[i], prev = x-prev-1, weightCode(int64(fs[i])), x
	}
	px, pf := bitcode.Param(xs), bitcode.Param(fs)
	w := bitcode.NewWriter(m.runScratch[:0])
	for i := range xs {
		w.Code(xs[i], px)
		w.Code(fs[i], pf)
	}
	bits := w.Flush()
	m.runScratch = bits

	var head [8 + 2 + binary.MaxVarintLen64]byte
	k := hiLen(rung)
	binary.NativeEndian.PutUint64(head[:], hi) // the word hiWord reads; 0 and left out at four bytes a slot
	head[k], head[k+1] = px, pf
	k += 2 + binary.PutUvarint(head[k+2:], uint64(len(bits)))
	p := m.arena.take(k + len(bits))
	block := unsafe.Slice((*byte)(p), k+len(bits))
	copy(block[copy(block, head[:k]):], bits)
	return p
}

// run returns a packed run's parameter bytes, its bitstream and the bytes of
// its block (see pack).
func (c *CountSketch) run() (px, pf byte, bits []byte, size int) {
	at := unsafe.Add(c.p, hiLen(c.rung))
	n, k := uvarintAt(unsafe.Add(at, 2))
	k += 2
	px, pf = *(*byte)(at), *(*byte)(unsafe.Add(at, 1))
	return px, pf, unsafe.Slice((*byte)(unsafe.Add(at, k)), n), hiLen(c.rung) + k + n
}

// weightCode is w(f), how a packed run codes a weight f ≠ 0: 2(|f| − 1),
// plus one when f < 0. weightOfCode undoes it.
func weightCode(f int64) uint64 { return (magnitude(f)-1)<<1 | uint64(f)>>63 }

func weightOfCode(v uint64) int64 {
	f := int64(v>>1 + 1)
	if v&1 != 0 {
		return -f
	}
	return f
}

// ascending returns a hashed table's pairs in ascending x, weights as their
// bits, in the maker's scratch.
func (m *F2Maker) ascending(t table) (xs, fs []uint64) {
	xs, fs = m.keyScratch[:0], m.codeScratch[:0]
	for k := range t.slots() {
		if x, f := t.pairAt(k); f != 0 {
			xs = append(xs, x)
		}
	}
	slices.Sort(xs)
	for _, x := range xs {
		_, f := t.probe(x)
		fs = append(fs, uint64(f))
	}
	m.keyScratch, m.codeScratch = xs, fs
	return xs, fs
}

// pairs is a walk of an items-form sketch's pairs: a hashed table's slot by
// slot, a packed run's in ascending x, read walkChunk pairs at a time into
// the walk's own buffer, so that a run's codes are read in one loop and a
// scatter works a buffer at a time. It reads the sketch's block, and is dead
// once that block has gone back to the maker, unless detached first. It is
// set up in place (walk) and handed on by pointer: it is too large to copy
// for each of a query's parts.
type pairs struct {
	xs, fs [walkChunk]uint64 // the pairs read and not yet handed out, [i:n]; a weight as its bits
	i, n   int
	left   int // pairs not yet read

	t table // a hashed table, read from slot k
	k int

	packed bool
	px, pf byte           // a packed run's codes,
	run    bitcode.Reader // its bitstream from the next code,
	x      uint64         // and the last x read
}

// walkChunk is how many pairs a walk reads at a time.
const walkChunk = 16

// walk sets w up to walk the sketch's pairs, none for a dense one.
func (c *CountSketch) walk(w *pairs) {
	w.i, w.n, w.left, w.t, w.k, w.packed = 0, 0, int(c.n), c.table(), 0, false
	if !c.dense && c.step == 0 && c.n > 0 {
		var bits []byte
		w.px, w.pf, bits, _ = c.run()
		w.packed, w.run, w.x = true, bitcode.NewReader(bits), math.MaxUint64
	}
}

// detach points w, a walk of c not yet begun, at a copy of what it reads,
// which outlives c's block.
func (w *pairs) detach(c *CountSketch) {
	w.t.tab = slices.Clone(w.t.tab)
	if w.packed {
		_, _, bits, _ := c.run()
		w.run = bitcode.NewReader(slices.Clone(bits))
	}
}

// next returns the walk's next pair; ok is false past the last one.
func (w *pairs) next() (x uint64, f int64, ok bool) {
	if w.i == w.n && !w.read() {
		return 0, 0, false
	}
	w.i++
	return w.xs[w.i-1], int64(w.fs[w.i-1]), true
}

// read fills the buffer with the next pairs, up to walkChunk of them, in
// xs[:n] and fs[:n]; it reports false when there are none. A walk is read
// either by next or, where a loop over each buffer is cheaper, by read.
func (w *pairs) read() bool {
	n := min(w.left, walkChunk)
	if n == 0 {
		return false
	}
	w.i, w.n, w.left = 0, n, w.left-n
	if !w.packed {
		// Every slot is copied in, and an empty one written over by the
		// next: a branch on emptiness would be mispredicted at every load.
		k := w.k
		for j := 0; j < n; k++ {
			x, f := w.t.pairAt(k)
			w.xs[j], w.fs[j] = x, uint64(f)
			j += int((uint64(f) | -uint64(f)) >> 63) // 1 unless f is 0
		}
		w.k = k
		return true
	}
	// pack wrote every code, so none runs past the bits or overflows.
	w.run.Pairs(w.px, w.pf, w.xs[:n], w.fs[:n])
	x := w.x
	for j := range n {
		x += w.xs[j] + 1
		w.xs[j], w.fs[j] = x, uint64(weightOfCode(w.fs[j]))
	}
	w.x = x
	return true
}

// home returns the slot x hashes to in a hashed table of that many slots: a
// Fibonacci multiplicative hash scaled to the slot count by a multiply-high,
// which at a power of two is the hash's top bits.
func home(x uint64, slots int) int {
	hi, _ := bits.Mul64(x*0x9E3779B97F4A7C15, uint64(slots))
	return int(hi)
}

// probe returns the slot of a hashed table holding x and x's weight, or the
// empty slot where x belongs and zero. The load cap of 3/4 guarantees an
// empty slot ends every probe. The home slot is a function of the whole
// identifier and the slot count, so a table is laid out the same at every
// width.
func (t table) probe(x uint64) (int, int64) {
	n := t.slots()
	j := home(x, n)
	for {
		if sx, f := t.pairAt(j); f == 0 || sx == x {
			return j, f
		}
		if j++; j == n {
			j = 0
		}
	}
}

// remove deletes the pair in slot j of a hashed table, shifting back every
// later entry of the run that would otherwise be cut off from its home slot.
// The sketch's n is the caller's to count down.
func (t table) remove(j int) {
	n := t.slots()
	// behind returns how far slot k lies past slot i, going round the table.
	behind := func(i, k int) int {
		if k < i {
			k += n
		}
		return k - i
	}
	for k := j + 1; ; k++ {
		if k == n {
			k = 0
		}
		x, f := t.pairAt(k)
		if f == 0 {
			break
		}
		// Entry k may fill the hole unless its home lies cyclically in (j, k].
		if behind(home(x, n), k) >= behind(j, k) {
			t.setPair(j, x, f)
			j = k
		}
	}
	t.setPair(j, 0, 0)
}

// grow moves the pairs to a hashed table with room for one more, at the
// width they have: the first table, a full hashed one's next step, or a
// packed run unpacked.
func (c *CountSketch) grow() {
	var w pairs
	c.walk(&w)
	old, size := c.retable(stepFor(int(c.n)+1), c.rung)
	t := c.table()
	for x, f, ok := w.next(); ok; x, f, ok = w.next() {
		j, _ := t.probe(x)
		t.setPair(j, x, f)
	}
	c.maker.release(old, size)
}

// retable gives an items-form sketch an empty hashed table from the arena,
// at a step of the ladder and a rung, with Σf²'s high word carried over. It
// returns the block the sketch had and its bytes, for the caller to hand
// back (release) once read.
func (c *CountSketch) retable(step, rung uint8) (old unsafe.Pointer, size int) {
	old, size, hi := c.p, c.Bytes(), c.f2hi()
	c.rung, c.step = rung, step
	c.p = c.maker.arena.take(c.Bytes())
	if h := c.hiWord(); h != nil {
		*h = hi
	}
	return old, size
}

// widenTable rewrites the table slot for slot one rung up: a copy, not a
// re-hash. A pair since cancelled does not narrow it again.
func (c *CountSketch) widenTable() {
	from := c.table()
	old, size := c.retable(c.step, c.rung+1)
	t := c.table()
	for k := range from.slots() {
		if x, f := from.pairAt(k); f != 0 {
			t.setPair(k, x, f)
		}
	}
	c.maker.release(old, size)
}

// promote moves an items-form sketch to the dense form: every pair is
// hashed into a zeroed array with the maker's row hashes and the rows are
// summed in index order, so the result does not depend on table layout.
func (c *CountSketch) promote() {
	var w pairs
	c.walk(&w)
	old, size := c.p, c.Bytes()
	c.allocDense()
	c.scatter(&w)
	c.sumSquares()
	c.maker.release(old, size)
}

// scatter adds the pairs of a walk to a dense sketch's counters with the
// maker's row hashes, a buffer at a time, leaving rowF2 for the caller to
// re-sum. A counter that would leave the stored width widens the array, and
// the pass resumes at that pair and row.
func (c *CountSketch) scatter(w *pairs) {
	m := c.maker
	for w.read() {
		xs, fs := w.xs[:w.n], w.fs[:w.n]
		for j, i := 0, 0; ; c.widen() {
			switch c.cw {
			case 1:
				j, i = scatterPairs(m, countersOf[int8](c), xs, fs, j, i)
			case 2:
				j, i = scatterPairs(m, countersOf[int16](c), xs, fs, j, i)
			default:
				j, i = scatterPairs(m, countersOf[int64](c), xs, fs, j, i)
			}
			if j == len(xs) {
				break
			}
		}
	}
}

// allocDense switches a sketch to the dense form with zero counters at the
// narrowest width. It lets go of the items block without handing it back:
// the caller may still be reading it. From the maker's first dense sketch
// on, its arena keeps a free run for a query's composition: its array at
// the three widths side by side, as widening from int8 to int64 lays them.
func (c *CountSketch) allocDense() {
	m := c.maker
	m.arena.keep = uint64(m.denseBytes(1)+m.denseBytes(2)+m.denseBytes(8)) / 8
	*c = CountSketch{maker: m, p: m.arena.take(m.denseBytes(1)), cw: 1, dense: true}
}

// sumSquares sets each rowF2 entry to the sum, in index order, of the
// squares of that row's counters, which also clears any float drift the
// incremental maintenance accumulated.
func (c *CountSketch) sumSquares() {
	switch c.cw {
	case 1:
		sumRows(countersOf[int8](c), c.rowF2())
	case 2:
		sumRows(countersOf[int16](c), c.rowF2())
	default:
		sumRows(countersOf[int64](c), c.rowF2())
	}
}

// Reset implements Resetter: back to the empty items form, holding nothing but
// its maker. A dense block, a table or a run goes back to the arena zeroed for the
// next sketch that needs its size; the first update takes a table at the
// bottom rung, so a recycled sketch starts as a new one does.
func (c *CountSketch) Reset() {
	m := c.maker
	m.release(c.p, c.Bytes())
	*c = CountSketch{maker: m}
}

// Estimate implements Sketch. In the items form it is F2 itself. Once
// dense it is the median over rows of the sum of squared counters, the AMS
// estimator of F2. The core structure consults it on bucket-closing checks,
// so the common small depths are branch-free special cases and nothing
// ever allocates.
func (c *CountSketch) Estimate() float64 {
	if !c.dense {
		return math.Ldexp(float64(c.f2hi()), 64) + float64(c.f2lo)
	}
	r := c.rowF2()
	switch len(r) {
	case 1:
		return r[0]
	case 2:
		return (r[0] + r[1]) / 2
	case 3:
		return r[0] + r[1] + r[2] - math.Max(r[0], math.Max(r[1], r[2])) -
			math.Min(r[0], math.Min(r[1], r[2]))
	case 4:
		lo := math.Min(math.Min(r[0], r[1]), math.Min(r[2], r[3]))
		hi := math.Max(math.Max(r[0], r[1]), math.Max(r[2], r[3]))
		return (r[0] + r[1] + r[2] + r[3] - lo - hi) / 2
	}
	ests := c.maker.medScratch[:len(r)]
	copy(ests, r)
	return median(ests)
}

// ThresholdBudget implements BudgetEstimator. A weight-w update moves one
// counter per row by ±w, so a row's L2 norm grows by at most w and its sum
// of squares stays below (sqrt(rowF2)+W)² after W total weight. The median
// over rows is bounded by the max row, giving a safe check-free budget of
// sqrt(thresh) − sqrt(max rowF2). The frequency vector of the items form
// obeys the same bound; its budget is also capped at the pairs left before
// promotion, each of which costs at least one unit of weight, so the sketch
// cannot change form — and with it its estimator — inside the budget.
func (c *CountSketch) ThresholdBudget(thresh float64) int64 {
	if !c.dense {
		f2 := c.Estimate()
		if f2 >= thresh {
			return 0
		}
		return min(int64(math.Sqrt(thresh)-math.Sqrt(f2)), int64(c.maker.itemsMax-int(c.n)))
	}
	maxRow := 0.0
	for _, v := range c.rowF2() {
		if v > maxRow {
			maxRow = v
		}
	}
	if maxRow >= thresh {
		return 0
	}
	return int64(math.Sqrt(thresh) - math.Sqrt(maxRow))
}

// EstimateItem implements ItemEstimator: x's net frequency itself in the
// items form, and once dense the median over rows of sign * counter, the
// CountSketch point estimate of it.
func (c *CountSketch) EstimateItem(x uint64) float64 {
	if !c.dense {
		return float64(c.weightOf(x))
	}
	m := c.maker
	ests := m.medScratch[:m.depth]
	for i, v := range m.slotsOf(x)[:m.depth] {
		sign := int64(v&1)*2 - 1
		ests[i] = float64(sign * c.at(i*m.width+int(v>>1)))
	}
	return median(ests)
}

// Merge implements Sketch. The other sketch may come from the same maker
// or from an equivalent one (identical geometry and hash functions — the
// distributed-merge case). An items-form operand is added pair by pair, so
// two items-form sketches merge into the union of their pairs and promote
// as one sketch fed both streams would have; a dense operand promotes the
// receiver and is added counter-wise, with the rows re-summed in index
// order.
func (c *CountSketch) Merge(other Sketch) error {
	o, ok := other.(*CountSketch)
	if !ok || !c.maker.equivalent(o.maker) {
		return ErrIncompatible
	}
	if !o.dense {
		var w pairs
		o.walk(&w)
		if o == c {
			// Doubling every weight unpacks a run and widens a table a
			// weight no longer fits, either of which hands the block under
			// this walk back to the maker.
			w.detach(c)
		}
		for x, f, ok := w.next(); ok; x, f, ok = w.next() {
			c.Add(x, f)
		}
		return nil
	}
	if !c.dense {
		c.promote()
	}
	c.addCounters(o)
	c.sumSquares()
	return nil
}

// addCounters adds dense o's counters to dense c's, index by index, widening
// c's array when a sum would not fit it, and unpacking it first if it is
// packed. o may be c.
func (c *CountSketch) addCounters(o *CountSketch) {
	if c.cw == 0 {
		c.unpack()
	}
	for j, n := 0, c.maker.depth*c.maker.width; ; c.widen() {
		switch c.cw {
		case 1:
			j = addFrom(countersOf[int8](c), o, j)
		case 2:
			j = addFrom(countersOf[int16](c), o, j)
		default:
			j = addFrom(countersOf[int64](c), o, j)
		}
		if j == n {
			return
		}
	}
}

// compose returns the sketch of the union of parts, all sketches of m: the
// counters that folding them one by one into m.New() gives, for less work.
// When the result has to be dense anyway, parts are added to it with
// integer arithmetic alone and the rows are summed once at the end.
func (m *F2Maker) compose(parts []Sketch) Sketch {
	m.arena.query = true
	defer func() { m.arena.query = false }()
	out := m.New().(*CountSketch)
	dense, total := false, 0
	for _, p := range parts {
		o := p.(*CountSketch)
		dense = dense || o.dense
		total += int(o.n)
	}
	if !dense && total <= m.itemsMax {
		for _, p := range parts {
			_ = out.Merge(p) // stays in the items form: the answer is exact
		}
		return out
	}
	out.allocDense()
	var w pairs
	for _, p := range parts {
		if o := p.(*CountSketch); o.dense {
			out.addCounters(o)
		} else {
			o.walk(&w)
			out.scatter(&w)
		}
	}
	out.sumSquares()
	return out
}

// Size implements Sketch: the counters stored, two words (x and weight)
// per pair of the items form and width·depth once dense.
func (c *CountSketch) Size() int {
	if !c.dense {
		return 2 * int(c.n)
	}
	return c.maker.width * c.maker.depth
}

// Bytes returns the memory behind the sketch's state, its arena block: in the
// items form a hashed table's slots at 4, 8 or 16 bytes each, empty ones
// included, or a packed run's head and bits, and, at 8 or 16, Σf²'s high
// word; once dense, the row sums and the counters at their stored width, or
// packed. It is what Size stopped showing when a pair stopped being two words
// and a counter one, and unlike Size it belongs to the sketch in memory, not
// to its image: a table grown or widened for pairs since cancelled, or an array
// widened for a counter since cancelled, restores smaller, and a run or a
// packed array restores unpacked, for its owner to pack again.
func (c *CountSketch) Bytes() int {
	switch {
	case c.dense && c.cw == 0:
		_, _, size := c.frame()
		return size
	case c.dense:
		return c.maker.denseBytes(c.cw)
	case c.step != 0:
		return hiLen(c.rung) + 8*slotWords(c.slots(), c.rung)
	case c.p != nil:
		_, _, _, size := c.run()
		return size
	}
	return 0
}
