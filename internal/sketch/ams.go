package sketch

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"github.com/streamagg/correlated/internal/hash"
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
// an all-int64 array give; Bytes reports what the widths change. The layer is
// closed at one to two bytes a counter: further space has to come from fewer
// counters (α and the sketch width, ROADMAP.md), not narrower ones.
//
// The same rule says when a table is finished: a closed bucket splits on the
// next arrival and ingest never writes to it again, so Compact rewrites a
// table as exactly its n pairs in ascending x — a cut table, which a hashed
// one (at most ¾ full) never looks like, so the slot count beside n is the
// whole record of it (cut). Lookups binary-search a cut table, walks read it
// like any other, and the first write to one (only a merge does that) hashes
// it again first.
//
// And it says what a sketch's life costs: born at eight slots, doubled as
// pairs arrive up to the promotion point, then promoted, cut or evicted —
// every step leaves a table behind. Those go back to the maker (putTable),
// zeroed, for the next step of the next sketch, as dense arrays always have:
// what the apply path allocates is then close to what it keeps, which is what
// a resident set follows. The storage a sketch holds is its own until it
// hands it back and nobody's view of it after; the one walk that could
// outlive its table, a merge of a sketch into itself, reads a copy.
type CountSketch struct {
	maker *F2Maker

	// Items form: the table's words and rung (see table), held as two fields
	// rather than one table value so that the rung shares a word with n and
	// the other one-byte fields. A slot with weight 0 is empty: a pair whose
	// weight returns to zero is deleted by backward shift, so probe chains
	// never cross a stale slot and the table never holds more than n entries.
	tab   []uint64
	n     int32 // items: pairs held, at most the maker's itemsMax
	rung  uint8 // items: a slot is 4<<rung bytes
	shift uint8 // items: 64 − log2(slots), the multiplicative-hash shift of a hashed table
	cw    uint8 // dense: bytes per stored counter — 1, 2 or 8
	dense bool

	f2hi, f2lo uint64 // Σf² over the pairs, a 128-bit integer

	// Dense form. Items-form sketches — most of a summary — hold no array at
	// all, so the dense headers sit behind one pointer, set by the first
	// promotion and kept across Reset: the struct is 64 bytes, not 112, and
	// only a dense sketch may touch what the pointer leads to.
	*denseState
}

// denseState is what only a dense sketch holds: d*w counters, row-major
// (flat for locality), in the one array cw names. Nearly every dense sketch
// stays at one byte, so only that array has its header here; the other two
// sit behind a second pointer set by the first widening, which keeps this in
// the 64-byte size class — three headers here would make it 96.
type denseState struct {
	c8    []int8
	wide  *wideCounters
	rowF2 []float64 // incrementally maintained sum of squares per row
}

// wideCounters holds the array of a dense sketch past int8; Reset drops it.
type wideCounters struct {
	c16 []int16
	c64 []int64
}

// table is the storage of the items form: open addressed over power-of-two
// many slots, or cut to exactly the pairs held, each slot one distinct
// identifier and its net weight. A slot is four bytes, eight or sixteen — the
// rung — and always identifier above weight: 24 bits over 8, two slots a word,
// the even slot in the low half; 32 over 32, one word; or two words,
// identifier then weight. All three live in the one slice, so none costs the
// sketch a second header, and a table value is a view: a copy reads and
// writes the same slots, and is dead once the table has gone back to the
// maker (putTable).
type table struct {
	tab  []uint64
	rung uint8 // a slot is 4<<rung bytes
}

// table returns a view of the sketch's own table.
func (c *CountSketch) table() table { return table{c.tab, c.rung} }

// setTable makes t the sketch's table.
func (c *CountSketch) setTable(t table) { c.tab, c.rung = t.tab, t.rung }

// slots, pairAt and setPair are the table's, read through the view.
func (c *CountSketch) slots() int                            { return c.table().slots() }
func (c *CountSketch) pairAt(j int) (uint64, int64)          { return c.table().pairAt(j) }
func (c *CountSketch) setPair(j int, x uint64, f int64) bool { return c.table().setPair(j, x, f) }

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

// tableWords returns the words behind that many slots at a rung.
func tableWords(slots int, rung uint8) int { return (slots<<rung + 1) / 2 }

const (
	// itemsDivisor sets the promotion point: a sketch goes dense when it
	// would hold more than width·depth/itemsDivisor pairs. What that buys is
	// exact answers up to that many distinct identifiers, with Size — two
	// words a pair — topping out at half the array's width·depth. Bytes no
	// longer argue for a smaller one: at corrd's 356×4 a table that full is
	// 2 048 bytes at four bytes a slot, 1 424 once cut, against the
	// 1 456-byte one-byte array it promotes into.
	itemsDivisor = 4
	itemsMinCap  = 8 // initial table slots
)

// F2Maker creates CountSketch instances sharing one set of row hashes.
// Each row uses a single 4-universal hash drawn into [0, 2w): the low bit
// is the sign and the remaining bits pick the counter, so the (bucket,
// sign) pair is jointly 4-wise independent at half the hashing cost —
// the Thorup–Zhang trick.
//
// It is also where its sketches' storage waits between owners: free lists
// of reset sketches, of zeroed dense arrays by counter width and of zeroed
// items tables by size, each bounded by a constant (maxPool, maxWidePool,
// maxTablePool; PooledBytes adds them up). A maker and its lists belong to one
// goroutine at a time, the one driving its sketches.
//
// And it keeps the books: every table and array a sketch holds came through
// the maker and goes back through it, so HeldBytes — Σ Bytes over its
// sketches — is a running count kept at those hand-overs, and reading it
// walks nothing. The count follows storage, not reachability: a sketch holding
// a table must be Recycled (or Reset) before it is dropped, or its bytes stay
// on the books.
type F2Maker struct {
	width, depth int
	rowH         []*hash.FourWise

	itemsMax int // most pairs an items-form sketch holds

	held    int // Σ Bytes() over the maker's sketches
	headers int // the structs of the sketches New handed out and Recycle has not taken back

	pool []*CountSketch // free list of reset (empty, items-form) sketches
	// Zeroed dense arrays for the next promotions (pool8) and widenings,
	// at most maxPool between them: see maxWidePool.
	pool8  [][]int8
	pool16 [][]int16
	pool64 [][]int64
	// Zeroed hashed tables for the next retable, by size class: tables[k]
	// holds at most maxTablePool tables of 4<<k words, up to the words of an
	// eight-byte table at the promotion point. A sketch's life is a walk up
	// these classes — 8 slots, 16, … — and every step hands the table it
	// leaves back here rather than to the collector.
	tables [][][]uint64

	medScratch  []float64 // reused by Estimate/EstimateItem
	slotScratch Slots     // reused by slotsOf
	keyScratch  []uint64  // reused by AppendBinary to order the pairs
}

// NewF2Maker returns a Maker for CountSketch/AMS sketches with d rows of w
// counters each. Width drives the per-row relative error (~sqrt(2/w)),
// depth drives the failure probability.
func NewF2Maker(width, depth int, rng *hash.RNG) *F2Maker {
	if width < 1 || depth < 1 {
		panic("sketch: F2Maker width and depth must be >= 1")
	}
	m := &F2Maker{
		width: width, depth: depth,
		itemsMax:   min(width*depth/itemsDivisor, math.MaxInt32), // n is an int32
		medScratch: make([]float64, depth),
	}
	m.tables = make([][][]uint64, tableClass(tableFor(m.itemsMax+1))+1)
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

// Recycle implements Recycler. The sketch's table or array goes back to the
// maker's lists whether or not the list of sketches has room for the struct:
// one group can evict hundreds of buckets at once.
func (m *F2Maker) Recycle(sk Sketch) {
	cs, ok := sk.(*CountSketch)
	if !ok || cs.maker != m {
		return
	}
	cs.Reset()
	m.headers -= countSketchBytes
	if len(m.pool) < maxPool {
		m.pool = append(m.pool, cs)
	}
}

// tableClass returns the free list a table of that many words belongs to:
// powers of two from 4 — eight four-byte slots — up. Anything else, which only
// a cut table is, gets a class no maker keeps.
func tableClass(words int) int {
	if words < 4 || words&(words-1) != 0 {
		return math.MaxInt
	}
	return bits.TrailingZeros(uint(words)) - 2
}

// takeTable returns that many zeroed words for a sketch to hold, pooled if
// there are any.
func (m *F2Maker) takeTable(words int) []uint64 {
	m.held += 8 * words
	if k := tableClass(words); k < len(m.tables) {
		return takeArray(&m.tables[k], words)
	}
	return make([]uint64, words)
}

// putTable takes back a table its sketch has left, zeroing it for the next
// retable — or leaves it to the collector when it is cut, wider than the lists
// go, or its list is full. Every view of the table is dead from here on.
func (m *F2Maker) putTable(tab []uint64) {
	m.held -= 8 * len(tab)
	if k := tableClass(len(tab)); k < len(m.tables) {
		putArray(&m.tables[k], tab, maxTablePool)
	}
}

// PooledBytes returns the bytes the maker's free lists hold — zeroed tables
// and dense arrays waiting for the next sketch that needs one, memory that is
// in no sketch's Bytes — and the most they can hold.
func (m *F2Maker) PooledBytes() (held, bound int) {
	for k, list := range m.tables {
		held += len(list) * (32 << k)
		bound += maxTablePool * (32 << k)
	}
	array := m.width * m.depth
	held += array * (len(m.pool8) + 2*len(m.pool16) + 8*len(m.pool64))
	bound += array * (maxNarrowPool + (2+8)*maxWidePool)
	return held, bound
}

// HeldBytes returns Σ Bytes over the maker's sketches: the tables and arrays
// they hold right now, free lists excluded. It is a field read.
func (m *F2Maker) HeldBytes() int { return m.held }

// HeaderBytes returns the memory of the sketch structs themselves, which no
// sketch's Bytes counts: a CountSketch for each sketch handed out and not
// recycled, a denseState for each dense one and a wideCounters for each past
// int8, each at its allocator size class; not the denseState a recycled
// sketch keeps while it is back in the items form.
func (m *F2Maker) HeaderBytes() int { return m.headers }

// What the allocator hands out for the three structs: 64 bytes is a size
// class of its own, 56 rounds up to it, and 48 is one too.
const (
	countSketchBytes  = (int(unsafe.Sizeof(CountSketch{})) + 15) &^ 15
	denseStateBytes   = (int(unsafe.Sizeof(denseState{})) + 15) &^ 15
	wideCountersBytes = (int(unsafe.Sizeof(wideCounters{})) + 15) &^ 15
)

// NewF2MakerError returns a Maker sized for relative error upsilon with
// failure probability gamma. Following the paper's own experimental setup,
// the sizing uses practical constants rather than the worst-case proof
// constants: width 4/υ² (per-row standard deviation ≈ υ/√2) and a row
// count that grows with log(1/γ) but is capped at 9, which in combination
// with the median already gives sub-percent failure rates in practice.
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

// Name implements Maker.
func (m *F2Maker) Name() string { return "f2/countsketch" }

// New implements Maker. It reuses a pooled sketch when one is available.
// Either way the sketch is empty and in the items form: it allocates its
// table on the first update, and a dense array only if it promotes.
func (m *F2Maker) New() Sketch {
	m.headers += countSketchBytes
	if n := len(m.pool); n > 0 {
		cs := m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		return cs
	}
	return &CountSketch{maker: m}
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
	// A counter that would leave the stored width stops the pass; the array
	// is widened and the pass resumes at that row.
	rows, rowF2, width := slots[:d], c.rowF2, c.maker.width
	for i := 0; ; c.widen() {
		switch c.cw {
		case 1:
			i = addRows(c.c8, rowF2, rows, w, width, i)
		case 2:
			i = addRows(c.wide.c16, rowF2, rows, w, width, i)
		default:
			i = addRows(c.wide.c64, rowF2, rows, w, width, i)
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
	if c.cut() {
		c.grow() // the first table, or a cut one hashed again
	}
	j, old := c.probe(x)
	f := old + w
	switch {
	case old != 0 && f != 0:
		c.store(j, x, f)
	case old != 0:
		c.remove(j)
	case int(c.n) >= c.maker.itemsMax:
		c.promote()
		return false
	default:
		if int(c.n+1)*4 > c.slots()*3 {
			c.grow()
			j, _ = c.probe(x)
		}
		c.store(j, x, f)
		c.n++
	}
	c.moveF2(old, f)
	return true
}

// store puts (x, f) in slot j, widening the table first if its slots cannot
// hold the pair. Widening moves no pair, so j stays x's slot.
func (c *CountSketch) store(j int, x uint64, f int64) {
	for !c.setPair(j, x, f) {
		c.widenTable()
	}
}

// moveF2 accounts in Σf² for one pair's weight going from old to f: the sum
// moves by f² − old², taken modulo 2^128.
func (c *CountSketch) moveF2(old, f int64) {
	oh, ol := bits.Mul64(magnitude(old), magnitude(old))
	nh, nl := bits.Mul64(magnitude(f), magnitude(f))
	lo, carry := bits.Add64(c.f2lo, nl, 0)
	hi, _ := bits.Add64(c.f2hi, nh, carry)
	lo, borrow := bits.Sub64(lo, ol, 0)
	c.f2hi, _ = bits.Sub64(hi, oh, borrow)
	c.f2lo = lo
}

// magnitude returns |v| as a uint64 (2^63 for the minimum int64).
func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// weightOf returns the weight of x's pair in the items form, 0 if there is
// none: a binary search of a cut table, a probe of a hashed one.
func (c *CountSketch) weightOf(x uint64) int64 {
	if !c.cut() {
		_, f := c.probe(x)
		return f
	}
	j, found := sort.Find(int(c.n), func(j int) int {
		sx, _ := c.pairAt(j)
		return cmp.Compare(x, sx)
	})
	if !found {
		return 0
	}
	_, f := c.pairAt(j)
	return f
}

// Compact implements Compacter: an items-form sketch's table is cut to fit —
// rewritten as exactly its n pairs, every slot full, in ascending x — which
// is half the bytes of the hashed table a bucket closes with. Nothing a
// caller can see changes but Bytes, and the sketch stays fully usable: the
// next write hashes the table again. A dense sketch has no slack to shed, and
// no table: it reads as cut.
func (c *CountSketch) Compact() {
	if c.cut() {
		return
	}
	m, old := c.maker, c.table()
	fit := table{m.takeTable(tableWords(int(c.n), old.rung)), old.rung}
	if old.rung == slot16 {
		j := 0
		for k := range old.slots() {
			if x, f := old.pairAt(k); f != 0 {
				fit.setPair(j, x, f)
				j++
			}
		}
		sort.Sort(widePairs(fit.tab))
	} else {
		// Identifier above weight: written as an eight-byte slot, whichever
		// rung it came from, a pair orders by identifier.
		keys := m.keyScratch[:0]
		for k := range old.slots() {
			if x, f := old.pairAt(k); f != 0 {
				keys = append(keys, x<<32|uint64(uint32(f)))
			}
		}
		slices.Sort(keys)
		for j, w := range keys {
			fit.setPair(j, w>>32, int64(int32(w)))
		}
		m.keyScratch = keys
	}
	c.setTable(fit)
	m.putTable(old.tab)
}

// widePairs orders the two-word slots of a full wide table by identifier.
type widePairs []uint64

func (p widePairs) Len() int           { return len(p) / 2 }
func (p widePairs) Less(i, j int) bool { return p[2*i] < p[2*j] }
func (p widePairs) Swap(i, j int) {
	p[2*i], p[2*j] = p[2*j], p[2*i]
	p[2*i+1], p[2*j+1] = p[2*j+1], p[2*i+1]
}

// home returns the slot x hashes to: the top bits of a Fibonacci
// multiplicative hash.
func (c *CountSketch) home(x uint64) int { return int(x * 0x9E3779B97F4A7C15 >> c.shift) }

// probe returns the slot holding x and x's weight, or the empty slot where x
// belongs and zero. The load cap of 3/4 guarantees an empty slot ends every
// probe. The home slot is a function of the whole identifier and the slot
// count, so a table is laid out the same at both widths.
func (c *CountSketch) probe(x uint64) (int, int64) {
	t := c.table()
	mask := t.slots() - 1
	for j := c.home(x); ; j = (j + 1) & mask {
		if sx, f := t.pairAt(j); f == 0 || sx == x {
			return j, f
		}
	}
}

// remove deletes the pair in slot j, shifting back every later entry of the
// run that would otherwise be cut off from its home slot.
func (c *CountSketch) remove(j int) {
	t := c.table()
	mask := t.slots() - 1
	for k := (j + 1) & mask; ; k = (k + 1) & mask {
		x, f := t.pairAt(k)
		if f == 0 {
			break
		}
		// Entry k may fill the hole unless its home lies cyclically in (j, k].
		if (k-c.home(x))&mask >= (k-j)&mask {
			t.setPair(j, x, f)
			j = k
		}
	}
	t.setPair(j, 0, 0)
	c.n--
}

// cut reports whether the table is exactly the pairs held, in ascending x —
// what Compact leaves, and what an empty sketch without a table is. Its slots
// are its pairs and, for an odd number of them at four bytes, the spare half
// of the last word; a hashed table, at most ¾ full of at least eight slots,
// always has two empty slots or more. Only a table that is not cut can be
// probed.
func (c *CountSketch) cut() bool { return c.slots()-int(c.n) < 2 }

// grow moves the pairs to a hashed table with room for one more, at the
// width they have: the first table, twice a full hashed one, or what a cut
// one needs.
func (c *CountSketch) grow() {
	old := c.table()
	c.retable(tableFor(int(c.n)+1), old.rung)
	for k := range old.slots() {
		if x, f := old.pairAt(k); f != 0 {
			j, _ := c.probe(x)
			c.setPair(j, x, f)
		}
	}
	c.maker.putTable(old.tab)
}

// retable gives an items-form sketch an empty hashed table from the maker's
// lists. The table it had is the caller's to hand back, once read.
func (c *CountSketch) retable(slots int, rung uint8) {
	c.setTable(table{c.maker.takeTable(tableWords(slots, rung)), rung})
	c.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
}

// widenTable rewrites the table slot for slot one rung up: a copy, not a
// re-hash. A pair since cancelled does not narrow it again.
func (c *CountSketch) widenTable() {
	old := c.table()
	c.retable(old.slots(), old.rung+1)
	for k := range old.slots() {
		x, f := old.pairAt(k)
		c.setPair(k, x, f)
	}
	c.maker.putTable(old.tab)
}

// tableFor returns the table size that holds n pairs without growing.
func tableFor(n int) int {
	size := itemsMinCap
	for n*4 > size*3 {
		size *= 2
	}
	return size
}

// promote moves an items-form sketch to the dense form: every pair is
// hashed into a zeroed array with the maker's row hashes and the rows are
// summed in index order, so the result does not depend on table layout.
func (c *CountSketch) promote() {
	pairs := c.table()
	c.allocDense()
	c.scatter(pairs)
	c.sumSquares()
	c.maker.putTable(pairs.tab)
}

// scatter adds the pairs of an items table to a dense sketch's counters,
// leaving rowF2 for the caller to re-sum.
func (c *CountSketch) scatter(tab table) {
	m := c.maker
	for k, i := 0, 0; ; c.widen() {
		switch c.cw {
		case 1:
			k, i = scatterPairs(m, c.c8, tab, k, i)
		case 2:
			k, i = scatterPairs(m, c.wide.c16, tab, k, i)
		default:
			k, i = scatterPairs(m, c.wide.c64, tab, k, i)
		}
		if k == tab.slots() {
			return
		}
	}
}

// allocDense switches a sketch to the dense form with zero counters at the
// narrowest width. It lets go of the table without handing it back: the
// caller may still be reading it.
func (c *CountSketch) allocDense() {
	m := c.maker
	c.setTable(table{})
	c.n, c.f2hi, c.f2lo = 0, 0, 0
	if c.denseState == nil {
		c.denseState = &denseState{rowF2: make([]float64, m.depth)}
	}
	c.c8, c.cw = takeArray(&m.pool8, m.depth*m.width), 1
	clear(c.rowF2)
	c.dense = true
	m.held += c.Bytes()
	m.headers += denseStateBytes
}

// sumSquares sets each rowF2 entry to the sum, in index order, of the
// squares of that row's counters, which also clears any float drift the
// incremental maintenance accumulated.
func (c *CountSketch) sumSquares() {
	switch c.cw {
	case 1:
		sumRows(c.c8, c.rowF2)
	case 2:
		sumRows(c.wide.c16, c.rowF2)
	default:
		sumRows(c.wide.c64, c.rowF2)
	}
}

// Reset implements Resetter: back to the empty items form, holding nothing. A
// dense array or a hashed table is zeroed and pooled for the next sketch that
// needs its size; the first update takes a table at the bottom rung, so a
// recycled sketch starts as a new one does.
func (c *CountSketch) Reset() {
	if c.dense {
		if c.cw > 1 {
			c.maker.headers -= wideCountersBytes
		}
		c.release()
		c.wide, c.dense = nil, false
		c.maker.held -= 8 * len(c.rowF2)
		c.maker.headers -= denseStateBytes
	}
	c.maker.putTable(c.tab)
	c.setTable(table{})
	c.n, c.f2hi, c.f2lo = 0, 0, 0
}

// Estimate implements Sketch. In the items form it is F2 itself. Once
// dense it is the median over rows of the sum of squared counters, the AMS
// estimator of F2. The core structure consults it on bucket-closing checks,
// so the common small depths are branch-free special cases and nothing
// ever allocates.
func (c *CountSketch) Estimate() float64 {
	if !c.dense {
		return math.Ldexp(float64(c.f2hi), 64) + float64(c.f2lo)
	}
	r := c.rowF2
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
	for _, v := range c.rowF2 {
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
		pairs := o.table()
		if o == c {
			// Doubling every weight hashes a cut table again and widens one
			// a weight no longer fits, either of which hands the table under
			// this walk back to the maker.
			pairs.tab = slices.Clone(pairs.tab)
		}
		for k := range pairs.slots() {
			if x, f := pairs.pairAt(k); f != 0 {
				c.Add(x, f)
			}
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
// c's array when a sum would not fit it. o may be c.
func (c *CountSketch) addCounters(o *CountSketch) {
	for j, n := 0, c.maker.depth*c.maker.width; ; c.widen() {
		switch c.cw {
		case 1:
			j = addFrom(c.c8, o, j)
		case 2:
			j = addFrom(c.wide.c16, o, j)
		default:
			j = addFrom(c.wide.c64, o, j)
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
	out := m.New().(*CountSketch)
	dense, pairs := false, 0
	for _, p := range parts {
		o := p.(*CountSketch)
		dense = dense || o.dense
		pairs += int(o.n)
	}
	if !dense && pairs <= m.itemsMax {
		for _, p := range parts {
			_ = out.Merge(p) // stays in the items form: the answer is exact
		}
		return out
	}
	out.allocDense()
	for _, p := range parts {
		if o := p.(*CountSketch); o.dense {
			out.addCounters(o)
		} else {
			out.scatter(o.table())
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

// Bytes returns the memory behind the sketch's state: in the items form the
// table's slots at 4, 8 or 16 bytes each — empty ones included, of which a cut
// table has none but the spare half word of an odd count at four bytes — and
// once dense, the counters at their stored width and the row sums. It is what
// Size stopped showing when a pair stopped being two words and a counter one,
// and unlike Size it belongs to the sketch in memory, not to its image: a
// table grown or widened for pairs since cancelled, or an array widened for a
// counter since cancelled, restores smaller, and a cut table restores hashed,
// for its owner to cut again.
func (c *CountSketch) Bytes() int {
	if !c.dense {
		return 8 * len(c.tab)
	}
	return int(c.cw)*c.maker.width*c.maker.depth + 8*len(c.rowF2)
}
