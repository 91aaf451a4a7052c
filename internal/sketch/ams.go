package sketch

import (
	"math"
	"math/bits"

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
// A sketch has two forms behind one API. It starts sparse — an
// open-addressed table of the counters that have been touched — and
// promotes itself once, when it would hold more than the maker's sparseMax
// nonzero counters, to the dense d×w array. Reset takes it back, and so
// does MarshalBinary if counters cancelling out have left no more than
// sparseMax nonzero, so that a sketch and its restored copy agree. The
// reduction of Section 2 keeps one sketch per bucket and most buckets hold
// a handful of items, so most sketches never promote. Both forms run the
// same rowF2 step on the same counter values, so estimates, budgets and
// marshaled bytes do not depend on the form. Size reports what is stored:
// two words per nonzero sparse entry, d·w once dense.
type CountSketch struct {
	maker *F2Maker
	mode  uint8
	shift uint8 // sparse: 32 − log2(len(keys)), the multiplicative-hash shift
	n     int   // sparse: nonzero counters
	used  int   // sparse: occupied slots; zeroed entries linger until a rehash

	data []int64 // dense: d*w counters, row-major (flat for locality)

	// Sparse table, linear probing. A key packs (row, column) as
	// row<<colBits | column, plus one so that zero marks an empty slot.
	keys []uint32
	vals []int64

	rowF2 []float64 // incrementally maintained sum of squares per row
}

// The forms a sketch moves through. AddSlots tests for modeDense alone, so
// the dense ingest loop pays one predictable branch for the other two.
const (
	modeSparse = iota
	modeDense
	// modeMerged is a dense sketch that has not been added to since its
	// rows were last summed from the counters: every rowF2 entry is then
	// the exact integer sum of squares, below exactF2Limit, which lets a
	// sparse operand merge in time proportional to its entries. The
	// composition sketches of Algorithm 3 live here.
	modeMerged
)

const (
	// sparseDivisor sets the promotion point: a sketch goes dense when it
	// would hold more than width·depth/sparseDivisor nonzero counters. At
	// 12 bytes a slot and load ≤ 3/4 the table then tops out near a
	// quarter of the dense array.
	sparseDivisor = 8
	sparseMinCap  = 8 // initial table slots; one item touches depth ≤ 4

	// A float64 sum of squared integers that stays below 2^53 is exact in
	// every order; modeMerged keeps two bits of headroom for the next merge.
	exactF2Limit = 1 << 51
	// mergeValueLimit and mergeEntryLimit keep the integer arithmetic of
	// the O(entries) merge inside int64: |v·(2·old+v)| < 2^48 per entry.
	mergeValueLimit = 1 << 20
	mergeEntryLimit = 1 << 14
)

// F2Maker creates CountSketch instances sharing one set of row hashes.
// Each row uses a single 4-universal hash drawn into [0, 2w): the low bit
// is the sign and the remaining bits pick the counter, so the (bucket,
// sign) pair is jointly 4-wise independent at half the hashing cost —
// the Thorup–Zhang trick.
type F2Maker struct {
	width, depth int
	rowH         []*hash.FourWise

	colBits   uint // bits of a sparse key that hold the column
	sparseMax int  // most nonzero counters a sparse sketch holds
	tabMax    int  // largest sparse table, in slots

	pool       []*CountSketch // free list of reset (empty, sparse) sketches
	densePool  [][]int64      // zeroed dense arrays for the next promotions
	medScratch []float64      // reused by Estimate/EstimateItem
	accScratch []int64        // per-row integer deltas of the O(entries) merge
	flat       []int64        // all-zero d*w array lent out by densified
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
		colBits:    uint(bits.Len(uint(width - 1))),
		medScratch: make([]float64, depth),
		accScratch: make([]int64, depth),
	}
	// A geometry whose packed keys overflow uint32 is far past what fits
	// in memory; its sketches go dense on their first update.
	if uint64(depth)<<m.colBits < math.MaxUint32 {
		m.sparseMax = width * depth / sparseDivisor
	}
	m.tabMax = sparseMinCap
	for m.tabMax/4*3 < m.sparseMax {
		m.tabMax *= 2
	}
	for i := 0; i < depth; i++ {
		m.rowH = append(m.rowH, hash.NewFourWise(rng))
	}
	return m
}

// rowSlot returns the packed slot word for x in row i: a value in [0, 2w)
// whose low bit is the sign and whose remaining bits pick the counter. The
// reduction is Lemire multiply-shift rather than a modulo, which keeps one
// integer division out of the innermost ingest loop.
func (m *F2Maker) rowSlot(i int, x uint64) uint64 {
	return hash.Reduce61(m.rowH[i].Hash(x), uint64(2*m.width))
}

// Slots implements SlotMaker: one packed (counter, sign) word per row.
func (m *F2Maker) Slots(x uint64, scratch Slots) Slots {
	for i := 0; i < m.depth; i++ {
		scratch = append(scratch, m.rowSlot(i, x))
	}
	return scratch
}

// SlotWidth implements SlotMaker.
func (m *F2Maker) SlotWidth() int { return m.depth }

// Recycle implements Recycler.
func (m *F2Maker) Recycle(sk Sketch) {
	cs, ok := sk.(*CountSketch)
	if !ok || cs.maker != m || len(m.pool) >= maxPool {
		return
	}
	cs.Reset()
	m.pool = append(m.pool, cs)
}

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
// Either way the sketch is empty and sparse: it allocates its table on the
// first update, and a dense array only if it promotes.
func (m *F2Maker) New() Sketch {
	if n := len(m.pool); n > 0 {
		cs := m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		return cs
	}
	return &CountSketch{maker: m, rowF2: make([]float64, m.depth)}
}

// Width returns the number of counters per row.
func (m *F2Maker) Width() int { return m.width }

// Depth returns the number of rows.
func (m *F2Maker) Depth() int { return m.depth }

// Add implements Sketch. Each update touches d counters and keeps the
// per-row sum of squares current in O(d) time, so Estimate stays O(d).
func (c *CountSketch) Add(x uint64, w int64) {
	m := c.maker
	w2 := float64(w) * float64(w)
	for i := 0; i < m.depth; i++ {
		c.applySlot(i, m.rowSlot(i, x), w, w2)
	}
}

// AddSlots implements SlotAdder; the state change is bit-identical to
// Add(x, w) for the x the slots were computed from. This is the innermost
// loop of the core structure's ingest path, so locals are hoisted out of
// the per-row body.
func (c *CountSketch) AddSlots(slots Slots, w int64) {
	if c.mode != modeDense {
		c.addSlotsSlow(slots, w)
		return
	}
	w2 := float64(w) * float64(w)
	data, rowF2 := c.data, c.rowF2
	width := c.maker.width
	base := 0
	for i, v := range slots {
		idx := base + int(v>>1)
		old := data[idx]
		delta := (int64(v&1)*2 - 1) * w
		data[idx] = old + delta
		rowF2[i] += float64(2*old*delta) + w2
		base += width
	}
}

// addSlotsSlow is AddSlots for a sketch that is not plain dense. Rows that
// only move a stored nonzero counter to another nonzero value — most of a
// sparse sketch's traffic once its items repeat — are applied in place;
// from the first row that adds or removes an entry, applySlot takes over,
// and may promote the sketch and finish the item densely.
func (c *CountSketch) addSlotsSlow(slots Slots, w int64) {
	w2 := float64(w) * float64(w)
	i := 0
	if c.mode == modeSparse && len(c.keys) > 0 {
		m := c.maker
		for ; i < len(slots); i++ {
			v := slots[i]
			j := c.slot(m.key(i, int(v>>1)))
			old := c.vals[j]
			delta := (int64(v&1)*2 - 1) * w
			if c.keys[j] == 0 || old == 0 || old+delta == 0 {
				break
			}
			c.vals[j] = old + delta
			c.rowF2[i] += float64(2*old*delta) + w2
		}
	}
	for ; i < len(slots); i++ {
		c.applySlot(i, slots[i], w, w2)
	}
}

// applySlot adds sign·w to row i's counter, both encoded in the packed
// slot word v ∈ [0, 2·width); w2 is the caller-hoisted w².
func (c *CountSketch) applySlot(i int, v uint64, w int64, w2 float64) {
	delta := (int64(v&1)*2 - 1) * w
	var old int64
	if c.mode == modeSparse {
		if w == 0 {
			return // no counter moves, and the dense step adds 0 to rowF2
		}
		var stored bool
		if old, stored = c.sparseAdd(c.maker.key(i, int(v>>1)), delta); !stored {
			c.promote()
		}
	}
	if c.mode != modeSparse {
		c.mode = modeDense // an update ends modeMerged's exactness guarantee
		idx := i*c.maker.width + int(v>>1)
		old = c.data[idx]
		c.data[idx] = old + delta
	}
	// (old+delta)^2 - old^2 = 2*old*delta + delta^2, and delta^2 = w^2.
	c.rowF2[i] += float64(2*old*delta) + w2
}

// slot returns the table index holding key k, or the empty one where k
// belongs. The load cap of 3/4 guarantees an empty slot ends every probe.
func (c *CountSketch) slot(k uint32) int {
	mask := len(c.keys) - 1
	j := int(k * 0x9E3779B1 >> c.shift)
	for c.keys[j] != k && c.keys[j] != 0 {
		j = (j + 1) & mask
	}
	return j
}

// sparseAdd adds delta != 0 to the counter under key k and returns its
// previous value. It reports false, changing nothing, when the counter
// would be one nonzero counter more than the sparse form holds — the
// caller promotes and applies the update densely.
func (c *CountSketch) sparseAdd(k uint32, delta int64) (old int64, stored bool) {
	j := -1
	if len(c.keys) > 0 {
		if j = c.slot(k); c.keys[j] == k {
			old = c.vals[j]
		}
	}
	switch {
	case old == 0 && c.n >= c.maker.sparseMax:
		return 0, false
	case old == 0:
		c.n++
	case old+delta == 0:
		c.n--
	}
	if j < 0 || c.keys[j] == 0 {
		if c.used >= len(c.keys)/4*3 {
			c.rehash()
			j = c.slot(k)
		}
		c.keys[j] = k
		c.used++
	}
	c.vals[j] = old + delta
	return old, true
}

// rehash makes room for one more entry: it rebuilds the table without its
// zeroed entries, at twice the size when the nonzero ones alone would
// leave it more than half full. The table never passes tabMax slots:
// promotion caps n at sparseMax.
func (c *CountSketch) rehash() {
	size := len(c.keys)
	switch {
	case size == 0:
		size = sparseMinCap
	case c.n*2 >= size && size < c.maker.tabMax:
		size *= 2
	}
	c.retable(size)
}

// resize gives an empty sparse sketch the table that holds n entries
// without growing.
func (c *CountSketch) resize(n int) {
	size := sparseMinCap
	for size/4*3 < n {
		size *= 2
	}
	if size != len(c.keys) {
		c.retable(size)
	}
}

// retable moves the nonzero entries into a fresh table of size slots.
func (c *CountSketch) retable(size int) {
	keys, vals := c.keys, c.vals
	c.keys, c.vals = make([]uint32, size), make([]int64, size)
	c.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	c.used = 0
	for j, k := range keys {
		if k != 0 && vals[j] != 0 {
			at := c.slot(k)
			c.keys[at], c.vals[at] = k, vals[j]
			c.used++
		}
	}
}

// key packs a counter's position into a sparse table key; zero is kept for
// empty slots.
func (m *F2Maker) key(row, col int) uint32 {
	return (uint32(row)<<m.colBits | uint32(col)) + 1
}

// flatIndex converts a sparse key to its dense array index.
func (m *F2Maker) flatIndex(k uint32) int {
	k--
	return int(k>>m.colBits)*m.width + int(k&(1<<m.colBits-1))
}

// promote moves a sparse sketch's counters into a dense array, leaving
// rowF2 as it stands, and drops the table.
func (c *CountSketch) promote() {
	m := c.maker
	if n := len(m.densePool); n > 0 {
		c.data = m.densePool[n-1]
		m.densePool[n-1] = nil
		m.densePool = m.densePool[:n-1]
	} else {
		c.data = make([]int64, m.depth*m.width)
	}
	for j, k := range c.keys {
		if k != 0 {
			c.data[m.flatIndex(k)] = c.vals[j]
		}
	}
	c.keys, c.vals, c.n, c.used = nil, nil, 0, 0
	c.mode = modeDense
}

// demote is promote's inverse, for a dense sketch that no longer holds
// more than sparseMax nonzero counters. The dense update loop does not
// watch for counters cancelling to zero, so this runs where the counters
// are walked anyway: MarshalBinary, which thereby leaves the sketch in
// the form UnmarshalBinary will choose for the image.
func (c *CountSketch) demote() {
	m := c.maker
	data := c.data
	c.data, c.mode = nil, modeSparse
	for idx, v := range data {
		if v != 0 {
			c.sparseAdd(m.key(idx/m.width, idx%m.width), v)
		}
	}
	m.releaseDense(data)
}

// releaseDense zeroes a dense array and pools it for the next promotion.
func (m *F2Maker) releaseDense(data []int64) {
	if len(m.densePool) < maxPool {
		clear(data)
		m.densePool = append(m.densePool, data)
	}
}

// densified returns the counters as a dense array: the sketch's own, or
// for a sparse sketch the maker's scratch array with the entries copied
// in. The caller must hand a borrowed array back through undensify before
// anything else uses the maker.
func (c *CountSketch) densified() []int64 {
	if c.mode != modeSparse {
		return c.data
	}
	m := c.maker
	if m.flat == nil {
		m.flat = make([]int64, m.depth*m.width)
	}
	for j, k := range c.keys {
		if k != 0 {
			m.flat[m.flatIndex(k)] = c.vals[j]
		}
	}
	return m.flat
}

// undensify zeroes the scratch array densified lent out.
func (c *CountSketch) undensify() {
	if c.mode != modeSparse {
		return
	}
	for _, k := range c.keys {
		if k != 0 {
			c.maker.flat[c.maker.flatIndex(k)] = 0
		}
	}
}

// Reset implements Resetter: back to the empty sparse form. A dense array
// is zeroed and pooled for the next promotion; a table is kept only at
// its initial size, so a recycled sketch starts as small as a new one.
func (c *CountSketch) Reset() {
	m := c.maker
	if c.data != nil {
		m.releaseDense(c.data)
		c.data = nil
	}
	if len(c.keys) > sparseMinCap {
		c.keys, c.vals = nil, nil
	}
	clear(c.keys)
	clear(c.rowF2)
	c.mode, c.n, c.used = modeSparse, 0, 0
}

// Estimate implements Sketch: the median over rows of the sum of squared
// counters, which is the AMS estimator of F2. The core structure consults
// it on bucket-closing checks, so the common small depths are branch-free
// special cases and nothing ever allocates.
func (c *CountSketch) Estimate() float64 {
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
// sqrt(thresh) − sqrt(max rowF2).
func (c *CountSketch) ThresholdBudget(thresh float64) int64 {
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

// counter returns the counter at (row, col) in either form.
func (c *CountSketch) counter(row, col int) int64 {
	if c.mode != modeSparse {
		return c.data[row*c.maker.width+col]
	}
	if len(c.keys) == 0 {
		return 0
	}
	k := c.maker.key(row, col)
	if j := c.slot(k); c.keys[j] == k {
		return c.vals[j]
	}
	return 0
}

// EstimateItem implements ItemEstimator: the median over rows of
// sign * counter, the CountSketch point estimate of x's net frequency.
func (c *CountSketch) EstimateItem(x uint64) float64 {
	m := c.maker
	ests := m.medScratch[:m.depth]
	for i := 0; i < m.depth; i++ {
		v := m.rowSlot(i, x)
		sign := int64(v&1)*2 - 1
		ests[i] = float64(sign * c.counter(i, int(v>>1)))
	}
	return median(ests)
}

// Merge implements Sketch by counter-wise addition. The other sketch may
// come from the same maker or from an equivalent one (identical geometry
// and hash functions — the distributed-merge case). The merged rowF2 is
// the sum of squared counters taken in index order, which also clears any
// float drift the incremental maintenance accumulated; the sparse paths
// compute that same value from the touched entries alone whenever the sum
// is provably exact, and fall back to the ordered pass when it is not.
func (c *CountSketch) Merge(other Sketch) error {
	o, ok := other.(*CountSketch)
	if !ok || !c.maker.equivalent(o.maker) {
		return ErrIncompatible
	}
	m := c.maker
	if o.mode != modeSparse {
		if c.mode == modeSparse {
			c.promote()
		}
		w := m.width
		for i := range c.rowF2 {
			var f2 float64
			for j := i * w; j < (i+1)*w; j++ {
				c.data[j] += o.data[j]
				f2 += float64(c.data[j]) * float64(c.data[j])
			}
			c.rowF2[i] = f2
		}
		c.settle()
		return nil
	}

	// Sparse operand. acc collects, per row, the integer change in the
	// sum of squares; it is used only if the receiver is in modeMerged
	// throughout and every operand value is small.
	acc := m.accScratch
	clear(acc)
	exact := c.mode == modeMerged && o.n <= mergeEntryLimit
	for j, k := range o.keys {
		v := o.vals[j]
		if k == 0 || v == 0 {
			continue
		}
		if c.mode == modeSparse {
			if _, stored := c.sparseAdd(k, v); stored {
				continue
			}
			c.promote()
		}
		idx := m.flatIndex(k)
		old := c.data[idx]
		c.data[idx] = old + v
		if v <= -mergeValueLimit || v >= mergeValueLimit {
			exact = false
		}
		acc[(k-1)>>m.colBits] += v * (2*old + v)
	}
	if exact {
		for i := range acc {
			acc[i] += int64(c.rowF2[i]) // the row's new sum of squares
			exact = exact && acc[i] < exactF2Limit
		}
	}
	if exact {
		for i, f2 := range acc {
			c.rowF2[i] = float64(f2)
		}
		return nil
	}
	if c.mode == modeSparse && c.sumSparse() {
		return nil
	}
	sumSquares(c.densified(), m.width, c.rowF2)
	c.undensify()
	c.settle()
	return nil
}

// sumSparse sets rowF2 from a sparse sketch's table when the result is
// provably the index-order sum: a row total below 2^53 means every square
// and every partial sum, in any order, was an exactly represented integer
// (rounding is monotone, so an inexact term would have carried the total
// past 2^53). It reports false, leaving rowF2 unspecified, otherwise.
func (c *CountSketch) sumSparse() bool {
	clear(c.rowF2)
	for j, k := range c.keys {
		if k != 0 {
			v := float64(c.vals[j])
			c.rowF2[(k-1)>>c.maker.colBits] += v * v
		}
	}
	for _, f2 := range c.rowF2 {
		if !(f2 < 1<<53) {
			return false
		}
	}
	return true
}

// sumSquares sets each rowF2 entry to the sum, in index order, of the
// squares of that row's counters.
func sumSquares(data []int64, width int, rowF2 []float64) {
	for i := range rowF2 {
		var f2 float64
		for _, v := range data[i*width : (i+1)*width] {
			f2 += float64(v) * float64(v)
		}
		rowF2[i] = f2
	}
}

// settle records, after rowF2 was summed from the counters, whether a
// dense sketch may take the O(entries) merge path: a float64 sum of
// squares below 2^53 is the exact integer.
func (c *CountSketch) settle() {
	if c.mode == modeSparse {
		return
	}
	c.mode = modeMerged
	for _, f2 := range c.rowF2 {
		if !(f2 < exactF2Limit) {
			c.mode = modeDense
		}
	}
}

// Size implements Sketch: the counters stored, two words (key and value)
// per nonzero entry of the sparse form and width·depth once dense.
func (c *CountSketch) Size() int {
	if c.mode == modeSparse {
		return 2 * c.n
	}
	return c.maker.width * c.maker.depth
}
