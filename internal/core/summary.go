package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
	"github.com/streamagg/correlated/internal/slab"
)

// noWatermark is the initial value of each level's Y_i ("infinity").
const noWatermark = math.MaxUint64

// Summary is the sketch for correlated aggregation of Section 2. It
// supports Add (Algorithm 2) and Query (Algorithm 3) for selection
// predicates of the form y <= c with c supplied at query time.
//
// Levels ℓ = 1..ℓmax each hold a tree of buckets over dyadic intervals of
// [0, ymax]. A bucket closes once its sketch estimate reaches 2^(ℓ+1) and
// splits into its two dyadic children on the next arrival; when a level
// exceeds its capacity α, the bucket with the largest left endpoint is
// discarded and the level's watermark Y_ℓ records the smallest discarded
// left endpoint. A query for cutoff c is answered from the smallest level
// with Y_ℓ > c by composing the sketches of all buckets fully inside
// [0, c]. Level 0 stores up to α exact singleton-y buckets.
type Summary struct {
	cfg   Config
	agg   Aggregate
	maker sketch.Maker
	alpha int
	lmax  int
	span  dyadic.Interval // every level's root interval, [0, YMax]

	s0     levelZero
	levels []*level // levels[i] for i = 1..lmax; index 0 unused

	// nodes holds every level's tree nodes. A node names its children by
	// their handles here, and its sketch by its handle in the maker's slab.
	nodes slab.Slab[bucket]

	n uint64 // tuples inserted

	// cache holds, per level, the leaf that received the previous
	// insertion; sorted (batched) insertion streams hit it repeatedly,
	// which is the practical form of the paper's Lemma 9 amortization.
	cache []leaf

	// Virgin-level sharing: every level whose root has never closed
	// holds, by construction, a sketch of the *entire* stream so far —
	// identical content across levels because sketches share seeds. One
	// shared sketch stands in for all of them; when the shared estimate
	// crosses a level's closing threshold, that level materializes its
	// own copy and proceeds independently. This changes per-update cost
	// from O(ℓmax) sketch updates to O(active levels) without changing
	// behaviour in any way.
	shared     uint32 // the shared sketch's handle
	virginFrom int    // smallest level whose root has never closed

	// Hash-once fan-out: when the maker supports precomputed slots, each
	// arriving tuple is hashed exactly once into a scratch plan, and every sketch
	// it touches — the singleton bucket, one leaf per active level, the
	// shared virgin sketch — applies the same slots. Without this, a
	// tuple re-evaluates the maker's d row hashes once per level.
	slotMaker sketch.SlotMaker // nil when the maker has no slot support
	slots     sketch.Slots     // per-group slot plan (scratch, reused)
	one       [1]Tuple         // AddWeighted's group of one (scratch, reused)

	parts []sketch.Sketch // query composition's operands (scratch, reused)

	// sharedBudget plays the bucket closeBudget role for the shared
	// virgin-level sketch against the next virgin level's threshold.
	sharedBudget int64
	sharedSA     sketch.SlotAdder // shared's slot face

	// wm mirrors levels[i].y in one flat array, so the per-tuple level
	// scan reads a few contiguous cache lines instead of chasing a
	// pointer per level. Kept in sync by discardMax and UnmarshalBinary.
	wm []uint64
}

// bucket is a node of a level's tree, a record in the summary's node slab.
// It stores only what its position does not say: its dyadic interval is
// fixed by the path from the root, which spans [0, YMax] and halves at each
// step, so every descent and walk passes the interval down beside the node
// instead (dyadic.Interval.Children). A summary holds tens of thousands of
// these, so the node is 16 bytes and holds no pointer: handles name its
// sketch and its children.
type bucket struct {
	sk          uint32 // the sketch's handle in the maker's slab; 0 while untouched
	left, right uint32 // the children's handles in the node slab; 0 for none

	// budget is the weight this bucket can still absorb before its estimate
	// could possibly reach the level's closing threshold
	// (sketch.ThresholdBudget), clamped to int32, or closed. While positive,
	// the closing check is skipped — with decisions bit-identical to
	// checking every insert; clamping only makes a check come sooner. Pure
	// optimization state: not serialized; zero forces a check.
	budget int32
}

// closed is the budget of a bucket that has crossed its level's threshold.
const closed = -1

// isClosed reports whether the bucket has crossed its level's threshold.
func (b *bucket) isClosed() bool { return b.budget == closed }

// isLeaf reports whether the bucket has no children.
func (b *bucket) isLeaf() bool { return b.left == 0 && b.right == 0 }

// leaf is a level's cached leaf, the interval it spans, its sketch and the
// sketch's slot face, asserted once when the leaf is cached rather than once
// per group (nil off the fast path). Slab records stay in place, so the
// entry stays valid for as long as the leaf holds its sketch, which every
// change of the leaf's sketch clears (discardMax, merges, restores, Reset).
type leaf struct {
	b  *bucket
	iv dyadic.Interval
	sk sketch.Sketch
	sa sketch.SlotAdder
}

// serves reports whether the cached leaf can absorb an insertion at y
// without a descent from the root.
func (c leaf) serves(y uint64) bool {
	b := c.b
	return b != nil && b.isLeaf() && c.iv.Contains(y) && (!b.isClosed() || c.iv.Single())
}

type level struct {
	idx    int
	root   uint32 // the root's handle in the node slab
	y      uint64 // watermark Y_ℓ
	count  int    // stored buckets
	thresh float64
}

// levelZero is the singleton level: each stored y maps straight to its
// sketch's handle, the key being all a singleton bucket's interval would say.
type levelZero struct {
	buckets map[uint64]uint32
	ys      []uint64 // max-heap of singleton y values
	y       uint64   // watermark Y_0
}

// NewSummary builds a correlated-aggregate summary for agg under cfg
// (Algorithm 1).
func NewSummary(agg Aggregate, cfg Config) (*Summary, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lmax := agg.FMaxLog2(cfg.MaxStreamLen, cfg.MaxX) + 1
	if lmax > 62 {
		lmax = 62
	}
	upsilon := cfg.Eps / 2
	logy := float64(log2Ceil(cfg.YMax + 1))
	var gamma float64
	if cfg.StrictTheory {
		gamma = cfg.Delta / (4 * float64(cfg.YMax) * float64(lmax+1))
	} else {
		gamma = cfg.Delta / (4 * float64(lmax+1) * logy)
	}
	rng := hash.New(cfg.Seed)
	s := &Summary{
		cfg:    cfg,
		agg:    agg,
		maker:  agg.NewMaker(upsilon, gamma, rng),
		alpha:  deriveAlpha(cfg, agg),
		lmax:   lmax,
		span:   dyadic.Root(cfg.YMax),
		levels: make([]*level, lmax+1),
		cache:  make([]leaf, lmax+1),
	}
	if sm, ok := s.maker.(sketch.SlotMaker); ok && !cfg.NoSlotFastPath {
		s.slotMaker = sm
	}
	s.wm = make([]uint64, lmax+1)
	for i := 1; i <= lmax; i++ {
		s.levels[i] = &level{idx: i, thresh: math.Ldexp(1, i+1)}
	}
	s.empty()
	return s, nil
}

// empty gives the summary the state NewSummary leaves — an empty singleton
// level, one untouched root a level, an empty shared sketch — with the
// thresholds and hash functions it has. What the summary held is the
// caller's to free first.
func (s *Summary) empty() {
	s.s0 = levelZero{buckets: make(map[uint64]uint32), y: noWatermark}
	for i := 1; i <= s.lmax; i++ {
		*s.levels[i] = level{idx: i, root: s.node(), y: noWatermark, count: 1, thresh: s.levels[i].thresh}
	}
	clear(s.cache)
	for i := range s.wm {
		s.wm[i] = noWatermark
	}
	s.shared = s.maker.Alloc()
	s.sharedSA = s.slotAdderOf(s.sketch(s.shared))
	s.virginFrom = 1
	s.sharedBudget = 0
	s.n = 0
}

// sketch returns the sketch behind a handle of the summary's maker.
func (s *Summary) sketch(h uint32) sketch.Sketch { return s.maker.At(h) }

// slotAdderOf returns sk's SlotAdder face when the fast path is active.
// Sketches from a SlotMaker are contractually SlotAdders.
func (s *Summary) slotAdderOf(sk sketch.Sketch) sketch.SlotAdder {
	if s.slotMaker == nil {
		return nil
	}
	return sk.(sketch.SlotAdder)
}

// Config returns the (normalized) configuration.
func (s *Summary) Config() Config { return s.cfg }

// Alpha returns the per-level bucket capacity in use.
func (s *Summary) Alpha() int { return s.alpha }

// Levels returns ℓmax, the number of non-singleton levels.
func (s *Summary) Levels() int { return s.lmax }

// Count returns the number of tuples inserted so far.
func (s *Summary) Count() uint64 { return s.n }

// Add inserts the tuple (x, y) with weight 1.
func (s *Summary) Add(x, y uint64) error { return s.AddWeighted(x, y, 1) }

// AddWeighted inserts w copies of (x, y), w > 0: Algorithm 2 on a group of
// one. Negative weights require the multipass machinery of Section 4 — the
// single-pass structure provably cannot support them (Theorem 6).
func (s *Summary) AddWeighted(x, y uint64, w int64) error {
	if y > s.cfg.YMax {
		return fmt.Errorf("core: y = %d exceeds YMax = %d", y, s.cfg.YMax)
	}
	if w <= 0 {
		return fmt.Errorf("core: weight must be positive, got %d", w)
	}
	s.one[0] = Tuple{X: x, Y: y, W: w}
	s.addGroup(s.one[:], y)
	return nil
}

// checkVirgin materializes virgin levels whose closing threshold the
// shared sketch has crossed after w more weight landed on it. The shared
// budget skips the estimate while crossing is provably impossible.
func (s *Summary) checkVirgin(w int64) {
	s.sharedBudget -= w
	if s.sharedBudget > 0 {
		return
	}
	shared := s.sketch(s.shared)
	for s.virginFrom <= s.lmax &&
		sketch.CheapEstimate(shared) >= s.levels[s.virginFrom].thresh {
		s.materialize(s.levels[s.virginFrom])
		s.virginFrom++
	}
	if s.virginFrom <= s.lmax {
		s.sharedBudget = sketch.ThresholdBudget(shared, s.levels[s.virginFrom].thresh)
	}
}

// materialize gives a virgin level its own copy of the shared sketch and
// closes its root, exactly as Algorithm 2 would have done had the level
// been maintaining the root sketch itself.
func (s *Summary) materialize(lv *level) {
	root := s.nodes.At(lv.root)
	root.sk = s.copyOf(s.sketch(s.shared))
	if !s.span.Single() {
		root.budget = closed
		s.compactClosed(root, s.span)
	}
}

// copyOf returns the handle of a new sketch holding what sk does. Same-maker
// (or equivalent-maker) merges cannot fail.
func (s *Summary) copyOf(sk sketch.Sketch) uint32 {
	h := s.maker.Alloc()
	_ = s.sketch(h).Merge(sk)
	return h
}

// compactClosed sheds the slack of b's sketch if b is closed and will split:
// ingest never writes to such a bucket again (leafFor descends past it), so
// every place a bucket becomes one calls this, and a restored or merged
// summary holds what the live one did. A merge that does write into one
// leaves it for recloseAndCount to compact again.
func (s *Summary) compactClosed(b *bucket, iv dyadic.Interval) {
	if b.isClosed() && !iv.Single() && b.sk != 0 {
		sketch.Compact(s.sketch(b.sk))
	}
}

// evict0 trims the singleton level back to capacity, freeing the evicted
// buckets' sketches.
func (s *Summary) evict0() {
	z := &s.s0
	for len(z.buckets) > s.alpha {
		top := heapPopU64(&z.ys)
		s.maker.Free(z.buckets[top])
		delete(z.buckets, top)
		if top < z.y {
			z.y = top
		}
	}
}

// maybeClose re-checks b's closing threshold after w more weight landed in
// it. The budget skips the estimate while the sketch proves the threshold
// is out of reach, leaving closing decisions bit-identical to checking
// after every single update.
func (s *Summary) maybeClose(lv *level, c *leaf, w int64) {
	b := c.b
	if b.isClosed() || c.iv.Single() {
		return
	}
	if left := int64(b.budget) - w; left > 0 {
		b.budget = int32(left)
		return
	}
	if sketch.CheapEstimate(c.sk) >= lv.thresh {
		b.budget = closed
		s.compactClosed(b, c.iv)
		return
	}
	b.budget = int32(min(sketch.ThresholdBudget(c.sk, lv.thresh), math.MaxInt32))
}

// leafFor descends level lv toward y, splitting closed leaves on the way
// (Algorithm 2's lazy split), and returns the open-or-singleton leaf that
// receives insertions at y with the interval it spans — or nil when y falls
// in the discarded region.
func (s *Summary) leafFor(lv *level, y uint64) (*bucket, dyadic.Interval) {
	b, iv := s.nodes.At(lv.root), s.span
	for {
		if !b.isLeaf() {
			// Internal: descend toward y. Children are created in
			// pairs and discarded right-to-left, so a missing
			// target child means y is in the discarded region —
			// unreachable given the watermark check above.
			lc, rc := iv.Children()
			next, niv := b.right, rc
			if y <= lc.R {
				next, niv = b.left, lc
			}
			if next == 0 {
				return nil, iv
			}
			b, iv = s.nodes.At(next), niv
			continue
		}
		if b.isClosed() && !iv.Single() {
			// Closed leaf: split into the two dyadic children and
			// continue into the one containing y. The children start
			// without sketches: the one this insertion descends into is
			// attached on return below, and the sibling stays empty —
			// zero counters, zero allocation — until a tuple actually
			// lands in it. Roughly half of all split siblings are
			// evicted or straddled without ever being touched, so the
			// lazy attach removes the dominant steady-state allocation
			// of the ingest path: two sketches a split, paid again by
			// every summary a stream is spread over.
			b.left, b.right = s.node(), s.node()
			lv.count += 2
			continue
		}
		if b.sk == 0 {
			// First touch of a lazily-created leaf (or one restored from
			// a snapshot taken before it was ever touched).
			b.sk = s.maker.Alloc()
		}
		return b, iv
	}
}

// discardMax removes the stored bucket with the largest left endpoint
// (always a childless bucket, found by walking right-then-left) and lowers
// the level's watermark.
func (s *Summary) discardMax(lv *level) {
	var parent *bucket
	h, iv := lv.root, s.span
	for b := s.nodes.At(h); !b.isLeaf(); b = s.nodes.At(h) {
		parent = b
		lc, rc := iv.Children()
		if b.right != 0 {
			h, iv = b.right, rc
		} else {
			h, iv = b.left, lc
		}
	}
	if parent == nil {
		// The root itself is the only bucket; it is never discarded.
		return
	}
	if parent.right == h {
		parent.right = 0
	} else {
		parent.left = 0
	}
	// The leaf cache is the one other way to reach the bucket.
	if s.cache[lv.idx].b == s.nodes.At(h) {
		s.cache[lv.idx] = leaf{}
	}
	s.drop(h)
	lv.count--
	if iv.L < lv.y {
		lv.y = iv.L
		s.wm[lv.idx] = lv.y
	}
}

// node returns the handle of a new, untouched tree node. It and drop are the
// one way a node enters and leaves the summary: a split, a decoded image, a
// merge's copy and a level's root take one here, and an eviction, a
// replaced tree and a discarded image give theirs back through drop, for
// the next node to take.
func (s *Summary) node() uint32 {
	h := s.nodes.Alloc()
	*s.nodes.At(h) = bucket{}
	return h
}

// drop frees a node and its sketch, not its children.
func (s *Summary) drop(h uint32) {
	if sk := s.nodes.At(h).sk; sk != 0 {
		s.maker.Free(sk)
	}
	s.nodes.Free(h)
}

// RecycleSketch hands the storage of a sketch obtained from QuerySketch back
// to the maker once the caller is done with it. The caller must drop every
// reference to the sketch, and recycle every one it obtains: a dropped one's
// storage stays in the maker's arena until the summary is collected.
func (s *Summary) RecycleSketch(sk sketch.Sketch) {
	sketch.Recycle(s.maker, sk)
}

// Query estimates AGG{x | (x, y) in stream, y <= c} (Algorithm 3). It
// returns ErrNoLevel when even the top level cannot serve c, which under
// the analysis's event G happens with probability at most δ.
func (s *Summary) Query(c uint64) (float64, error) {
	est, _, err := s.QueryWithLevel(c)
	return est, err
}

// QueryWithLevel is Query plus the level that served the answer
// (level 0 means the singleton level S0). The composed sketch goes back to
// the maker once estimated — its table or array to the arena, its struct to
// be the next query's — so a steady-state query allocates nothing; callers
// that need the sketch itself use QuerySketch.
func (s *Summary) QueryWithLevel(c uint64) (float64, int, error) {
	sk, lvl, err := s.QuerySketch(c)
	if err != nil {
		return 0, lvl, err
	}
	est := sk.Estimate()
	sketch.Recycle(s.maker, sk)
	return est, lvl, nil
}

// QuerySketch returns the composed sketch of the buckets serving cutoff c
// (the composition K of Algorithm 3) together with the level used. The
// correlated heavy-hitters structure of Section 3.3 consumes the sketch
// itself rather than just its estimate.
func (s *Summary) QuerySketch(c uint64) (sketch.Sketch, int, error) {
	if c > s.cfg.YMax {
		c = s.cfg.YMax
	}
	if s.s0.y > c {
		return s.query0(c), 0, nil
	}
	for i := 1; i <= s.lmax; i++ {
		if s.levels[i].y > c {
			return s.queryLevel(s.levels[i], c), i, nil
		}
	}
	return nil, -1, ErrNoLevel
}

// query0 composes the singleton sketches with y <= c ("summing over
// appropriate singletons": sketches here are linear, so composition and
// summation coincide).
func (s *Summary) query0(c uint64) sketch.Sketch {
	parts := s.parts[:0]
	for y, h := range s.s0.buckets {
		if y <= c {
			parts = append(parts, s.sketch(h))
		}
	}
	return s.compose(parts)
}

// compose returns the composition of parts and keeps their slice for the
// next query.
func (s *Summary) compose(parts []sketch.Sketch) sketch.Sketch {
	out := sketch.Compose(s.maker, parts)
	clear(parts)
	s.parts = parts
	return out
}

// queryLevel composes the sketches of B1 — every stored bucket whose span
// lies inside [0, c]. Buckets straddling c (the set B2 of the analysis)
// are excluded; Lemma 4 bounds the mass they can hide.
func (s *Summary) queryLevel(lv *level, c uint64) sketch.Sketch {
	parts := s.parts[:0]
	// On a virgin level a sketchless bucket is the root, standing in for
	// the shared whole-stream sketch; on a materialized level it is an
	// untouched split sibling holding nothing at all.
	virgin := lv.idx >= s.virginFrom
	var inside func(h uint32)
	inside = func(h uint32) {
		if h == 0 {
			return
		}
		b := s.nodes.At(h)
		if b.sk != 0 {
			parts = append(parts, s.sketch(b.sk))
		} else if virgin {
			parts = append(parts, s.sketch(s.shared))
		}
		inside(b.left)
		inside(b.right)
	}
	var walk func(h uint32, iv dyadic.Interval)
	walk = func(h uint32, iv dyadic.Interval) {
		if h == 0 || !iv.Intersects(c) {
			return
		}
		if iv.Within(c) {
			inside(h)
			return
		}
		b := s.nodes.At(h)
		// Straddling c, so not a single point: it has two halves.
		lc, rc := iv.Children()
		walk(b.left, lc)
		walk(b.right, rc)
	}
	walk(lv.root, s.span)
	return s.compose(parts)
}

// Space returns the stored size in counters/tuples — the space metric of
// the paper's figures.
func (s *Summary) Space() int64 {
	total := int64(s.sketch(s.shared).Size()) // one shared sketch for virgin levels
	for _, h := range s.s0.buckets {
		total += int64(s.sketch(h).Size()) + 1
	}
	for i := 1; i <= s.lmax; i++ {
		total += s.treeSpace(s.levels[i].root)
	}
	return total
}

// treeSpace is Space's share of the subtree at h: two words a node and its
// sketch's counters.
func (s *Summary) treeSpace(h uint32) int64 {
	if h == 0 {
		return 0
	}
	b := s.nodes.At(h)
	var own int64 = 2
	if b.sk != 0 {
		own += int64(s.sketch(b.sk).Size())
	}
	return own + s.treeSpace(b.left) + s.treeSpace(b.right)
}

// Buckets returns the number of stored buckets across all levels.
func (s *Summary) Buckets() int {
	n := len(s.s0.buckets)
	for i := 1; i <= s.lmax; i++ {
		n += s.levels[i].count
	}
	return n
}

// Watermark returns Y_ℓ for diagnostics; level 0 is the singleton level.
func (s *Summary) Watermark(level int) uint64 {
	if level == 0 {
		return s.s0.y
	}
	return s.levels[level].y
}

// Tuple is one stream element for batched insertion.
type Tuple struct {
	X, Y uint64
	W    int64
}

// AddBatch inserts a batch of tuples, the amortized update path of
// Lemma 9. The batch is sorted by y in place (zero weights normalize to
// 1), then processed one equal-y group at a time: each tuple is hashed
// once, each group descends to its leaf once per level, and the whole
// group's slot updates land before thresholds are re-checked. Add is the
// one-tuple case of the same routine; a batch defers bucket closing to
// group boundaries — exactly the batched threshold checking Lemma 9's
// amortization describes — so the resulting tree can differ from
// sequential insertion while carrying the same guarantees. The batch is
// rejected up front (summary untouched) if any tuple is invalid.
func (s *Summary) AddBatch(batch []Tuple) error {
	if err := s.SortBatch(batch); err != nil {
		return err
	}
	s.AddSorted(batch)
	return nil
}

// SortByY is the one sort of the batched path: by y alone, in place, and
// not stable — the order it leaves inside an equal-y run is part of what a
// summary's state is a function of (Fk's bounded candidate sets evict by
// arrival order), so whoever sorts a batch ahead of AddBatch (corrd's
// committer, whose log holds the sorted batch) must sort with this and
// nothing else. A batch already non-decreasing in y is left exactly as it
// is, element for element: that is checked, not left to what the sort
// happens to do with sorted input, so sorting is idempotent and a batch
// decoded from the log is applied in the order it was logged.
func SortByY(batch []Tuple) {
	byY := func(a, b Tuple) int { return cmp.Compare(a.Y, b.Y) }
	if !slices.IsSortedFunc(batch, byY) {
		slices.SortFunc(batch, byY)
	}
}

// SortBatch is AddBatch's first half: it validates the batch, normalizes
// zero weights to 1 and sorts it by y in place (SortByY), leaving the
// summary untouched. A caller that applies one sorted batch to two summaries
// (the root package's LE and mirrored GE directions) calls the halves itself.
func (s *Summary) SortBatch(batch []Tuple) error {
	for i := range batch {
		if batch[i].Y > s.cfg.YMax {
			return fmt.Errorf("core: y = %d exceeds YMax = %d", batch[i].Y, s.cfg.YMax)
		}
		if batch[i].W == 0 {
			batch[i].W = 1
		}
		if batch[i].W < 0 {
			return fmt.Errorf("core: weight must be positive, got %d", batch[i].W)
		}
	}
	SortByY(batch)
	return nil
}

// AddSorted is AddBatch's second half: it inserts a batch that SortBatch
// accepted, one equal-y group at a time.
func (s *Summary) AddSorted(batch []Tuple) {
	for start := 0; start < len(batch); {
		end := start + 1
		for end < len(batch) && batch[end].Y == batch[start].Y {
			end++
		}
		s.addGroup(batch[start:end], batch[start].Y)
		start = end
	}
}

// AddSortedMirrored inserts a batch that SortBatch accepted (against a
// summary with this one's YMax) with every y read as YMax − y: the mirrored
// structure the root package's GE direction keeps, fed from the LE batch
// without a copy. The equal-y runs are applied from last to first, so the
// mirrored y ascend, and each run in the order the batch holds it. A run's
// closing checks happen once, after the whole run, so for every aggregate
// whose sketch adds commute (F2, COUNT, SUM) the state equals what a
// mirrored, re-sorted copy fed to AddSorted leaves; Fk's bounded candidate
// sets follow the order inside a run.
func (s *Summary) AddSortedMirrored(batch []Tuple) {
	for end := len(batch); end > 0; {
		start := end - 1
		for start > 0 && batch[start-1].Y == batch[end-1].Y {
			start--
		}
		s.addGroup(batch[start:end], s.cfg.YMax-batch[start].Y)
		end = start
	}
}

// addGroup is Algorithm 2, the one insertion routine: it inserts an equal-y
// run of a sorted batch (AddWeighted passes a run of one) at y — the run's
// own y, or its mirror (AddSortedMirrored) — hashing each tuple once into a
// reused slot plan and routing to a leaf once per level. Only the tuples' X and W
// are read.
func (s *Summary) addGroup(group []Tuple, y uint64) {
	s.n += uint64(len(group))
	stride := 0
	if s.slotMaker != nil {
		stride = s.slotMaker.SlotWidth()
		s.slots = s.slots[:0]
		for i := range group {
			s.slots = s.slotMaker.Slots(group[i].X, s.slots)
		}
	}
	// groupAdd applies tuple gi of the group to the sketch behind (sk, sa).
	groupAdd := func(sk sketch.Sketch, sa sketch.SlotAdder, gi int) {
		if stride > 0 {
			sa.AddSlots(s.slots[gi*stride:(gi+1)*stride], group[gi].W)
			return
		}
		sk.Add(group[gi].X, group[gi].W)
	}

	// Singleton level S0 (Algorithm 2 lines 1–6): the group shares one
	// bucket; the watermark check and eviction happen once. (Evicting after
	// the whole group lands is state-identical to per-tuple eviction: it
	// grows the level by at most one bucket, and the heap pops the same one
	// either way.) No singleton is made at or past the watermark: Y_0 only
	// decreases, so it could never serve a query.
	z := &s.s0
	if y < z.y {
		h := z.buckets[y]
		if h == 0 {
			h = s.maker.Alloc()
			z.buckets[y] = h
			heapPushU64(&z.ys, y)
		}
		sk := s.sketch(h)
		sa := s.slotAdderOf(sk)
		for gi := range group {
			groupAdd(sk, sa, gi)
		}
		s.evict0()
	}

	// Materialized levels (Algorithm 2 lines 7–21): route to the leaf once,
	// apply the group, then re-check the closing threshold. The summed
	// weight only feeds budget decrements, so saturate instead of wrapping:
	// a saturated decrement simply forces the (conservative) check.
	var groupW int64
	for gi := range group {
		if groupW += group[gi].W; groupW < 0 {
			groupW = math.MaxInt64
			break
		}
	}
	for i := 1; i < s.virginFrom; i++ {
		// y is in the level's discarded region. The paper returns here;
		// skipping only this level stays consistent whatever the Y_ℓ order.
		if y >= s.wm[i] {
			continue
		}
		lv := s.levels[i]
		c := &s.cache[i]
		if !c.serves(y) {
			b, iv := s.leafFor(lv, y)
			if b == nil {
				continue
			}
			sk := s.sketch(b.sk)
			*c = leaf{b, iv, sk, s.slotAdderOf(sk)}
		}
		for gi := range group {
			groupAdd(c.sk, c.sa, gi)
		}
		s.maybeClose(lv, c, groupW)
		for lv.count > s.alpha {
			s.discardMax(lv)
		}
	}

	// Virgin levels: the shared whole-stream sketch absorbs the group,
	// then any level whose threshold it crossed materializes. A level
	// materialized here copies the shared sketch *including* this group,
	// which is why it must not also have gone through the loop above.
	if s.virginFrom <= s.lmax {
		var shared sketch.Sketch // read only off the fast path
		if stride == 0 {
			shared = s.sketch(s.shared)
		}
		for gi := range group {
			groupAdd(shared, s.sharedSA, gi)
		}
		s.checkVirgin(groupW)
	}
}

// heapPushU64 pushes y onto the max-heap h.
func heapPushU64(h *[]uint64, y uint64) {
	*h = append(*h, y)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] >= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

// heapPopU64 pops the maximum from h.
func heapPopU64(h *[]uint64) uint64 {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && (*h)[l] > (*h)[big] {
			big = l
		}
		if r < n && (*h)[r] > (*h)[big] {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
		i = big
	}
	return top
}
