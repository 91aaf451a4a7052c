package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
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

	s0     levelZero
	levels []*level // levels[i] for i = 1..lmax; index 0 unused

	n uint64 // tuples inserted

	// cache holds, per level, the leaf that received the previous
	// insertion; sorted (batched) insertion streams hit it repeatedly,
	// which is the practical form of the paper's Lemma 9 amortization.
	cache []*bucket

	// Virgin-level sharing: every level whose root has never closed
	// holds, by construction, a sketch of the *entire* stream so far —
	// identical content across levels because sketches share seeds. One
	// shared sketch stands in for all of them; when the shared estimate
	// crosses a level's closing threshold, that level materializes its
	// own copy and proceeds independently. This changes per-update cost
	// from O(ℓmax) sketch updates to O(active levels) without changing
	// behaviour in any way.
	shared     sketch.Sketch
	virginFrom int // smallest level whose root has never closed

	// Hash-once fan-out: when the maker supports precomputed slots, each
	// arriving tuple is hashed exactly once into the slab, and every sketch
	// it touches — the singleton bucket, one leaf per active level, the
	// shared virgin sketch — applies the same slots. Without this, a
	// tuple re-evaluates the maker's d row hashes once per level.
	slotMaker sketch.SlotMaker // nil when the maker has no slot support
	slab      sketch.Slots     // per-group slot slab (scratch, reused)
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

type bucket struct {
	iv        dyadic.Interval
	sk        sketch.Sketch
	sa        sketch.SlotAdder // sk's slot face, cached to skip per-update type asserts
	closed    bool
	discarded bool
	left      *bucket
	right     *bucket

	// closeBudget is the weight this bucket can still absorb before its
	// estimate could possibly reach the level's closing threshold
	// (sketch.ThresholdBudget). While positive, the closing check is
	// skipped — with decisions bit-identical to checking every insert.
	// Pure optimization state: not serialized; zero forces a check.
	closeBudget int64
}

type level struct {
	idx    int
	root   *bucket
	y      uint64 // watermark Y_ℓ
	count  int    // stored buckets
	thresh float64
}

type levelZero struct {
	buckets map[uint64]*bucket
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
		levels: make([]*level, lmax+1),
		cache:  make([]*bucket, lmax+1),
	}
	s.s0 = levelZero{buckets: make(map[uint64]*bucket), y: noWatermark}
	for i := 1; i <= lmax; i++ {
		s.levels[i] = &level{
			idx:    i,
			root:   &bucket{iv: dyadic.Root(cfg.YMax)},
			y:      noWatermark,
			count:  1,
			thresh: math.Ldexp(1, i+1),
		}
	}
	if sm, ok := s.maker.(sketch.SlotMaker); ok && !cfg.NoSlotFastPath {
		s.slotMaker = sm
	}
	s.shared = s.maker.New()
	s.sharedSA = s.slotAdderOf(s.shared)
	s.virginFrom = 1
	s.wm = make([]uint64, lmax+1)
	for i := range s.wm {
		s.wm[i] = noWatermark
	}
	return s, nil
}

// slotAdderOf returns sk's SlotAdder face when the fast path is active.
// Sketches from a SlotMaker are contractually SlotAdders.
func (s *Summary) slotAdderOf(sk sketch.Sketch) sketch.SlotAdder {
	if s.slotMaker == nil {
		return nil
	}
	return sk.(sketch.SlotAdder)
}

// attachSketch gives b a fresh (or pooled) sketch with its slot face
// cached.
func (s *Summary) attachSketch(b *bucket) {
	b.sk = s.maker.New()
	b.sa = s.slotAdderOf(b.sk)
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
	s.addGroup(s.one[:])
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
	for s.virginFrom <= s.lmax &&
		sketch.CheapEstimate(s.shared) >= s.levels[s.virginFrom].thresh {
		s.materialize(s.levels[s.virginFrom])
		s.virginFrom++
	}
	if s.virginFrom <= s.lmax {
		s.sharedBudget = sketch.ThresholdBudget(s.shared, s.levels[s.virginFrom].thresh)
	}
}

// materialize gives a virgin level its own copy of the shared sketch and
// closes its root, exactly as Algorithm 2 would have done had the level
// been maintaining the root sketch itself.
func (s *Summary) materialize(lv *level) {
	cp := s.maker.New()
	// Same-maker merges cannot fail.
	_ = cp.Merge(s.shared)
	lv.root.sk = cp
	lv.root.sa = s.slotAdderOf(cp)
	if !lv.root.iv.Single() {
		lv.root.closed = true
		compactClosed(lv.root)
	}
}

// compactClosed sheds the slack of b's sketch if b is closed and will split:
// ingest never writes to such a bucket again (leafFor descends past it), so
// every place a bucket becomes one calls this, and a restored or merged
// summary holds what the live one did. A merge that does write into one
// leaves it for recloseAndCount to compact again.
func compactClosed(b *bucket) {
	if b.closed && !b.iv.Single() {
		sketch.Compact(b.sk) // nothing for a bucket without a sketch
	}
}

// evict0 trims the singleton level back to capacity, recycling the evicted
// buckets' sketches.
func (s *Summary) evict0() {
	z := &s.s0
	for len(z.buckets) > s.alpha {
		top := heapPopU64(&z.ys)
		if b := z.buckets[top]; b != nil {
			sketch.Recycle(s.maker, b.sk)
			b.sk, b.sa = nil, nil
		}
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
func (s *Summary) maybeClose(lv *level, b *bucket, w int64) {
	if b.closed || b.iv.Single() {
		return
	}
	b.closeBudget -= w
	if b.closeBudget > 0 {
		return
	}
	if sketch.CheapEstimate(b.sk) >= lv.thresh {
		b.closed = true
		compactClosed(b)
		return
	}
	b.closeBudget = sketch.ThresholdBudget(b.sk, lv.thresh)
}

// cacheServes reports whether the cached leaf b can absorb an insertion at
// y without a descent from the root.
func cacheServes(b *bucket, y uint64) bool {
	return b != nil && !b.discarded && b.left == nil && b.right == nil &&
		b.iv.Contains(y) && (!b.closed || b.iv.Single())
}

// leafFor descends level lv toward y, splitting closed leaves on the way
// (Algorithm 2's lazy split), and returns the open-or-singleton leaf that
// receives insertions at y — or nil when y falls in the discarded region.
func (s *Summary) leafFor(lv *level, y uint64) *bucket {
	b := lv.root
	for {
		if b.left != nil || b.right != nil {
			// Internal: descend toward y. Children are created in
			// pairs and discarded right-to-left, so a missing
			// target child means y is in the discarded region —
			// unreachable given the watermark check above.
			lc, _ := b.iv.Children()
			if y <= lc.R {
				if b.left == nil {
					return nil
				}
				b = b.left
			} else {
				if b.right == nil {
					return nil
				}
				b = b.right
			}
			continue
		}
		if b.closed && !b.iv.Single() {
			// Closed leaf: split into the two dyadic children and
			// continue into the one containing y. The children start
			// without sketches: the one this insertion descends into is
			// attached on return below, and the sibling stays empty —
			// zero counters, zero allocation — until a tuple actually
			// lands in it. Roughly half of all split siblings are
			// evicted or straddled without ever being touched, so the
			// lazy attach removes the dominant steady-state allocation
			// of the ingest path (it showed up as B/op growing with the
			// shard count in BenchmarkShardedAdd: P summaries, each
			// paying two sketches per split).
			lc, rc := b.iv.Children()
			b.left = &bucket{iv: lc}
			b.right = &bucket{iv: rc}
			lv.count += 2
			continue
		}
		if b.sk == nil {
			// First touch of a lazily-created leaf (or one restored from
			// a snapshot taken before it was ever touched).
			s.attachSketch(b)
		}
		return b
	}
}

// discardMax removes the stored bucket with the largest left endpoint
// (always a childless bucket, found by walking right-then-left) and lowers
// the level's watermark.
func (s *Summary) discardMax(lv *level) {
	var parent *bucket
	b := lv.root
	for b.left != nil || b.right != nil {
		parent = b
		if b.right != nil {
			b = b.right
		} else {
			b = b.left
		}
	}
	if parent == nil {
		// The root itself is the only bucket; it is never discarded.
		return
	}
	if parent.right == b {
		parent.right = nil
	} else {
		parent.left = nil
	}
	b.discarded = true
	// The discarded bucket may linger in the leaf cache (guarded by its
	// discarded flag), but its counters are dead — recycle them.
	sketch.Recycle(s.maker, b.sk)
	b.sk, b.sa = nil, nil
	lv.count--
	if b.iv.L < lv.y {
		lv.y = b.iv.L
		s.wm[lv.idx] = lv.y
	}
}

// RecycleSketch returns a sketch obtained from QuerySketch to the maker's
// pool once the caller is done with it. The caller must drop every
// reference to the sketch.
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
// (level 0 means the singleton level S0). The composed sketch is recycled
// back to the maker's pool once estimated, so steady-state queries do not
// grow the heap; callers that need the sketch itself use QuerySketch.
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
	for y, b := range s.s0.buckets {
		if y <= c {
			parts = append(parts, b.sk)
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
	var inside func(b *bucket)
	inside = func(b *bucket) {
		if b == nil {
			return
		}
		if b.sk != nil {
			parts = append(parts, b.sk)
		} else if virgin {
			parts = append(parts, s.shared)
		}
		inside(b.left)
		inside(b.right)
	}
	var walk func(b *bucket)
	walk = func(b *bucket) {
		if b == nil || !b.iv.Intersects(c) {
			return
		}
		if b.iv.Within(c) {
			inside(b)
			return
		}
		walk(b.left)
		walk(b.right)
	}
	walk(lv.root)
	return s.compose(parts)
}

// Space returns the stored size in counters/tuples — the space metric of
// the paper's figures.
func (s *Summary) Space() int64 {
	total := int64(s.shared.Size()) // one shared sketch for virgin levels
	for _, b := range s.s0.buckets {
		total += int64(b.sk.Size()) + 1
	}
	for i := 1; i <= s.lmax; i++ {
		total += levelSpace(s.levels[i].root)
	}
	return total
}

func levelSpace(b *bucket) int64 {
	if b == nil {
		return 0
	}
	var own int64 = 2
	if b.sk != nil {
		own += int64(b.sk.Size())
	}
	return own + levelSpace(b.left) + levelSpace(b.right)
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
// summary untouched. A caller that derives a second batch from the sorted
// order (the root package's mirrored GE direction) calls the halves itself.
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
		s.addGroup(batch[start:end])
		start = end
	}
}

// addGroup is Algorithm 2, the one insertion routine: it inserts an equal-y
// run of a sorted batch (AddWeighted passes a run of one), hashing each
// tuple once into a reused slab and routing to a leaf once per level.
func (s *Summary) addGroup(group []Tuple) {
	y := group[0].Y
	s.n += uint64(len(group))
	stride := 0
	if s.slotMaker != nil {
		stride = s.slotMaker.SlotWidth()
		s.slab = s.slab[:0]
		for i := range group {
			s.slab = s.slotMaker.Slots(group[i].X, s.slab)
		}
	}
	// groupAdd applies tuple gi of the group to the sketch behind (sk, sa).
	groupAdd := func(sk sketch.Sketch, sa sketch.SlotAdder, gi int) {
		if stride > 0 {
			sa.AddSlots(s.slab[gi*stride:(gi+1)*stride], group[gi].W)
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
		b := z.buckets[y]
		if b == nil {
			b = &bucket{iv: dyadic.Interval{L: y, R: y}}
			s.attachSketch(b)
			z.buckets[y] = b
			heapPushU64(&z.ys, y)
		}
		for gi := range group {
			groupAdd(b.sk, b.sa, gi)
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
		b := s.cache[i]
		if !cacheServes(b, y) {
			if b = s.leafFor(lv, y); b == nil {
				continue
			}
		}
		for gi := range group {
			groupAdd(b.sk, b.sa, gi)
		}
		s.maybeClose(lv, b, groupW)
		s.cache[i] = b
		for lv.count > s.alpha {
			s.discardMax(lv)
		}
	}

	// Virgin levels: the shared whole-stream sketch absorbs the group,
	// then any level whose threshold it crossed materializes. A level
	// materialized here copies the shared sketch *including* this group,
	// which is why it must not also have gone through the loop above.
	if s.virginFrom <= s.lmax {
		for gi := range group {
			groupAdd(s.shared, s.sharedSA, gi)
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
