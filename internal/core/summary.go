package core

import (
	"cmp"
	"errors"
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
// predicates of the form y <= c (LE) and y >= c (GE), with c supplied at
// query time, for the directions its Config names.
//
// Levels ℓ = 1..ℓmax each hold a tree of buckets over dyadic intervals of
// [0, ymax]. A bucket closes once its sketch estimate reaches 2^(ℓ+1) and
// splits into its two dyadic children on the next arrival; when a level
// exceeds its capacity α, the bucket with the largest left endpoint is
// discarded and the level's watermark Y_ℓ records the smallest discarded
// left endpoint. A query for cutoff c is answered from the smallest level
// with Y_ℓ > c by composing the sketches of all buckets fully inside
// [0, c]. Level 0 stores up to α exact singleton-y buckets.
//
// GE is the same algorithm from the other end: it discards the bucket with
// the smallest right endpoint, and its watermark is the largest discarded
// right endpoint. Every y, watermark and endpoint a direction compares is
// its distance from the direction's own end of [0, ymax] — y for LE,
// ymax − y for GE — so the two run one piece of code. A summary serving
// both keeps one tree a level: each bucket records which directions keep
// it, each direction counts and discards only its own, and a bucket goes
// only once neither keeps it. Where neither direction has discarded
// anything — most levels, on most streams — the two hold the very same
// buckets over the very same tuples, which one tree stores once. A bucket
// one direction keeps past its watermark may take tuples only the other
// direction still wants, but it never enters the first direction's answers
// again, so each direction answers exactly what a summary serving it alone
// would, fed the same batches.
//
// An F2 summary also folds. A direction's query takes a bucket exactly when
// the bucket's far endpoint, seen from the direction's end, lies within the
// cutoff, and a bucket shares that endpoint with its child on the
// direction's far side — the right child for LE, the left for GE — and with
// every bucket down that chain of far children. Such a chain is taken whole
// or not at all. A closed bucket is never written by ingest again, and
// CountSketch is linear, so a closed bucket that one direction alone keeps
// — which no other direction's query can take, that direction's watermark
// lying at or inside the bucket — adds its counters into its chain head and
// lets its sketch go: it stays in the tree, closed, holding no sketch. The head is the nearest bucket up the chain that the same
// direction alone keeps and that still holds a sketch. Every answer is the
// same sum of the same counters. A fold is made only where the head or the
// bucket is dense, because a query composes its answer in the items form
// when its parts hold few enough pairs between them, and two tables summed
// into one can hold fewer pairs than the two did. The other aggregates keep
// every sketch: Fk's candidate sets make a merge depend on order, and COUNT
// and SUM compose by merging one sketch at a time. Folds happen when a
// bucket closes and when a discard leaves a subtree to one direction;
// decoding an image and merging two trees fold nothing.
//
// A closed bucket both directions keep cannot fold and keep every answer:
// LE answers its left child without it for cutoffs from the child's right
// endpoint up to the bucket's, and GE answers its right child without it
// for cutoffs from the bucket's left endpoint up to the child's, so the two
// children and the three together are three different sums, three
// sketches. The one exception is a bucket a direction keeps but can never
// take — one holding that direction's watermark, on the one path from a
// level's root to it. So a Both summary folds only the buckets one
// direction alone keeps, past the other's watermark, and on small-batch
// streams (corrdbench's http-small and tenants-restart) not even those: the
// one-sided closed buckets of their low levels, and their heads, still hold
// their items, where a fold would save only the pairs the two share.
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
	ys    []uint64        // query0's singletons, sorted (scratch, reused)

	// sharedBudget plays the bucket closeBudget role for the shared
	// virgin-level sketch against the next virgin level's threshold.
	sharedBudget int64
	sharedSA     sketch.SlotAdder // shared's slot face

	// wm mirrors levels[i].y in one flat array, so the per-tuple level
	// scan reads a few contiguous cache lines instead of chasing a
	// pointer per level. Kept in sync by discard and UnmarshalBinary.
	wm [][2]uint64

	folds bool // the maker's sketches report a form (denser): F2's, which fold
}

// Dirs is a set of query directions.
type Dirs uint8

const (
	LE   Dirs = 1 << iota // y <= c
	GE                    // y >= c
	Both = LE | GE
)

// String names d as the public Predicate does: LE, GE or Both.
func (d Dirs) String() string { return [...]string{"none", "LE", "GE", "Both"}[d&Both] }

// dirs indexes per-direction state: 0 is LE, 1 is GE.
const dirs = 2

// ErrDirection is returned by a query in a direction the summary does not
// serve.
var ErrDirection = errors.New("core: query direction not served")

// dist is y's distance from direction d's own end of [0, YMax]: the
// coordinate every comparison of d's is made in.
func (s *Summary) dist(d int, y uint64) uint64 {
	if d == 0 {
		return y
	}
	return s.cfg.YMax - y
}

// keepers returns the directions whose watermarks w leave y in play.
// A direction the summary does not serve has watermark 0 and takes nothing.
func (s *Summary) keepers(w *[2]uint64, y uint64) Dirs {
	var k Dirs
	if y < w[0] {
		k = LE
	}
	if s.cfg.YMax-y < w[1] {
		k |= GE
	}
	return k
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

	// meta holds, above keepShift, the directions that keep the bucket, and
	// below it the bucket's close budget: the weight it can still absorb
	// before its estimate could possibly reach the level's closing
	// threshold (sketch.ThresholdBudget), clamped to maxBudget, or closed.
	// While positive, the closing check is skipped — with decisions
	// bit-identical to checking every insert; clamping only makes a check
	// come sooner. The budget is pure optimization state: not serialized;
	// zero forces a check.
	meta uint32
}

const (
	keepShift  = 30
	budgetMask = 1<<keepShift - 1
	// closed is the budget of a bucket that has crossed its level's threshold.
	closed    = budgetMask
	maxBudget = closed - 1
)

// isClosed reports whether the bucket has crossed its level's threshold.
func (b *bucket) isClosed() bool { return b.meta&budgetMask == closed }

// budget returns the bucket's close budget (closed once closed).
func (b *bucket) budget() int64 { return int64(b.meta & budgetMask) }

// setBudget sets the close budget, or closes the bucket with closed.
func (b *bucket) setBudget(v uint32) { b.meta = b.meta&^budgetMask | v }

// keep returns the directions that keep the bucket.
func (b *bucket) keep() Dirs { return Dirs(b.meta >> keepShift) }

// setKeep sets the directions that keep the bucket.
func (b *bucket) setKeep(k Dirs) { b.meta = b.meta&budgetMask | uint32(k)<<keepShift }

// isLeaf reports whether the bucket has no children.
func (b *bucket) isLeaf() bool { return b.left == 0 && b.right == 0 }

// leaf is a level's cached leaf, the interval it spans, its sketch and the
// sketch's slot face, asserted once when the leaf is cached rather than once
// per group (nil off the fast path). Slab records stay in place, so the
// entry stays valid for as long as the leaf holds its sketch, which every
// change of the leaf's sketch clears (discard, a fold, merges, restores,
// Reset).
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
	root   uint32    // the root's handle in the node slab
	y      [2]uint64 // each direction's watermark Y_ℓ, as a distance (dist)
	count  [2]int    // the buckets each direction keeps
	nodes  int       // stored buckets: those some direction keeps
	thresh float64
}

// hold counts n more buckets, kept by k, into the level.
func (lv *level) hold(k Dirs, n int) {
	lv.nodes += n
	for d := range dirs {
		if k&(1<<d) != 0 {
			lv.count[d] += n
		}
	}
}

// levelZero is the singleton level: each stored y maps straight to its
// sketch's handle, the key being all a singleton bucket's interval would say.
// A direction keeps exactly the singletons its watermark leaves in play.
type levelZero struct {
	buckets ymap
	ys      [2][]uint64 // per direction, a max-heap of its singletons' distances
	y       [2]uint64   // each direction's watermark Y_0, as a distance
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
	s.wm = make([][2]uint64, lmax+1)
	for i := 1; i <= lmax; i++ {
		s.levels[i] = &level{idx: i, thresh: math.Ldexp(1, i+1)}
	}
	s.empty()
	_, s.folds = s.sketch(s.shared).(denser)
	return s, nil
}

// empty gives the summary the state NewSummary leaves — an empty singleton
// level, one untouched root a level, an empty shared sketch — with the
// thresholds and hash functions it has. What the summary held is the
// caller's to free first.
func (s *Summary) empty() {
	var open [2]uint64 // watermarks: none for a direction served, 0 otherwise
	var one [2]int
	for d := range dirs {
		if s.cfg.Dirs&(1<<d) != 0 {
			open[d], one[d] = noWatermark, 1
		}
	}
	s.s0 = levelZero{y: open}
	for i := 1; i <= s.lmax; i++ {
		*s.levels[i] = level{idx: i, root: s.node(), y: open, count: one, nodes: 1, thresh: s.levels[i].thresh}
		s.nodes.At(s.levels[i].root).setKeep(s.cfg.Dirs)
	}
	clear(s.cache)
	for i := range s.wm {
		s.wm[i] = open
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

// Dirs returns the directions the summary serves.
func (s *Summary) Dirs() Dirs { return s.cfg.Dirs }

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
		root.setBudget(closed)
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

// evict0 trims each direction's share of the singleton level back to
// capacity, its farthest singletons first, freeing the sketches of those no
// direction keeps any more.
func (s *Summary) evict0() {
	z := &s.s0
	for d := range dirs {
		for len(z.ys[d]) > s.alpha {
			top := heapPopU64(&z.ys[d])
			if top < z.y[d] {
				z.y[d] = top
			}
			if y := s.dist(d, top); s.keepers(&z.y, y) == 0 {
				s.maker.Free(z.buckets.get(y))
				z.buckets.del(y)
			}
		}
	}
}

// rebuildHeaps refills each direction's heap from the singletons its
// watermark keeps, after a restore or a merge replaced them.
func (s *Summary) rebuildHeaps() {
	z := &s.s0
	for d := range dirs {
		z.ys[d] = z.ys[d][:0]
	}
	z.buckets.each(func(y uint64, _ uint32) {
		for d := range dirs {
			if s.keepers(&z.y, y)&(1<<d) != 0 {
				heapPushU64(&z.ys[d], s.dist(d, y))
			}
		}
	})
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
	if left := b.budget() - w; left > 0 {
		b.setBudget(uint32(left))
		return
	}
	if sketch.CheapEstimate(c.sk) >= lv.thresh {
		b.setBudget(closed)
		iv := c.iv // a fold clears the cached leaf
		s.foldClosed(lv, b, iv)
		s.compactClosed(b, iv)
		return
	}
	b.setBudget(uint32(max(0, min(sketch.ThresholdBudget(c.sk, lv.thresh), maxBudget))))
}

// leafFor descends level lv toward y, splitting closed leaves on the way
// (Algorithm 2's lazy split), and returns the open-or-singleton leaf that
// receives insertions at y with the interval it spans — or nil when y falls
// in the discarded region. keep is the directions that take y at the level:
// a split's children are theirs, as a summary serving them alone would
// have split the leaf, and no other direction's.
func (s *Summary) leafFor(lv *level, y uint64, keep Dirs) (*bucket, dyadic.Interval) {
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
			k := keep & b.keep()
			s.nodes.At(b.left).setKeep(k)
			s.nodes.At(b.right).setKeep(k)
			lv.hold(k, 2)
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

// discard takes from direction d the bucket it keeps farthest from its end
// — for LE the one with the largest left endpoint, for GE the one with the
// smallest right endpoint: always one of whose children d keeps neither,
// found by walking toward the far end — and lowers d's watermark to the
// bucket's near endpoint. The bucket goes once no direction keeps it; it
// has no children then, for a direction that keeps a child keeps its
// parent.
func (s *Summary) discard(lv *level, d int) {
	bit := Dirs(1) << d
	var parent *bucket
	h, iv := lv.root, s.span
	for {
		b := s.nodes.At(h)
		next, niv := uint32(0), iv
		if !b.isLeaf() {
			lc, rc := iv.Children()
			far, near, farIv, nearIv := b.right, b.left, rc, lc
			if d == 1 {
				far, near, farIv, nearIv = near, far, nearIv, farIv
			}
			if far != 0 && s.nodes.At(far).keep()&bit != 0 {
				next, niv = far, farIv
			} else if near != 0 && s.nodes.At(near).keep()&bit != 0 {
				next, niv = near, nearIv
			}
		}
		if next == 0 {
			break
		}
		parent, h, iv = b, next, niv
	}
	if parent == nil {
		// The root itself is the only bucket d keeps; it is never discarded.
		return
	}
	b := s.nodes.At(h)
	b.setKeep(b.keep() &^ bit)
	lv.count[d]--
	edge := iv.L
	if d == 1 {
		edge = s.cfg.YMax - iv.R
	}
	if edge < lv.y[d] {
		lv.y[d] = edge
		s.wm[lv.idx][d] = edge
	}
	if k := b.keep(); k != 0 {
		// The other direction alone keeps the bucket's subtree now.
		s.foldChain(lv, k, b, iv)
		return
	}
	if parent.right == h {
		parent.right = 0
	} else {
		parent.left = 0
	}
	// The leaf cache is the one other way to reach the bucket.
	if s.cache[lv.idx].b == b {
		s.cache[lv.idx] = leaf{}
	}
	s.drop(h)
	lv.nodes--
}

// folding returns the one direction that keeps b when b may fold into a
// chain head of that direction's: b is closed and holds a sketch. No other
// direction's query can take b, now or after any merge: a direction that
// does not keep a bucket has its watermark at or inside the bucket's near
// endpoint (owed), and a merge takes the nearer of two watermarks. It
// returns 0 otherwise.
func (s *Summary) folding(b *bucket) Dirs {
	if k := b.keep(); s.folds && b.isClosed() && b.sk != 0 && (k == LE || k == GE) {
		return k
	}
	return 0
}

// foldInto adds b's sketch into head's and frees it when either is dense,
// and reports whether it did: b stays in the tree, closed, without a sketch.
func (s *Summary) foldInto(lv *level, head, b *bucket) bool {
	if !s.dense(head.sk) && !s.dense(b.sk) {
		return false
	}
	_ = s.sketch(head.sk).Merge(s.sketch(b.sk))
	sketch.Compact(s.sketch(head.sk)) // the merge unpacked the head, which is closed
	s.maker.Free(b.sk)
	b.sk = 0
	if s.cache[lv.idx].b == b {
		s.cache[lv.idx] = leaf{}
	}
	return true
}

// denser is a sketch that reports its form: F2's CountSketch, the one
// sketch whose buckets fold.
type denser interface{ Dense() bool }

// dense reports whether the sketch behind h has promoted to its array.
func (s *Summary) dense(h uint32) bool { return s.sketch(h).(denser).Dense() }

// foldClosed folds b, which spans iv and has just closed at level lv, into
// its chain head, found by a descent from the root: the nearest bucket above
// b, along an unbroken run of far steps of the direction that alone keeps b,
// that the same direction alone keeps and that holds a sketch.
func (s *Summary) foldClosed(lv *level, b *bucket, iv dyadic.Interval) {
	k := s.folding(b)
	if k == 0 {
		return
	}
	var head *bucket
	a, aiv := s.nodes.At(lv.root), s.span
	for a != b {
		lc, rc := aiv.Children()
		next, niv, far := a.left, lc, k == GE
		if iv.L > lc.R {
			next, niv, far = a.right, rc, k == LE
		}
		switch {
		case !far || a.keep() != k:
			head = nil
		case a.sk != 0:
			head = a
		}
		a, aiv = s.nodes.At(next), niv
	}
	if head != nil {
		s.foldInto(lv, head, b)
	}
}

// foldChain folds the chain down k's far side from b, which spans iv at
// level lv and whose subtree k alone keeps since a discard of the other
// direction's: greedily from the top, each closed bucket with a sketch goes
// into the nearest one above it that kept its own.
func (s *Summary) foldChain(lv *level, k Dirs, b *bucket, iv dyadic.Interval) {
	var head *bucket
	for b.isClosed() && b.keep() == k {
		if s.folding(b) != 0 && (head == nil || !s.foldInto(lv, head, b)) {
			head = b
		}
		lc, rc := iv.Children()
		next, niv := b.right, rc
		if k == GE {
			next, niv = b.left, lc
		}
		if next == 0 {
			return
		}
		b, iv = s.nodes.At(next), niv
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
	est, _, err := s.estimate(0, c)
	return est, err
}

// QueryGE estimates AGG{x | (x, y) in stream, y >= c}, Query's mirror.
func (s *Summary) QueryGE(c uint64) (float64, error) {
	est, _, err := s.estimate(1, c)
	return est, err
}

// QueryWithLevel is Query plus the level that served the answer
// (level 0 means the singleton level S0). The composed sketch goes back to
// the maker once estimated — its table or array to the arena, its struct to
// be the next query's — so a steady-state query allocates nothing; callers
// that need the sketch itself use QuerySketch.
func (s *Summary) QueryWithLevel(c uint64) (float64, int, error) { return s.estimate(0, c) }

// estimate is QueryWithLevel for direction d.
func (s *Summary) estimate(d int, c uint64) (float64, int, error) {
	sk, lvl, err := s.querySketch(d, c)
	if err != nil {
		return 0, lvl, err
	}
	est := sk.Estimate()
	sketch.Recycle(s.maker, sk)
	return est, lvl, nil
}

// QuerySketch returns the composed sketch of the buckets serving cutoff c
// of y <= c (the composition K of Algorithm 3) together with the level used.
// The correlated heavy-hitters structure of Section 3.3 consumes the sketch
// itself rather than just its estimate.
func (s *Summary) QuerySketch(c uint64) (sketch.Sketch, int, error) {
	return s.querySketch(0, c)
}

// QuerySketchGE is QuerySketch for y >= c, composed from the same tree.
func (s *Summary) QuerySketchGE(c uint64) (sketch.Sketch, int, error) {
	return s.querySketch(1, c)
}

// querySketch is Algorithm 3 for direction d: the smallest level whose
// watermark lies past c, seen from d's end, composes d's buckets wholly on
// d's side of c.
func (s *Summary) querySketch(d int, c uint64) (sketch.Sketch, int, error) {
	if s.cfg.Dirs&(1<<d) == 0 {
		return nil, -1, ErrDirection
	}
	if c > s.cfg.YMax {
		if d == 1 {
			return s.compose(s.parts[:0]), 0, nil // nothing has y >= c
		}
		c = s.cfg.YMax
	}
	dc := s.dist(d, c)
	if s.s0.y[d] > dc {
		return s.query0(d, dc), 0, nil
	}
	for i := 1; i <= s.lmax; i++ {
		if s.levels[i].y[d] > dc {
			return s.queryLevel(s.levels[i], d, dc), i, nil
		}
	}
	return nil, -1, ErrNoLevel
}

// query0 composes the singleton sketches within distance dc of direction
// d's end ("summing over appropriate singletons"), in y order. The table's
// slot order depends on everything else it holds, and a merge that depends
// on order (Fk's candidate sets, the heavy hitters') must compose alike in
// a summary serving both directions and in one serving d alone.
func (s *Summary) query0(d int, dc uint64) sketch.Sketch {
	ys := s.ys[:0]
	s.s0.buckets.each(func(y uint64, _ uint32) {
		if s.dist(d, y) <= dc {
			ys = append(ys, y)
		}
	})
	slices.Sort(ys)
	parts := s.parts[:0]
	for _, y := range ys {
		parts = append(parts, s.sketch(s.s0.buckets.get(y)))
	}
	s.ys = ys
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

// queryLevel composes the sketches of B1 — every bucket direction d keeps
// whose span lies within distance dc of d's end: inside [0, c] for LE,
// inside [c, YMax] for GE. Buckets straddling c (the set B2 of the
// analysis) are excluded; Lemma 4 bounds the mass they can hide. GE walks
// the tree as LE would walk its mirror image, far child last.
func (s *Summary) queryLevel(lv *level, d int, dc uint64) sketch.Sketch {
	parts := s.parts[:0]
	bit := Dirs(1) << d
	// On a virgin level a sketchless bucket is the root, standing in for
	// the shared whole-stream sketch; on a materialized level it is an
	// untouched split sibling holding nothing at all.
	virgin := lv.idx >= s.virginFrom
	// nearFar returns b's children nearest d's end first.
	nearFar := func(b *bucket) (uint32, uint32) {
		if d == 1 {
			return b.right, b.left
		}
		return b.left, b.right
	}
	var inside func(h uint32)
	inside = func(h uint32) {
		if h == 0 {
			return
		}
		b := s.nodes.At(h)
		if b.keep()&bit == 0 {
			return
		}
		if b.sk != 0 {
			parts = append(parts, s.sketch(b.sk))
		} else if virgin {
			parts = append(parts, s.sketch(s.shared))
		}
		near, far := nearFar(b)
		inside(near)
		inside(far)
	}
	var walk func(h uint32, iv dyadic.Interval)
	walk = func(h uint32, iv dyadic.Interval) {
		nearEnd, farEnd := s.dist(d, iv.L), s.dist(d, iv.R)
		if d == 1 {
			nearEnd, farEnd = farEnd, nearEnd
		}
		if h == 0 || nearEnd > dc {
			return
		}
		if farEnd <= dc {
			inside(h)
			return
		}
		b := s.nodes.At(h)
		// Straddling c, so not a single point: it has two halves.
		lc, rc := iv.Children()
		if d == 1 {
			walk(b.right, rc)
			walk(b.left, lc)
			return
		}
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
	s.s0.buckets.each(func(_ uint64, h uint32) {
		total += int64(s.sketch(h).Size()) + 1
	})
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
	n := s.s0.buckets.n
	for i := 1; i <= s.lmax; i++ {
		n += s.levels[i].nodes
	}
	return n
}

// Watermark returns the LE direction's Y_ℓ for diagnostics; level 0 is the
// singleton level.
func (s *Summary) Watermark(level int) uint64 {
	if level == 0 {
		return s.s0.y[0]
	}
	return s.levels[level].y[0]
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
	for start := 0; start < len(batch); {
		end := start + 1
		for end < len(batch) && batch[end].Y == batch[start].Y {
			end++
		}
		s.addGroup(batch[start:end], batch[start].Y)
		start = end
	}
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

// addGroup is Algorithm 2, the one insertion routine: it inserts an equal-y
// run of a sorted batch (AddWeighted passes a run of one) at y, hashing each
// tuple once into a reused slot plan and routing to a leaf once per level,
// for every direction that takes y there. Only the tuples' X and W are read.
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
	// either way.) No singleton is made at or past every watermark: Y_0 only
	// moves in, so it could never serve a query.
	z := &s.s0
	if keep := s.keepers(&z.y, y); keep != 0 {
		h := z.buckets.get(y)
		if h == 0 {
			h = s.maker.Alloc()
			z.buckets.set(y, h)
			for d := range dirs {
				if keep&(1<<d) != 0 {
					heapPushU64(&z.ys[d], s.dist(d, y))
				}
			}
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
		// y is in the level's discarded region for every direction. The
		// paper returns here; skipping only this level stays consistent
		// whatever the Y_ℓ order.
		keep := s.keepers(&s.wm[i], y)
		if keep == 0 {
			continue
		}
		lv := s.levels[i]
		c := &s.cache[i]
		if !c.serves(y) {
			b, iv := s.leafFor(lv, y, keep)
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
		for d := range dirs {
			for lv.count[d] > s.alpha {
				s.discard(lv, d)
			}
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
