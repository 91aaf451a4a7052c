// Package sketch implements the mergeable whole-stream summaries that the
// paper's general reduction (Section 2) uses as black boxes: exact counters
// for SUM/COUNT, the AMS/CountSketch linear sketch for F2 (with the fast
// Thorup–Zhang row layout), an Indyk–Woodruff-style level-set estimator for
// Fk, k > 2, and the Cauchy-projection L1 sketch of the turnstile
// (Section 4) machinery.
//
// Every sketch is created by a Maker. All sketches from one Maker share hash
// seeds, which is what makes them composable: for disjoint substreams R1 and
// R2, Merge(sk(R1), sk(R2)) is distributed identically to sk(R1 ∪ R2)
// (Condition V(b) of the paper). Merging sketches from different Makers is
// an error.
//
// The reduction keeps one sketch per bucket, and by construction most
// buckets — the singletons, the low levels — hold few distinct items. A
// CountSketch therefore has two forms: it starts in the items form, a small
// hash table of the distinct (x, weight) pairs it has absorbed, in which
// every answer is exact, and promotes itself once to the dense width × depth
// array, by hashing its pairs in, when it would hold more than a quarter of
// that many pairs (itemsDivisor, a constant: there is nothing to tune, and
// no second sketch type or Maker). The sketch is linear and its row hashes
// deterministic, so a promoted or merged sketch holds exactly the counters
// it would have held had it been dense from its first item; what the form
// changes is that small sketches answer exactly, and Size, which reports
// what is stored (two words per pair) — that is what the Space figures of
// every layer above add up. The marshaled image records the form. Each form
// is stored as narrow as what it holds allows: a table slot is four bytes —
// identifier in 24 bits, weight in 8 — until a pair needs eight, then sixteen,
// and the dense array's counters one byte each until one would overflow, then
// two, then eight. And a sketch whose bucket has closed, which ingest never
// writes to again, has its table cut to exactly the pairs it holds (Compact);
// a later write hashes it again. Three table widths, three array widths, one
// API: no answer, image or Size depends on a width or a cut, only Bytes. A
// table or array a sketch grows out of, or is recycled with, goes back zeroed
// to its maker's free lists for the next sketch that needs one, so ingest
// allocates little beyond what the summary ends up holding.
package sketch

import "errors"

// ErrIncompatible is returned by Merge when the two sketches were not
// created by the same Maker (and therefore do not share hash functions).
var ErrIncompatible = errors.New("sketch: cannot merge sketches from different makers")

// Sketch summarizes a weighted multiset of item identifiers.
//
// Estimate must be cheap (amortized O(rows) or better), because the core
// data structure of Section 2 consults it on every insertion to decide when
// a bucket crosses its 2^(ℓ+1) closing threshold.
type Sketch interface {
	// Add inserts w copies of item x. Sketches used with the insert-only
	// algorithms of Sections 2–3 receive only w > 0; turnstile sketches
	// (Section 4) also receive negative w.
	Add(x uint64, w int64)

	// Estimate returns the sketch's estimate of its aggregate over
	// everything added so far.
	Estimate() float64

	// Merge folds other into the receiver. The two sketches must come
	// from the same Maker.
	Merge(other Sketch) error

	// Size returns the number of stored counters/tuples, the space
	// metric reported in the paper's experiments.
	Size() int
}

// Maker creates sketches that share hash seeds and are therefore mergeable
// with one another.
type Maker interface {
	New() Sketch
	Name() string
}

// Slots is the precomputed per-row update plan for one item: everything a
// sketch needs to apply the item without re-evaluating hash functions. The
// word layout is private to each Maker/Sketch pair — slots produced by one
// Maker are only meaningful to sketches created by that same Maker.
type Slots []uint64

// SlotMaker is a Maker whose sketches all share hash functions, so the
// (bucket, sign) work for an item can be computed once and applied to any
// number of sibling sketches. This is what makes the core structure's
// ingest path hash-once: one tuple is hashed once per arrival, not once per
// live level. Every sketch returned by a SlotMaker's New must implement
// SlotAdder.
type SlotMaker interface {
	Maker

	// Slots appends x's update slots to scratch and returns the extended
	// slice. Callers reuse scratch across calls (pass scratch[:0] for a
	// single item, or keep appending to build a batch slab).
	Slots(x uint64, scratch Slots) Slots

	// SlotWidth returns the fixed number of slot words emitted per item.
	SlotWidth() int
}

// SlotAdder applies a precomputed update plan. AddSlots(m.Slots(x, nil), w)
// must leave the sketch in a state bit-identical to Add(x, w).
type SlotAdder interface {
	AddSlots(slots Slots, w int64)
}

// Resetter is implemented by sketches that can be cleared back to their
// freshly-created (empty) state for reuse.
type Resetter interface {
	Reset()
}

// Recycler is implemented by makers that keep a free list of reset
// sketches: New draws from the pool when possible, and Recycle returns a
// sketch to it. Recycling a sketch transfers ownership back to the maker —
// the caller must drop every reference to it.
type Recycler interface {
	Recycle(Sketch)
}

// Recycle returns sk to m's pool when m supports pooling; otherwise it is
// a no-op and the sketch is left for the garbage collector.
func Recycle(m Maker, sk Sketch) {
	if sk == nil {
		return
	}
	if r, ok := m.(Recycler); ok {
		r.Recycle(sk)
	}
}

// Compacter is implemented by sketches that can shed memory they hold only
// to absorb further updates. Compact changes no answer, Size or image, and
// the sketch stays usable: a later update costs whatever rebuilding the
// slack takes.
type Compacter interface {
	Compact()
}

// Compact sheds sk's slack when its type has any. The core structure calls
// it on a bucket that has closed, which ingest never writes to again.
func Compact(sk Sketch) {
	if c, ok := sk.(Compacter); ok {
		c.Compact()
	}
}

// Compose returns a new sketch of the union of the streams parts summarize:
// what merging them one by one into m.New() yields. Every part must come
// from m. Algorithm 3 composes a query's answer from hundreds of buckets,
// and a maker that can do so for less than that many merges does.
func Compose(m Maker, parts []Sketch) Sketch {
	if fm, ok := m.(*F2Maker); ok {
		return fm.compose(parts)
	}
	out := m.New()
	for _, p := range parts {
		_ = out.Merge(p) // same-maker merges cannot fail
	}
	return out
}

// maxPool bounds each maker's free list of sketches; beyond this, a recycled
// sketch's struct is simply dropped — after its table or array has gone to the
// lists of those, which have bounds of their own. Query composition churns a
// handful of sketches at a time and an eviction burst a few hundred, so a
// small pool captures the reuse.
const maxPool = 256

// maxTablePool bounds each of an F2Maker's free lists of items tables, one a
// size class. What a list has to cover is the tables one group's growth steps
// leave before its next ones take them. Replaying corrdbench's stream shapes
// through a summary, 64 a class ends holding a third of a megabyte; 256 and
// 4 096 hold four and up to eighteen times that to allocate a seventh less,
// and the runtime's footprint reads the same at all three.
const maxTablePool = 64

// ItemEstimator is implemented by sketches that can estimate the frequency
// of an individual item (CountSketch, Fk). The correlated heavy hitters
// structure of Section 3.3 depends on it.
type ItemEstimator interface {
	// EstimateItem returns the estimated (signed) frequency of x.
	EstimateItem(x uint64) float64
}

// CandidateTracker is implemented by sketches that track a candidate set of
// potentially-heavy items alongside their frequency estimates.
type CandidateTracker interface {
	// Candidates returns the tracked item identifiers, unordered.
	Candidates() []uint64
}

// CheapEstimator is an optional fast path: sketches whose full Estimate is
// expensive (the Fk level-set estimator) expose a constant-time running
// approximation good enough for bucket-closing decisions.
type CheapEstimator interface {
	CheapEstimate() float64
}

// CheapEstimate returns s.CheapEstimate() when available and s.Estimate()
// otherwise.
func CheapEstimate(s Sketch) float64 {
	if c, ok := s.(CheapEstimator); ok {
		return c.CheapEstimate()
	}
	return s.Estimate()
}

// BudgetEstimator is implemented by sketches that can bound how much more
// weight they can absorb before their (cheap) estimate could possibly
// reach a threshold. The core structure uses the budget to skip its
// per-insertion bucket-closing checks: while the returned weight has not
// yet been added, the estimate provably stays below thresh, so the
// decisions are bit-identical to checking after every update.
type BudgetEstimator interface {
	// ThresholdBudget returns a weight W >= 0 such that the estimate
	// stays strictly below thresh until at least W more total weight has
	// been added. 0 means "no guarantee — re-check after every update".
	ThresholdBudget(thresh float64) int64
}

// ThresholdBudget returns s's check-skipping budget for thresh, or 0 when
// the sketch offers no bound.
func ThresholdBudget(s Sketch, thresh float64) int64 {
	if b, ok := s.(BudgetEstimator); ok {
		return b.ThresholdBudget(thresh)
	}
	return 0
}

// median returns the median of vs, averaging the two middle elements for
// even lengths. It reorders vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	// Insertion sort: row counts are tiny (< 16).
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
