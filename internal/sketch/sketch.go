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
// writes to again, has its table packed into a run of the pairs it holds,
// each column in the log's bit code, or its array into four bits a counter
// with the exceptions listed (Compact); a later write unpacks either. Three
// table widths, a run, three array widths, a packed array, one API: no
// answer, image or Size depends on a width or a packing, only Bytes.
// Tables and arrays are blocks of their maker's arena, off the collected heap
// (arena.go): one a sketch grows out of, or is recycled with, goes back
// zeroed to the arena for the next sketch that needs its size class, so the
// collector never sees the counters, and ingest allocates on the heap little
// beyond the sketch structs the summary keeps.
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
//
// It hands a sketch out one of two ways. New returns one the caller holds by
// reference — a query's composition, a scratch sketch — and hands back with
// Recycle, which a maker that keeps books needs. Alloc holds
// one in the maker's slab and returns its handle, never 0: the four bytes the
// core structure keeps in a bucket in place of a pointer, tens of thousands
// of times a summary. At resolves a handle to its sketch, which stays in
// place until Free empties it and takes the slot back for the next Alloc.
type Maker interface {
	New() Sketch
	Alloc() uint32
	At(h uint32) Sketch
	Free(h uint32)
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

// Recycler is implemented by makers whose sketches hold storage the maker
// lends them: Recycle takes back what a sketch from New holds, for the next
// sketch that needs it. The caller must drop every reference to the sketch,
// and must recycle every sketch from New it is done with: storage a dropped
// sketch holds is on the maker's books, and in its arena, until the maker
// itself is collected.
type Recycler interface {
	Recycle(Sketch)
}

// Recycle hands sk's storage back to m when m lends any; otherwise it is a
// no-op and the sketch is left for the garbage collector.
func Recycle(m Maker, sk Sketch) {
	if sk == nil {
		return
	}
	if r, ok := m.(Recycler); ok {
		r.Recycle(sk)
	}
}

// Compacter is implemented by sketches that can hold their state in less
// memory once no update is expected: by shedding what they hold only to
// absorb further updates, or by re-encoding what they hold in a form an
// update must undo. Compact changes no answer, Size or image, and the sketch
// stays usable: a later update costs whatever rebuilding or unpacking takes.
type Compacter interface {
	Compact()
}

// Compact compacts sk when its type can. The core structure calls it on a
// bucket that has closed, which ingest never writes to again.
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
