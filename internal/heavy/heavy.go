// Package heavy implements the correlated heavy hitters of the paper's
// Section 3.3: given a y-cutoff c and thresholds 0 < eps < phi < 1, report
// every identifier x whose selected frequency to the k-th power is at least
// phi·Fk(c), and none below (phi−eps)·Fk(c).
//
// As in the paper, the structure is the core structure of Section 2 where
// every bucket additionally carries a frequency-estimation sketch and a
// bounded set of candidate identifiers. For k = 2 the F2 sketch and the
// per-item sketch are literally the same CountSketch table (following
// [8]); for k >= 3 the Indyk–Woodruff Fk sketch's per-level CountSketches
// and candidate sets already give the point estimates. A query composes
// the sketches of the buckets on the selected side of c exactly as
// Algorithm 3 does, unions their candidate sets, and keeps the candidates
// whose point estimates clear the threshold. One tree serves y <= c and
// y >= c alike, as for every core summary.
package heavy

import (
	"cmp"
	"math"
	"slices"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/hash"
	"github.com/streamagg/correlated/internal/sketch"
	"github.com/streamagg/correlated/internal/slab"
)

// Item is one reported heavy hitter.
type Item struct {
	X    uint64  // the identifier
	Freq float64 // estimated selected frequency
}

// Summary answers correlated Fk heavy-hitter queries in the directions its
// core.Config names, from one core summary.
type Summary struct {
	cs *core.Summary
	k  int
}

// New builds a Summary for moment order k >= 2 under cfg.
func New(k int, cfg core.Config) (*Summary, error) {
	var agg core.Aggregate
	if k == 2 {
		agg = f2Hitters(max(int(8/cfg.Eps), 16))
	} else {
		agg = core.FkAggregate(k)
	}
	cs, err := core.NewSummary(agg, cfg)
	if err != nil {
		return nil, err
	}
	return &Summary{cs: cs, k: k}, nil
}

// f2Hitters is the F2 aggregate whose buckets each hold a CountSketch and
// up to cap candidate identifiers (twice that between prunes).
func f2Hitters(cap int) core.Aggregate {
	agg := core.F2Aggregate()
	base := agg.NewMaker
	agg.NewMaker = func(upsilon, gamma float64, rng *hash.RNG) sketch.Maker {
		return &hhMaker{
			inner: base(upsilon, gamma, rng).(*sketch.F2Maker),
			cap:   cap,
		}
	}
	return agg
}

// Add inserts the tuple (x, y).
func (s *Summary) Add(x, y uint64) error { return s.cs.Add(x, y) }

// Space reports stored counters/tuples.
func (s *Summary) Space() int64 { return s.cs.Space() }

// Estimate estimates the correlated moment Fk(c) over y <= c.
func (s *Summary) Estimate(c uint64) (float64, error) { return s.cs.Query(c) }

// QueryLE returns the estimated heavy hitters among tuples with y <= c
// for threshold phi: identifiers whose estimated selected frequency to
// the k-th power is at least phi times the estimated Fk(c), sorted by
// decreasing frequency.
func (s *Summary) QueryLE(c uint64, phi float64) ([]Item, error) {
	merged, _, err := s.cs.QuerySketch(c)
	return s.hitters(merged, err, phi)
}

// QueryGE is QueryLE for tuples with y >= c.
func (s *Summary) QueryGE(c uint64, phi float64) ([]Item, error) {
	merged, _, err := s.cs.QuerySketchGE(c)
	return s.hitters(merged, err, phi)
}

// hitters reads the heavy hitters off a composed sketch and recycles it.
func (s *Summary) hitters(merged sketch.Sketch, err error, phi float64) ([]Item, error) {
	if err != nil {
		return nil, err
	}
	fk := merged.Estimate()
	est := merged.(sketch.ItemEstimator)
	var out []Item
	for _, x := range merged.(sketch.CandidateTracker).Candidates() {
		f := est.EstimateItem(x)
		if f <= 0 {
			continue
		}
		if math.Pow(f, float64(s.k)) >= phi*fk {
			out = append(out, Item{X: x, Freq: f})
		}
	}
	slices.SortFunc(out, func(a, b Item) int {
		return cmp.Or(cmp.Compare(b.Freq, a.Freq), cmp.Compare(a.X, b.X))
	})
	s.cs.RecycleSketch(merged)
	return out, nil
}

// hhMaker makes composite sketches: a CountSketch plus a candidate set.
type hhMaker struct {
	inner *sketch.F2Maker
	cap   int
	slab  slab.Slab[hhSketch] // the sketches Alloc hands out
}

func (m *hhMaker) New() sketch.Sketch {
	return &hhSketch{
		maker: m,
		cs:    m.inner.New().(*sketch.CountSketch),
		cand:  make(map[uint64]int64),
	}
}

// Alloc implements sketch.Maker. A slot keeps its inner sketch and its
// candidate map across Free, both emptied.
func (m *hhMaker) Alloc() uint32 {
	i := m.slab.Alloc()
	if h := m.slab.At(i); h.cs == nil {
		*h = *m.New().(*hhSketch)
	}
	return i
}

// At implements sketch.Maker.
func (m *hhMaker) At(i uint32) sketch.Sketch { return m.slab.At(i) }

// Free implements sketch.Maker.
func (m *hhMaker) Free(i uint32) {
	m.slab.At(i).Reset()
	m.slab.Free(i)
}

// Slots implements sketch.SlotMaker with the inner CountSketch slots, whose
// last word is the raw identifier the candidate set needs.
func (m *hhMaker) Slots(x uint64, scratch sketch.Slots) sketch.Slots {
	return m.inner.Slots(x, scratch)
}

// SlotWidth implements sketch.SlotMaker.
func (m *hhMaker) SlotWidth() int { return m.inner.SlotWidth() }

// Recycle implements sketch.Recycler: the inner sketch's storage goes back
// to the inner maker.
func (m *hhMaker) Recycle(sk sketch.Sketch) {
	if h, ok := sk.(*hhSketch); ok && h.maker == m {
		m.inner.Recycle(h.cs)
	}
}

// hhSketch carries the candidate set alongside the linear sketch. The
// candidate count is the weight added while tracked — a lower bound used
// only for pruning decisions; reported frequencies come from the
// CountSketch point estimates.
type hhSketch struct {
	maker *hhMaker
	cs    *sketch.CountSketch
	cand  map[uint64]int64
}

func (h *hhSketch) Add(x uint64, w int64) {
	h.cs.Add(x, w)
	h.track(x, w)
}

// AddSlots implements sketch.SlotAdder: the slots are the inner
// CountSketch's, and their trailing word is x itself.
func (h *hhSketch) AddSlots(slots sketch.Slots, w int64) {
	h.cs.AddSlots(slots, w)
	h.track(slots[len(slots)-1], w)
}

func (h *hhSketch) track(x uint64, w int64) {
	if _, ok := h.cand[x]; ok {
		h.cand[x] += w
		return
	}
	if len(h.cand) >= 2*h.maker.cap {
		h.prune()
	}
	h.cand[x] = w
}

// Reset implements sketch.Resetter.
func (h *hhSketch) Reset() {
	h.cs.Reset()
	clear(h.cand)
}

// prune keeps the cap heaviest candidates by point estimate.
func (h *hhSketch) prune() {
	type ce struct {
		x   uint64
		est float64
	}
	ents := make([]ce, 0, len(h.cand))
	for x := range h.cand {
		ents = append(ents, ce{x, h.cs.EstimateItem(x)})
	}
	// Ties go to the smaller x, so which candidates survive does not depend
	// on the map's order and a Seed reproduces every answer.
	slices.SortFunc(ents, func(a, b ce) int {
		return cmp.Or(cmp.Compare(b.est, a.est), cmp.Compare(a.x, b.x))
	})
	for _, e := range ents[h.maker.cap:] {
		delete(h.cand, e.x)
	}
}

func (h *hhSketch) Estimate() float64 { return h.cs.Estimate() }

func (h *hhSketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*hhSketch)
	if !ok || o.maker != h.maker {
		return sketch.ErrIncompatible
	}
	if err := h.cs.Merge(o.cs); err != nil {
		return err
	}
	for x, c := range o.cand {
		h.cand[x] += c
	}
	if len(h.cand) > 4*h.maker.cap {
		h.prune()
	}
	return nil
}

func (h *hhSketch) Size() int { return h.cs.Size() + len(h.cand) }

// EstimateItem implements sketch.ItemEstimator.
func (h *hhSketch) EstimateItem(x uint64) float64 { return h.cs.EstimateItem(x) }

// Candidates implements sketch.CandidateTracker.
func (h *hhSketch) Candidates() []uint64 {
	out := make([]uint64, 0, len(h.cand))
	for x := range h.cand {
		out = append(out, x)
	}
	return out
}
