// Package heavy implements the correlated F2 heavy hitters of the paper's
// Section 3.3: given a y-cutoff c and thresholds 0 < eps < phi < 1, report
// every identifier x whose squared selected frequency is at least
// phi·F2(c), and none below (phi−eps)·F2(c).
//
// As in the paper, the structure is the F2 core structure of Section 2
// where every bucket additionally carries a frequency-estimation sketch
// (CountSketch, following [8]) — here the F2 sketch and the per-item
// sketch are literally the same CountSketch table — plus a bounded set of
// candidate identifiers per bucket. A query composes the sketches of the
// buckets inside [0, c] exactly as Algorithm 3 does, unions their
// candidate sets, and keeps the candidates whose point estimates clear the
// threshold.
package heavy

import (
	"sort"

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

// Config parameterizes the heavy-hitters summary.
type Config struct {
	// Eps, Delta, YMax, MaxStreamLen, Seed: as in core.Config.
	Eps          float64
	Delta        float64
	YMax         uint64
	MaxStreamLen uint64
	Seed         uint64
	// CandCap bounds the candidate identifiers tracked per bucket;
	// 0 derives ceil(8/Eps).
	CandCap int
}

// Summary answers correlated F2 heavy-hitter queries.
type Summary struct {
	cs  *core.Summary
	cap int
}

// New builds a Summary.
func New(cfg Config) (*Summary, error) {
	cap := cfg.CandCap
	if cap == 0 {
		cap = int(8 / cfg.Eps)
		if cap < 16 {
			cap = 16
		}
	}
	agg := core.F2Aggregate()
	base := agg.NewMaker
	agg.NewMaker = func(upsilon, gamma float64, rng *hash.RNG) sketch.Maker {
		return &hhMaker{
			inner: base(upsilon, gamma, rng).(*sketch.F2Maker),
			cap:   cap,
		}
	}
	cs, err := core.NewSummary(agg, core.Config{
		Eps: cfg.Eps, Delta: cfg.Delta, YMax: cfg.YMax,
		MaxStreamLen: cfg.MaxStreamLen, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Summary{cs: cs, cap: cap}, nil
}

// Add inserts the tuple (x, y).
func (s *Summary) Add(x, y uint64) error { return s.cs.Add(x, y) }

// Space reports stored counters/tuples.
func (s *Summary) Space() int64 { return s.cs.Space() }

// F2 estimates the correlated second moment F2(c).
func (s *Summary) F2(c uint64) (float64, error) { return s.cs.Query(c) }

// Query returns the estimated heavy hitters for cutoff c and threshold
// phi: identifiers whose estimated squared selected frequency is at least
// phi times the estimated F2(c), sorted by decreasing frequency.
func (s *Summary) Query(c uint64, phi float64) ([]Item, error) {
	merged, _, err := s.cs.QuerySketch(c)
	if err != nil {
		return nil, err
	}
	hh := merged.(*hhSketch)
	f2 := hh.Estimate()
	var out []Item
	for x := range hh.cand {
		f := hh.cs.EstimateItem(x)
		if f <= 0 {
			continue
		}
		if f*f >= phi*f2 {
			out = append(out, Item{X: x, Freq: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].X < out[j].X
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

func (m *hhMaker) Name() string { return "f2-heavy-hitters" }

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
	sort.Slice(ents, func(i, j int) bool { return ents[i].est > ents[j].est })
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
