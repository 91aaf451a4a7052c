package heavy

import (
	"math"
	"sort"

	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/sketch"
)

// FkSummary generalizes the correlated heavy hitters of Section 3.3 from
// F2 to any moment order k >= 2: report identifiers whose selected
// frequency raised to the k-th power reaches phi·Fk(c). It runs the
// general reduction with the Indyk–Woodruff Fk sketch, whose per-level
// CountSketch and candidate sets already provide the point estimates the
// query needs.
type FkSummary struct {
	cs *core.Summary
	k  int
}

// NewFk builds a correlated Fk heavy-hitters summary.
func NewFk(k int, cfg Config) (*FkSummary, error) {
	cs, err := core.NewSummary(core.FkAggregate(k), core.Config{
		Eps: cfg.Eps, Delta: cfg.Delta, YMax: cfg.YMax,
		MaxStreamLen: cfg.MaxStreamLen, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &FkSummary{cs: cs, k: k}, nil
}

// K returns the moment order.
func (s *FkSummary) K() int { return s.k }

// Add inserts the tuple (x, y).
func (s *FkSummary) Add(x, y uint64) error { return s.cs.Add(x, y) }

// Space reports stored counters/tuples.
func (s *FkSummary) Space() int64 { return s.cs.Space() }

// Fk estimates the correlated moment Fk(c).
func (s *FkSummary) Fk(c uint64) (float64, error) { return s.cs.Query(c) }

// Query returns identifiers with estimated f^k >= phi·F̂k(c), sorted by
// decreasing frequency.
func (s *FkSummary) Query(c uint64, phi float64) ([]Item, error) {
	merged, _, err := s.cs.QuerySketch(c)
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Freq != out[j].Freq {
			return out[i].Freq > out[j].Freq
		}
		return out[i].X < out[j].X
	})
	s.cs.RecycleSketch(merged)
	return out, nil
}
