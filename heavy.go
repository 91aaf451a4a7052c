package correlated

import "github.com/streamagg/correlated/internal/heavy"

// HeavyHitter is one reported correlated heavy hitter.
type HeavyHitter struct {
	// X is the identifier.
	X uint64
	// Freq is the estimated frequency among selected tuples.
	Freq float64
}

// hitters is what the two heavy-hitter summaries share: one heavy-hitters
// summary serving the Predicate's directions — one tree a level, as for the
// moment summaries — and every method that only forwards to it.
type hitters struct{ hh *heavy.Summary }

// newHitters builds the heavy-hitters summary of moment order k serving
// o's Predicate.
func newHitters(k int, o Options) (hitters, error) {
	cfg, err := o.summaryConfig()
	if err != nil {
		return hitters{}, err
	}
	hh, err := heavy.New(k, cfg)
	return hitters{hh}, err
}

// Add inserts the tuple (x, y).
func (s *hitters) Add(x, y uint64) error { return s.hh.Add(x, y) }

// QueryLE reports heavy hitters among tuples with y <= c.
func (s *hitters) QueryLE(c uint64, phi float64) ([]HeavyHitter, error) {
	return convertHH(s.hh.QueryLE(c, phi))
}

// QueryGE reports heavy hitters among tuples with y >= c.
func (s *hitters) QueryGE(c uint64, phi float64) ([]HeavyHitter, error) {
	return convertHH(s.hh.QueryGE(c, phi))
}

// Space reports stored counters/tuples.
func (s *hitters) Space() int64 { return s.hh.Space() }

// HeavyHittersSummary reports the correlated F2 heavy hitters of
// Section 3.3: identifiers whose squared selected frequency is at least
// phi·F2(c), with phi supplied at query time alongside the cutoff. Like
// the moment summaries it keeps one tree a level for the directions its
// Predicate names.
type HeavyHittersSummary struct{ hitters }

// NewHeavyHittersSummary builds a heavy-hitters summary.
func NewHeavyHittersSummary(o Options) (*HeavyHittersSummary, error) {
	h, err := newHitters(2, o)
	if err != nil {
		return nil, err
	}
	return &HeavyHittersSummary{h}, nil
}

// F2LE estimates F2 over tuples with y <= c on the same structure.
func (s *HeavyHittersSummary) F2LE(c uint64) (float64, error) { return s.hh.Estimate(c) }

// FkHeavyHittersSummary generalizes the correlated heavy hitters to any
// moment order k >= 2: QueryLE reports identifiers whose selected
// frequency to the k-th power reaches phi·Fk(c). For k = 2 it is
// HeavyHittersSummary's structure.
type FkHeavyHittersSummary struct{ hitters }

// NewFkHeavyHittersSummary builds an Fk heavy-hitters summary.
func NewFkHeavyHittersSummary(k int, o Options) (*FkHeavyHittersSummary, error) {
	h, err := newHitters(k, o)
	if err != nil {
		return nil, err
	}
	return &FkHeavyHittersSummary{h}, nil
}

func convertHH(items []heavy.Item, err error) ([]HeavyHitter, error) {
	if err != nil {
		return nil, err
	}
	out := make([]HeavyHitter, len(items))
	for i, it := range items {
		out[i] = HeavyHitter{X: it.X, Freq: it.Freq}
	}
	return out, nil
}
