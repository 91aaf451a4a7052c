package correlated

import (
	"errors"

	"github.com/streamagg/correlated/internal/dyadic"
	"github.com/streamagg/correlated/internal/heavy"
)

// HeavyHitter is one reported correlated heavy hitter.
type HeavyHitter struct {
	// X is the identifier.
	X uint64
	// Freq is the estimated frequency among selected tuples.
	Freq float64
}

// HeavyHittersSummary reports the correlated F2 heavy hitters of
// Section 3.3: identifiers whose squared selected frequency is at least
// phi·F2(c), with phi supplied at query time alongside the cutoff.
type HeavyHittersSummary struct {
	le   *heavy.Summary
	ge   *heavy.Summary
	ymax uint64
}

// NewHeavyHittersSummary builds a heavy-hitters summary.
func NewHeavyHittersSummary(o Options) (*HeavyHittersSummary, error) {
	if o.YMax == 0 {
		return nil, errors.New("correlated: YMax must be positive")
	}
	cfg := heavy.Config{
		Eps: o.Eps, Delta: o.Delta, YMax: o.YMax,
		MaxStreamLen: o.MaxStreamLen, Seed: o.Seed,
	}
	s := &HeavyHittersSummary{ymax: dyadic.RoundYMax(o.YMax)}
	var err error
	if o.Predicate == LE || o.Predicate == Both {
		if s.le, err = heavy.New(cfg); err != nil {
			return nil, err
		}
	}
	if o.Predicate == GE || o.Predicate == Both {
		cfg.Seed ^= mirrorSeed
		if s.ge, err = heavy.New(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add inserts the tuple (x, y).
func (s *HeavyHittersSummary) Add(x, y uint64) error {
	if y > s.ymax {
		return errors.New("correlated: y exceeds YMax")
	}
	if s.le != nil {
		if err := s.le.Add(x, y); err != nil {
			return err
		}
	}
	if s.ge != nil {
		if err := s.ge.Add(x, s.ymax-y); err != nil {
			return err
		}
	}
	return nil
}

// QueryLE reports heavy hitters among tuples with y <= c.
func (s *HeavyHittersSummary) QueryLE(c uint64, phi float64) ([]HeavyHitter, error) {
	if s.le == nil {
		return nil, ErrDirection
	}
	return convertHH(s.le.Query(c, phi))
}

// QueryGE reports heavy hitters among tuples with y >= c.
func (s *HeavyHittersSummary) QueryGE(c uint64, phi float64) ([]HeavyHitter, error) {
	if s.ge == nil {
		return nil, ErrDirection
	}
	if c > s.ymax {
		return nil, nil
	}
	return convertHH(s.ge.Query(s.ymax-c, phi))
}

// F2LE estimates F2 over tuples with y <= c on the same structure.
func (s *HeavyHittersSummary) F2LE(c uint64) (float64, error) {
	if s.le == nil {
		return 0, ErrDirection
	}
	return s.le.F2(c)
}

// Space reports stored counters/tuples.
func (s *HeavyHittersSummary) Space() int64 {
	var sp int64
	if s.le != nil {
		sp += s.le.Space()
	}
	if s.ge != nil {
		sp += s.ge.Space()
	}
	return sp
}

// FkHeavyHittersSummary generalizes the correlated heavy hitters to any
// moment order k >= 2: QueryLE reports identifiers whose selected
// frequency to the k-th power reaches phi·Fk(c).
type FkHeavyHittersSummary struct {
	le   *heavy.FkSummary
	ge   *heavy.FkSummary
	ymax uint64
}

// NewFkHeavyHittersSummary builds an Fk heavy-hitters summary.
func NewFkHeavyHittersSummary(k int, o Options) (*FkHeavyHittersSummary, error) {
	if o.YMax == 0 {
		return nil, errors.New("correlated: YMax must be positive")
	}
	cfg := heavy.Config{
		Eps: o.Eps, Delta: o.Delta, YMax: o.YMax,
		MaxStreamLen: o.MaxStreamLen, Seed: o.Seed,
	}
	s := &FkHeavyHittersSummary{ymax: dyadic.RoundYMax(o.YMax)}
	var err error
	if o.Predicate == LE || o.Predicate == Both {
		if s.le, err = heavy.NewFk(k, cfg); err != nil {
			return nil, err
		}
	}
	if o.Predicate == GE || o.Predicate == Both {
		cfg.Seed ^= mirrorSeed
		if s.ge, err = heavy.NewFk(k, cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add inserts the tuple (x, y).
func (s *FkHeavyHittersSummary) Add(x, y uint64) error {
	if y > s.ymax {
		return errors.New("correlated: y exceeds YMax")
	}
	if s.le != nil {
		if err := s.le.Add(x, y); err != nil {
			return err
		}
	}
	if s.ge != nil {
		if err := s.ge.Add(x, s.ymax-y); err != nil {
			return err
		}
	}
	return nil
}

// QueryLE reports Fk heavy hitters among tuples with y <= c.
func (s *FkHeavyHittersSummary) QueryLE(c uint64, phi float64) ([]HeavyHitter, error) {
	if s.le == nil {
		return nil, ErrDirection
	}
	return convertHH(s.le.Query(c, phi))
}

// QueryGE reports Fk heavy hitters among tuples with y >= c.
func (s *FkHeavyHittersSummary) QueryGE(c uint64, phi float64) ([]HeavyHitter, error) {
	if s.ge == nil {
		return nil, ErrDirection
	}
	if c > s.ymax {
		return nil, nil
	}
	return convertHH(s.ge.Query(s.ymax-c, phi))
}

// Space reports stored counters/tuples.
func (s *FkHeavyHittersSummary) Space() int64 {
	var sp int64
	if s.le != nil {
		sp += s.le.Space()
	}
	if s.ge != nil {
		sp += s.ge.Space()
	}
	return sp
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
