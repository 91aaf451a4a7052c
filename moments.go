package correlated

import (
	"errors"

	"github.com/streamagg/correlated/internal/core"
)

// F2Summary estimates the correlated second frequency moment:
// F2{ x : y <= c } = Σ_x f_x², over the substream selected by the cutoff.
// It instantiates the paper's general reduction (Section 2) with the
// AMS/CountSketch whole-stream sketch (Section 3.1, Lemma 9).
type F2Summary struct {
	d *dual
}

// NewF2Summary builds an F2 summary for the given accuracy target: each
// query is within (1 ± Eps) of the true selected F2 with probability at
// least 1 − Delta, in space polylogarithmic in MaxStreamLen. It fails if
// Eps or Delta is outside (0, 1) or YMax is zero. The summary is not safe
// for concurrent use (see the package documentation).
func NewF2Summary(o Options) (*F2Summary, error) {
	d, err := newDual(core.F2Aggregate(), o)
	if err != nil {
		return nil, err
	}
	return &F2Summary{d: d}, nil
}

// Add inserts the tuple (x, y).
func (s *F2Summary) Add(x, y uint64) error { return s.d.add(x, y, 1) }

// AddWeighted inserts w > 0 copies of (x, y).
func (s *F2Summary) AddWeighted(x, y uint64, w int64) error { return s.d.add(x, y, w) }

// AddBatch inserts a batch of tuples through the amortized batched path
// (sorted by y in place, one hash per tuple, leaf routing per group).
func (s *F2Summary) AddBatch(batch []Tuple) error { return s.d.addBatch(batch) }

// QueryLE estimates F2 over tuples with y <= c. It returns ErrDirection
// when the LE predicate was not enabled at construction, and ErrNoLevel —
// with probability at most Delta — when no level of the structure can
// serve the cutoff (Algorithm 3's FAIL output).
func (s *F2Summary) QueryLE(c uint64) (float64, error) { return s.d.queryLE(c) }

// QueryGE estimates F2 over tuples with y >= c, with the same error
// conditions as QueryLE for the GE predicate.
func (s *F2Summary) QueryGE(c uint64) (float64, error) { return s.d.queryGE(c) }

// Merge folds other — an F2Summary built from identical Options over a
// different substream — into the receiver, producing the summary of the
// combined stream: this is the paper's distributed setting, where each
// site summarizes its local stream and a coordinator merges the site
// summaries. The receiver is modified; other is left usable. A summary
// built from different Options is rejected with an *IncompatibleError
// (matching ErrIncompatible) naming the differing field, before any state
// changes.
//
// Merged queries keep the structure's guarantees; mass a site absorbed
// into a coarse bucket stays coarse, so merging k sites scales the
// paper's Lemma 4 straddling-bucket error term by k — for a strict
// (Eps, Delta) guarantee at large k, build site summaries with Eps/k.
func (s *F2Summary) Merge(other *F2Summary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.d.merge(other.d)
}

// MergeMarshaled folds a summary serialized with MarshalBinary — the wire
// form a site ships to the coordinator — into the receiver, decoding
// buckets straight into the receiver's pooled sketches instead of
// materializing a second summary first. The bytes must come from an
// F2Summary built from identical Options. The receiver is untouched on
// error.
func (s *F2Summary) MergeMarshaled(data []byte) error { return s.d.mergeMarshaled(data) }

// Reset returns the summary to its freshly constructed state, keeping
// (and recycling into) its sketch pools. Useful for reusing a summary as
// a merge accumulator or across stream epochs.
func (s *F2Summary) Reset() { s.d.reset() }

// Space reports stored counters/tuples (the paper's space metric).
func (s *F2Summary) Space() int64 { return s.d.space() }

// Occupancy breaks Space down by level, per enabled direction; see
// LevelOccupancy.
func (s *F2Summary) Occupancy() (le, ge []LevelOccupancy) { return s.d.occupancy() }

// Count reports tuples inserted.
func (s *F2Summary) Count() uint64 { return s.d.count() }

// FkSummary estimates the correlated k-th frequency moment for k >= 2,
// via the general reduction over an Indyk–Woodruff-style sketch
// (Section 3.1, Theorem 3).
type FkSummary struct {
	d *dual
	k int
}

// NewFkSummary builds an Fk summary for moment order k >= 2 (it panics
// for k < 2; use NewF2Summary's dedicated sketch for k = 2 in practice).
// Queries carry the (Eps, Delta) contract of NewF2Summary with the
// practical constants of Section 3.1. Not safe for concurrent use.
func NewFkSummary(k int, o Options) (*FkSummary, error) {
	d, err := newDual(core.FkAggregate(k), o)
	if err != nil {
		return nil, err
	}
	return &FkSummary{d: d, k: k}, nil
}

// K returns the moment order.
func (s *FkSummary) K() int { return s.k }

// Add inserts the tuple (x, y).
func (s *FkSummary) Add(x, y uint64) error { return s.d.add(x, y, 1) }

// AddWeighted inserts w > 0 copies of (x, y).
func (s *FkSummary) AddWeighted(x, y uint64, w int64) error { return s.d.add(x, y, w) }

// AddBatch inserts a batch of tuples through the amortized batched path.
func (s *FkSummary) AddBatch(batch []Tuple) error { return s.d.addBatch(batch) }

// QueryLE estimates Fk over tuples with y <= c.
func (s *FkSummary) QueryLE(c uint64) (float64, error) { return s.d.queryLE(c) }

// QueryGE estimates Fk over tuples with y >= c.
func (s *FkSummary) QueryGE(c uint64) (float64, error) { return s.d.queryGE(c) }

// Merge folds other — an FkSummary with the same k, built from identical
// Options over a different substream — into the receiver, producing the
// summary of the combined stream (see F2Summary.Merge for semantics and
// the k-site error caveat). Incompatible summaries are rejected with an
// *IncompatibleError before any state changes.
func (s *FkSummary) Merge(other *FkSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.d.merge(other.d)
}

// MergeMarshaled folds a summary serialized with MarshalBinary into the
// receiver without materializing a second summary. The bytes must come
// from an FkSummary with the same k and Options. The receiver is
// untouched on error.
func (s *FkSummary) MergeMarshaled(data []byte) error { return s.d.mergeMarshaled(data) }

// Reset returns the summary to its freshly constructed state, keeping
// its sketch pools.
func (s *FkSummary) Reset() { s.d.reset() }

// Space reports stored counters/tuples.
func (s *FkSummary) Space() int64 { return s.d.space() }

// Occupancy breaks Space down by level, per enabled direction; see
// LevelOccupancy.
func (s *FkSummary) Occupancy() (le, ge []LevelOccupancy) { return s.d.occupancy() }

// Count reports tuples inserted.
func (s *FkSummary) Count() uint64 { return s.d.count() }

// CountSummary estimates the correlated COUNT (how many tuples satisfy the
// predicate). COUNT is additive, so the reduction runs with exact counter
// sketches: all error comes from the bucket structure and stays within ε.
type CountSummary struct {
	d *dual
}

// NewCountSummary builds a COUNT summary. COUNT's "sketches" are exact
// counters, so the whole (Eps, Delta) error budget goes to the bucket
// structure; with StrictTheory the proof constants are actually feasible
// here. Not safe for concurrent use.
func NewCountSummary(o Options) (*CountSummary, error) {
	d, err := newDual(core.CountAggregate(), o)
	if err != nil {
		return nil, err
	}
	return &CountSummary{d: d}, nil
}

// Add inserts the tuple (x, y).
func (s *CountSummary) Add(x, y uint64) error { return s.d.add(x, y, 1) }

// AddWeighted inserts w > 0 copies of (x, y).
func (s *CountSummary) AddWeighted(x, y uint64, w int64) error { return s.d.add(x, y, w) }

// AddBatch inserts a batch of tuples through the amortized batched path.
func (s *CountSummary) AddBatch(batch []Tuple) error { return s.d.addBatch(batch) }

// QueryLE estimates the number of tuples with y <= c.
func (s *CountSummary) QueryLE(c uint64) (float64, error) { return s.d.queryLE(c) }

// QueryGE estimates the number of tuples with y >= c.
func (s *CountSummary) QueryGE(c uint64) (float64, error) { return s.d.queryGE(c) }

// Merge folds other — a CountSummary built from identical Options over a
// different substream — into the receiver, producing the summary of the
// combined stream (see F2Summary.Merge for semantics and the k-site
// error caveat). Incompatible summaries are rejected with an
// *IncompatibleError before any state changes.
func (s *CountSummary) Merge(other *CountSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.d.merge(other.d)
}

// MergeMarshaled folds a summary serialized with MarshalBinary into the
// receiver without materializing a second summary. The bytes must come
// from a CountSummary built from identical Options. The receiver is
// untouched on error.
func (s *CountSummary) MergeMarshaled(data []byte) error { return s.d.mergeMarshaled(data) }

// Reset returns the summary to its freshly constructed state, keeping
// its sketch pools.
func (s *CountSummary) Reset() { s.d.reset() }

// Space reports stored counters/tuples.
func (s *CountSummary) Space() int64 { return s.d.space() }

// Occupancy breaks Space down by level, per enabled direction; see
// LevelOccupancy.
func (s *CountSummary) Occupancy() (le, ge []LevelOccupancy) { return s.d.occupancy() }

// Count reports tuples inserted.
func (s *CountSummary) Count() uint64 { return s.d.count() }

// SumSummary estimates the correlated SUM of the x values of selected
// tuples — the aggregate of Gehrke et al. and Ananthakrishna et al., here
// with multiplicative error through the general reduction.
type SumSummary struct {
	d *dual
}

// NewSumSummary builds a SUM summary. Set Options.MaxX to the largest
// identifier value so the level count can be sized.
func NewSumSummary(o Options) (*SumSummary, error) {
	d, err := newDual(core.SumAggregate(), o)
	if err != nil {
		return nil, err
	}
	return &SumSummary{d: d}, nil
}

// Add inserts the tuple (x, y); x contributes its value to selected sums.
func (s *SumSummary) Add(x, y uint64) error { return s.d.add(x, y, 1) }

// AddWeighted inserts w > 0 copies of (x, y).
func (s *SumSummary) AddWeighted(x, y uint64, w int64) error { return s.d.add(x, y, w) }

// AddBatch inserts a batch of tuples through the amortized batched path.
func (s *SumSummary) AddBatch(batch []Tuple) error { return s.d.addBatch(batch) }

// QueryLE estimates Σ{x : y <= c}.
func (s *SumSummary) QueryLE(c uint64) (float64, error) { return s.d.queryLE(c) }

// QueryGE estimates Σ{x : y >= c}.
func (s *SumSummary) QueryGE(c uint64) (float64, error) { return s.d.queryGE(c) }

// Merge folds other — a SumSummary built from identical Options over a
// different substream — into the receiver, producing the summary of the
// combined stream (see F2Summary.Merge for semantics and the k-site
// error caveat). Incompatible summaries are rejected with an
// *IncompatibleError before any state changes.
func (s *SumSummary) Merge(other *SumSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.d.merge(other.d)
}

// MergeMarshaled folds a summary serialized with MarshalBinary into the
// receiver without materializing a second summary. The bytes must come
// from a SumSummary built from identical Options. The receiver is
// untouched on error.
func (s *SumSummary) MergeMarshaled(data []byte) error { return s.d.mergeMarshaled(data) }

// Reset returns the summary to its freshly constructed state, keeping
// its sketch pools.
func (s *SumSummary) Reset() { s.d.reset() }

// Space reports stored counters/tuples.
func (s *SumSummary) Space() int64 { return s.d.space() }

// Occupancy breaks Space down by level, per enabled direction; see
// LevelOccupancy.
func (s *SumSummary) Occupancy() (le, ge []LevelOccupancy) { return s.d.occupancy() }

// Count reports tuples inserted.
func (s *SumSummary) Count() uint64 { return s.d.count() }
