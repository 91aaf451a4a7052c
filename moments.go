package correlated

import (
	"errors"

	"github.com/streamagg/correlated/internal/core"
)

// summary is what the four moment summaries share: one core summary
// serving the Predicate's directions — one tree a level for LE and GE
// alike — and every method that only forwards to it. F2Summary, FkSummary,
// CountSummary and SumSummary embed it, so each method below is a method
// of all four; what the aggregate is — and so what a query estimates — is
// in each type's own comment.
type summary struct {
	s *core.Summary
}

// newSummary builds the core summary of agg serving o's Predicate.
func newSummary(agg core.Aggregate, o Options) (summary, error) {
	cfg, err := o.summaryConfig()
	if err != nil {
		return summary{}, err
	}
	s, err := core.NewSummary(agg, cfg)
	return summary{s}, err
}

// Add inserts the tuple (x, y).
func (s *summary) Add(x, y uint64) error { return s.s.Add(x, y) }

// AddWeighted inserts w > 0 copies of (x, y).
func (s *summary) AddWeighted(x, y uint64, w int64) error { return s.s.AddWeighted(x, y, w) }

// AddBatch inserts a batch of tuples through the amortized batched path
// (sorted by y in place, one hash per tuple, leaf routing per group). The
// sort is by y alone and not stable; a batch that arrives non-decreasing in
// y is applied in exactly the order given, which is how corrd's log — it
// holds each batch as sorted — replays to the same bytes. Every tuple is
// validated before the summary changes.
func (s *summary) AddBatch(batch []Tuple) error { return s.s.AddBatch(batch) }

// QueryLE estimates the aggregate over tuples with y <= c. It returns
// ErrDirection when the LE predicate was not enabled at construction, and
// ErrNoLevel — with probability at most Delta — when no level of the
// structure can serve the cutoff (Algorithm 3's FAIL output).
func (s *summary) QueryLE(c uint64) (float64, error) { return s.s.Query(c) }

// QueryGE estimates the aggregate over tuples with y >= c, with the same
// error conditions as QueryLE for the GE predicate.
func (s *summary) QueryGE(c uint64) (float64, error) { return s.s.QueryGE(c) }

// Reset returns the summary to its freshly constructed state, keeping
// (and recycling into) its slabs and its sketch makers' arenas. Useful for reusing a summary as
// a merge accumulator or across stream epochs.
func (s *summary) Reset() { s.s.Reset() }

// Space reports stored counters/tuples (the paper's space metric).
func (s *summary) Space() int64 { return s.s.Space() }

// Occupancy breaks Space down by level, one row a level; see
// LevelOccupancy. The summary keeps one tree a level for the directions it
// serves, so each row carries both directions' watermarks (0 for a
// direction not served).
func (s *summary) Occupancy() []LevelOccupancy { return s.s.Occupancy() }

// Footprint reports the bytes of memory behind the summary; see Footprint.
// Space is the paper's metric, in counters; this is the heap's.
func (s *summary) Footprint() Footprint { return s.s.Footprint() }

// Count reports tuples inserted.
func (s *summary) Count() uint64 { return s.s.Count() }

// F2Summary estimates the correlated second frequency moment:
// F2{ x : y <= c } = Σ_x f_x², over the substream selected by the cutoff.
// It instantiates the paper's general reduction (Section 2) with the
// AMS/CountSketch whole-stream sketch (Section 3.1, Lemma 9).
type F2Summary struct{ summary }

// NewF2Summary builds an F2 summary for the given accuracy target: each
// query is within (1 ± Eps) of the true selected F2 with probability at
// least 1 − Delta, in space polylogarithmic in MaxStreamLen. It fails if
// Eps or Delta is outside (0, 1) or YMax is zero. The summary is not safe
// for concurrent use (see the package documentation).
func NewF2Summary(o Options) (*F2Summary, error) {
	s, err := newSummary(core.F2Aggregate(), o)
	if err != nil {
		return nil, err
	}
	return &F2Summary{s}, nil
}

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
// The k counts merges, not sites: merging delta images round after round
// grows it without bound (MergeMarshaled has the measurement).
func (s *F2Summary) Merge(other *F2Summary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.s.Merge(other.s)
}

// FkSummary estimates the correlated k-th frequency moment for k >= 2,
// via the general reduction over an Indyk–Woodruff-style sketch
// (Section 3.1, Theorem 3).
type FkSummary struct {
	summary
	k int
}

// NewFkSummary builds an Fk summary for moment order k >= 2 (it panics
// for k < 2; use NewF2Summary's dedicated sketch for k = 2 in practice).
// Queries carry the (Eps, Delta) contract of NewF2Summary with the
// practical constants of Section 3.1. Not safe for concurrent use.
func NewFkSummary(k int, o Options) (*FkSummary, error) {
	s, err := newSummary(core.FkAggregate(k), o)
	if err != nil {
		return nil, err
	}
	return &FkSummary{s, k}, nil
}

// K returns the moment order.
func (s *FkSummary) K() int { return s.k }

// Merge folds other — an FkSummary with the same k, built from identical
// Options over a different substream — into the receiver (see
// F2Summary.Merge for semantics and the k-site error caveat).
func (s *FkSummary) Merge(other *FkSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.s.Merge(other.s)
}

// CountSummary estimates the correlated COUNT (how many tuples satisfy the
// predicate). COUNT is additive, so the reduction runs with exact counter
// sketches: all error comes from the bucket structure and stays within ε.
type CountSummary struct{ summary }

// NewCountSummary builds a COUNT summary. COUNT's "sketches" are exact
// counters, so the whole (Eps, Delta) error budget goes to the bucket
// structure; with StrictTheory the proof constants are actually feasible
// here. Not safe for concurrent use.
func NewCountSummary(o Options) (*CountSummary, error) {
	s, err := newSummary(core.CountAggregate(), o)
	if err != nil {
		return nil, err
	}
	return &CountSummary{s}, nil
}

// Merge folds other — a CountSummary built from identical Options over a
// different substream — into the receiver (see F2Summary.Merge for
// semantics and the k-site error caveat).
func (s *CountSummary) Merge(other *CountSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.s.Merge(other.s)
}

// SumSummary estimates the correlated SUM of the x values of selected
// tuples — Σ{x : y <= c}, each tuple contributing its identifier's value —
// the aggregate of Gehrke et al. and Ananthakrishna et al., here with
// multiplicative error through the general reduction.
type SumSummary struct{ summary }

// NewSumSummary builds a SUM summary. Set Options.MaxX to the largest
// identifier value so the level count can be sized.
func NewSumSummary(o Options) (*SumSummary, error) {
	s, err := newSummary(core.SumAggregate(), o)
	if err != nil {
		return nil, err
	}
	return &SumSummary{s}, nil
}

// Merge folds other — a SumSummary built from identical Options over a
// different substream — into the receiver (see F2Summary.Merge for
// semantics and the k-site error caveat).
func (s *SumSummary) Merge(other *SumSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.s.Merge(other.s)
}
