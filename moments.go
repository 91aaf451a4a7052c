package correlated

import (
	"errors"

	"github.com/streamagg/correlated/internal/core"
)

// summary is what the four moment summaries share: the two-direction
// structure and every method that only forwards to it. F2Summary,
// FkSummary, CountSummary and SumSummary embed it, so each method below is
// a method of all four; what the aggregate is — and so what a query
// estimates — is in each type's own comment.
type summary struct {
	d *dual
}

// Add inserts the tuple (x, y).
func (s *summary) Add(x, y uint64) error { return s.d.add(x, y, 1) }

// AddWeighted inserts w > 0 copies of (x, y).
func (s *summary) AddWeighted(x, y uint64, w int64) error { return s.d.add(x, y, w) }

// AddBatch inserts a batch of tuples through the amortized batched path
// (sorted by y in place, one hash per tuple, leaf routing per group). The
// sort is by y alone and not stable; a batch that arrives non-decreasing in
// y is applied in exactly the order given, which is how corrd's log — it
// holds each batch as sorted — replays to the same bytes.
func (s *summary) AddBatch(batch []Tuple) error { return s.d.addBatch(batch) }

// QueryLE estimates the aggregate over tuples with y <= c. It returns
// ErrDirection when the LE predicate was not enabled at construction, and
// ErrNoLevel — with probability at most Delta — when no level of the
// structure can serve the cutoff (Algorithm 3's FAIL output).
func (s *summary) QueryLE(c uint64) (float64, error) { return s.d.queryLE(c) }

// QueryGE estimates the aggregate over tuples with y >= c, with the same
// error conditions as QueryLE for the GE predicate.
func (s *summary) QueryGE(c uint64) (float64, error) { return s.d.queryGE(c) }

// MergeMarshaled folds a summary serialized with MarshalBinary — the wire
// form a site ships to the coordinator — into the receiver, decoding
// buckets straight into sketches from the receiver's slabs instead of
// materializing a second summary first. The bytes must come from a summary
// of the same type (and, for Fk, the same k) built from identical Options.
// The receiver is untouched on error.
//
// Every merge adds a Lemma 4 straddling-bucket term, as Merge says: after
// k merges the error bound is k times one summary's. Merge each site's
// summary once; a stream shipped as a delta image per round drifts out of
// ε as the rounds add up (TestMergeRoundsAccuracy: 200 000 tuples, Eps
// 0.15, the largest relative error over six cutoffs reads 0.12 / 0.20 /
// 0.09 for F2 uniform / F2 zipf / COUNT after k = 8 delta images and
// 0.30 / 0.49 / 0.26 after k = 32, all underestimates, where one summary
// of the stream and four images merged once stay within ε).
func (s *summary) MergeMarshaled(data []byte) error { return s.d.mergeMarshaled(data) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *summary) MarshalBinary() ([]byte, error) { return s.d.marshal() }

// UnmarshalBinary restores a summary serialized from an identically
// configured summary of the same type.
func (s *summary) UnmarshalBinary(data []byte) error { return s.d.unmarshal(data) }

// Reset returns the summary to its freshly constructed state, keeping
// (and recycling into) its slabs and its sketch makers' arenas. Useful for reusing a summary as
// a merge accumulator or across stream epochs.
func (s *summary) Reset() { s.d.s.Reset() }

// Space reports stored counters/tuples (the paper's space metric).
func (s *summary) Space() int64 { return s.d.s.Space() }

// Occupancy breaks Space down by level; see LevelOccupancy. le holds the
// rows of a summary serving LE, ge those of one serving GE alone: a summary
// built with Both keeps one tree a level for the two, and its rows, in le,
// carry both directions' watermarks.
func (s *summary) Occupancy() (le, ge []LevelOccupancy) { return s.d.occupancy() }

// Footprint reports the bytes of memory behind the summary; see Footprint.
// Space is the paper's metric, in counters; this is the heap's.
func (s *summary) Footprint() Footprint { return s.d.s.Footprint() }

// Count reports tuples inserted.
func (s *summary) Count() uint64 { return s.d.s.Count() }

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
	d, err := newDual(core.F2Aggregate(), o)
	if err != nil {
		return nil, err
	}
	return &F2Summary{summary{d}}, nil
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
	return s.d.merge(other.d)
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
	d, err := newDual(core.FkAggregate(k), o)
	if err != nil {
		return nil, err
	}
	return &FkSummary{summary{d}, k}, nil
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
	return s.d.merge(other.d)
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
	d, err := newDual(core.CountAggregate(), o)
	if err != nil {
		return nil, err
	}
	return &CountSummary{summary{d}}, nil
}

// Merge folds other — a CountSummary built from identical Options over a
// different substream — into the receiver (see F2Summary.Merge for
// semantics and the k-site error caveat).
func (s *CountSummary) Merge(other *CountSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.d.merge(other.d)
}

// SumSummary estimates the correlated SUM of the x values of selected
// tuples — Σ{x : y <= c}, each tuple contributing its identifier's value —
// the aggregate of Gehrke et al. and Ananthakrishna et al., here with
// multiplicative error through the general reduction.
type SumSummary struct{ summary }

// NewSumSummary builds a SUM summary. Set Options.MaxX to the largest
// identifier value so the level count can be sized.
func NewSumSummary(o Options) (*SumSummary, error) {
	d, err := newDual(core.SumAggregate(), o)
	if err != nil {
		return nil, err
	}
	return &SumSummary{summary{d}}, nil
}

// Merge folds other — a SumSummary built from identical Options over a
// different substream — into the receiver (see F2Summary.Merge for
// semantics and the k-site error caveat).
func (s *SumSummary) Merge(other *SumSummary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	return s.d.merge(other.d)
}
