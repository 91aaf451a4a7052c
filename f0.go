package correlated

import (
	"errors"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/corrf0"
	"github.com/streamagg/correlated/internal/dyadic"
)

// F0Summary estimates the correlated number of distinct elements,
// |{x : (x, y) ∈ S ∧ y <= c}| (the paper's Section 3.2), and the rarity —
// the fraction of selected distinct identifiers occurring exactly once
// (Section 3.3).
type F0Summary struct {
	le   *corrf0.Summary
	ge   *corrf0.Summary
	ymax uint64
	n    uint64
}

// mirrorSeed is XORed into the seed of the GE copy an F0 summary keeps over
// mirrored y: corrf0 is a sampling structure, not a core summary, so it
// serves GE as LE over ymax − y.
const mirrorSeed = 0x6d6972726f72 // "mirror"

// NewF0Summary builds an F0 summary. Options.MaxX bounds the identifier
// domain (m in the paper); the summary's size scales with log MaxX, which
// is why small-domain streams like packet-size traces are much cheaper
// (the paper's Figure 6).
func NewF0Summary(o Options) (*F0Summary, error) {
	if o.YMax == 0 {
		return nil, errors.New("correlated: YMax must be positive")
	}
	xdom := o.MaxX
	if xdom == 0 {
		xdom = 1 << 32
	}
	cfg := corrf0.Config{
		Eps: o.Eps, Delta: o.Delta, XDomain: xdom,
		Alpha: o.Alpha, Seed: o.Seed,
	}
	s := &F0Summary{ymax: dyadic.RoundYMax(o.YMax)}
	var err error
	if o.Predicate == LE || o.Predicate == Both {
		if s.le, err = corrf0.New(cfg); err != nil {
			return nil, err
		}
	}
	if o.Predicate == GE || o.Predicate == Both {
		cfg.Seed ^= mirrorSeed
		if s.ge, err = corrf0.New(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add inserts the tuple (x, y).
func (s *F0Summary) Add(x, y uint64) error {
	if y > s.ymax {
		return errors.New("correlated: y exceeds YMax")
	}
	s.n++
	if s.le != nil {
		s.le.Add(x, y)
	}
	if s.ge != nil {
		s.ge.Add(x, s.ymax-y)
	}
	return nil
}

// QueryLE estimates the number of distinct x among tuples with y <= c.
func (s *F0Summary) QueryLE(c uint64) (float64, error) {
	if s.le == nil {
		return 0, ErrDirection
	}
	return s.le.Query(c)
}

// QueryGE estimates the number of distinct x among tuples with y >= c.
func (s *F0Summary) QueryGE(c uint64) (float64, error) {
	if s.ge == nil {
		return 0, ErrDirection
	}
	if c > s.ymax {
		return 0, nil
	}
	return s.ge.Query(s.ymax - c)
}

// RarityLE estimates the fraction of distinct identifiers occurring
// exactly once among tuples with y <= c.
func (s *F0Summary) RarityLE(c uint64) (float64, error) {
	if s.le == nil {
		return 0, ErrDirection
	}
	return s.le.Rarity(c)
}

// RarityGE estimates the fraction of distinct identifiers occurring
// exactly once among tuples with y >= c.
func (s *F0Summary) RarityGE(c uint64) (float64, error) {
	if s.ge == nil {
		return 0, ErrDirection
	}
	if c > s.ymax {
		return 0, nil
	}
	return s.ge.Rarity(s.ymax - c)
}

// Merge folds other — an F0Summary built with identical Options over a
// different substream — into the receiver, producing the summary of the
// combined stream (the distributed-streams use case). Distinct sampling
// is order- and partition-oblivious, so merged queries carry the same
// (Eps, Delta) guarantee as single-summary ingestion of the union. A
// summary built from different Options is rejected with an
// *IncompatibleError (matching ErrIncompatible) naming the differing
// field, before any state changes.
func (s *F0Summary) Merge(other *F0Summary) error {
	if other == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	if other == s {
		return errors.New("correlated: cannot merge a summary into itself")
	}
	if (s.le == nil) != (other.le == nil) || (s.ge == nil) != (other.ge == nil) {
		return compat.Mismatch("predicate", s.predicateName(), other.predicateName())
	}
	if s.ymax != other.ymax {
		return compat.Mismatch("ymax", s.ymax, other.ymax)
	}
	if s.le != nil {
		if err := s.le.Merge(other.le); err != nil {
			return err
		}
	}
	if s.ge != nil {
		if err := s.ge.Merge(other.ge); err != nil {
			return err
		}
	}
	s.n += other.n
	return nil
}

// predicateName reports which query directions the summary supports, for
// incompatibility errors.
func (s *F0Summary) predicateName() string {
	switch {
	case s.le != nil && s.ge != nil:
		return "Both"
	case s.ge != nil:
		return "GE"
	default:
		return "LE"
	}
}

// MergeMarshaled folds a summary serialized with MarshalBinary — the wire
// form a site ships to the coordinator — into the receiver. The bytes
// must come from an F0Summary built with identical Options. The receiver
// is untouched on error.
func (s *F0Summary) MergeMarshaled(data []byte) error {
	tmp := &F0Summary{ymax: s.ymax}
	var err error
	if s.le != nil {
		if tmp.le, err = corrf0.New(s.le.Config()); err != nil {
			return err
		}
	}
	if s.ge != nil {
		if tmp.ge, err = corrf0.New(s.ge.Config()); err != nil {
			return err
		}
	}
	if err := tmp.UnmarshalBinary(data); err != nil {
		return err
	}
	return s.Merge(tmp)
}

// Space reports stored sample tuples.
func (s *F0Summary) Space() int64 {
	var sp int64
	if s.le != nil {
		sp += s.le.Space()
	}
	if s.ge != nil {
		sp += s.ge.Space()
	}
	return sp
}

// Count reports tuples inserted.
func (s *F0Summary) Count() uint64 { return s.n }
