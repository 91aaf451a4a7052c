package correlated

import (
	"errors"
	"fmt"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/dyadic"
)

// Predicate selects which query directions a summary supports. Both keeps
// one tree of buckets a level for the two directions, storing once every
// bucket both keep — at every level where neither has discarded anything,
// that is all of them — so it costs far less than two one-way summaries.
type Predicate int

const (
	// LE supports queries of the form y <= c (the default).
	LE Predicate = iota
	// GE supports queries of the form y >= c.
	GE
	// Both supports both directions.
	Both
)

// ErrDirection is returned when a query direction was not enabled at
// construction time.
var ErrDirection = errors.New("correlated: query direction not enabled; set Options.Predicate")

// ErrNoLevel mirrors the FAIL output of the paper's Algorithm 3: no level
// of the structure can serve the cutoff. Under the analysis this has
// probability at most Delta.
var ErrNoLevel = core.ErrNoLevel

// ErrIncompatible is the sentinel wrapped by every Merge incompatibility
// error. Two summaries merge only when their Options agree on the
// accuracy targets (Eps, Delta), the domain bound (YMax), the Seed (it
// regenerates the hash functions, so even a seed difference breaks
// mergeability), the Predicate, and everything that shapes the derived
// structure — Alpha/AlphaScale/StrictTheory directly, MaxStreamLen and
// MaxX through the level count. Match it with errors.Is; inspect the
// differing field with errors.As on *IncompatibleError.
var ErrIncompatible = compat.ErrIncompatible

// IncompatibleError is the concrete error returned when a merge is
// rejected, naming the first configuration field that differs (e.g.
// "eps", "delta", "ymax", "seed", "predicate"). It unwraps to
// ErrIncompatible.
type IncompatibleError = compat.Error

// Options configures a summary.
type Options struct {
	// Eps is the target relative error ε ∈ (0, 1).
	Eps float64
	// Delta is the failure probability δ ∈ (0, 1).
	Delta float64
	// YMax is the largest y value that will be inserted (rounded up
	// internally to 2^β − 1).
	YMax uint64
	// MaxStreamLen bounds the stream length n, sizing the level count.
	// Zero defaults to 2^32.
	MaxStreamLen uint64
	// MaxX bounds identifiers (used by SUM to bound the aggregate, and
	// by F0 to size its sampling levels). Zero defaults to 2^32.
	MaxX uint64
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Predicate selects the supported query direction(s).
	Predicate Predicate

	// Alpha overrides the per-level bucket capacity; 0 derives it from
	// Eps and YMax (see internal/core.Config).
	Alpha int
	// AlphaScale scales the derived capacity; 0 means 1.
	AlphaScale float64
	// StrictTheory uses the worst-case proof constants (practical only
	// for SUM/COUNT).
	StrictTheory bool
}

func (o Options) coreConfig() core.Config {
	return core.Config{
		Eps: o.Eps, Delta: o.Delta, YMax: o.YMax,
		MaxStreamLen: o.MaxStreamLen, MaxX: o.MaxX,
		Alpha: o.Alpha, AlphaScale: o.AlphaScale,
		StrictTheory: o.StrictTheory, Seed: o.Seed,
	}
}

// dual is the structure behind the four moment summaries: one core
// summary serving the Predicate's directions (core.Summary keeps one tree a
// level for LE and GE alike).
type dual struct {
	s    *core.Summary
	ymax uint64 // rounded domain top
	pred Predicate
}

// mirrorSeed is XORed into the seed of the GE copies the heavy-hitter and
// F0 summaries keep over mirrored y.
const mirrorSeed = 0x6d6972726f72 // "mirror"

// dirsOf returns the core directions a Predicate names.
func dirsOf(p Predicate) (core.Dirs, error) {
	switch p {
	case LE:
		return core.LE, nil
	case GE:
		return core.GE, nil
	case Both:
		return core.Both, nil
	}
	return 0, fmt.Errorf("correlated: unknown Predicate %d", p)
}

func newDual(agg core.Aggregate, o Options) (*dual, error) {
	cfg := o.coreConfig()
	var err error
	if cfg.Dirs, err = dirsOf(o.Predicate); err != nil {
		return nil, err
	}
	s, err := core.NewSummary(agg, cfg)
	if err != nil {
		return nil, err
	}
	return &dual{s: s, pred: o.Predicate, ymax: dyadic.RoundYMax(o.YMax)}, nil
}

// Tuple is one stream element for batched insertion. A zero W counts as
// weight 1.
type Tuple = core.Tuple

func (d *dual) add(x, y uint64, w int64) error {
	if y > d.ymax {
		return errors.New("correlated: y exceeds YMax")
	}
	return d.s.AddWeighted(x, y, w)
}

// addBatch feeds a batch through the core summary's amortized batched path.
// The batch is sorted by y in place, so the state a batch leaves is a
// function of that sorted order under every Predicate: a batch handed over
// already sorted — as corrd's log holds it — leaves the bytes the original
// does. Every tuple is validated before the summary changes.
func (d *dual) addBatch(batch []Tuple) error {
	for i := range batch {
		if batch[i].Y > d.ymax {
			return errors.New("correlated: y exceeds YMax")
		}
	}
	return d.s.AddBatch(batch)
}

// merge folds another dual built from identical Options into d; a
// mismatch is caught before any state changes.
func (d *dual) merge(o *dual) error {
	if o == nil {
		return errors.New("correlated: cannot merge a nil summary")
	}
	if o == d {
		return errors.New("correlated: cannot merge a summary into itself")
	}
	if d.pred != o.pred {
		return compat.Mismatch("predicate", d.pred, o.pred)
	}
	return d.s.Merge(o.s)
}

func (d *dual) queryLE(c uint64) (float64, error) {
	if d.s.Dirs()&core.LE == 0 {
		return 0, ErrDirection
	}
	return d.s.Query(c)
}

func (d *dual) queryGE(c uint64) (float64, error) {
	if d.s.Dirs()&core.GE == 0 {
		return 0, ErrDirection
	}
	if c > d.ymax {
		return 0, nil // nothing can satisfy y >= c
	}
	return d.s.QueryGE(c)
}

// LevelOccupancy is one level's row of a summary's Occupancy: buckets
// stored, shared by both directions, closed and untouched, sketches by form,
// the level's share of Space, the bytes behind it and each direction's
// watermark.
type LevelOccupancy = core.LevelOccupancy

// occupancy returns the summary's per-level rows as le when it serves LE —
// a Both summary's rows carry both directions' watermarks and count the
// buckets they share — and as ge when it serves GE alone.
func (d *dual) occupancy() (le, ge []LevelOccupancy) {
	if d.pred == GE {
		return nil, d.s.Occupancy()
	}
	return d.s.Occupancy(), nil
}

// Footprint is the memory behind a summary in bytes — what its sketches hold,
// what else their makers' arenas map (free blocks, chunk ends, size-class
// rounding), what the arenas map in all, and the tree nodes and sketch
// structs around them on the heap — read from counts kept as the summary
// changes, so asking walks nothing. Only the F2 sketch keeps such counts, and
// only it has arenas; the other aggregates answer 8 × Space() as Held, by
// Space's walk, and their spare tree nodes as Pooled, with Arena 0.
type Footprint = core.Footprint
