package correlated

import (
	"fmt"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/core"
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
// construction time (set Options.Predicate).
var ErrDirection = core.ErrDirection

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

// summaryConfig is coreConfig serving o's Predicate: a Predicate's set of
// core directions, LE = 1, GE = 2, Both = 3, is the Predicate plus one.
func (o Options) summaryConfig() (core.Config, error) {
	cfg := o.coreConfig()
	if o.Predicate < LE || o.Predicate > Both {
		return cfg, fmt.Errorf("correlated: unknown Predicate %d", o.Predicate)
	}
	cfg.Dirs = core.Dirs(o.Predicate + 1)
	return cfg, nil
}

// Tuple is one stream element for batched insertion. A zero W counts as
// weight 1.
type Tuple = core.Tuple

// LevelOccupancy is one level's row of a summary's Occupancy: buckets
// stored, shared by both directions, closed and untouched, sketches by form,
// the level's share of Space, the bytes behind it and each direction's
// watermark.
type LevelOccupancy = core.LevelOccupancy

// Footprint is the memory behind a summary in bytes — what its sketches hold,
// what else their makers' arenas map (free blocks, chunk ends, size-class
// rounding), what the arenas map in all, and the tree nodes and sketch
// structs around them on the heap — read from counts kept as the summary
// changes, so asking walks nothing. Only the F2 sketch keeps such counts, and
// only it has arenas; the other aggregates answer 8 × Space() as Held, by
// Space's walk, and their spare tree nodes as Pooled, with Arena 0.
type Footprint = core.Footprint
