package correlated

import (
	"errors"
	"fmt"
	"slices"

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
// level for LE and GE alike). A summary restored from a version-1 image —
// written when the GE direction was a summary of its own over mirrored y,
// seeded Seed ^ mirrorSeed — holds that image's two directions as two
// one-sided parts instead, each answering as it did; nothing else keeps a
// second part.
type dual struct {
	parts []*core.Summary
	agg   core.Aggregate
	cfg   core.Config // what a part is built from: Seed, Dirs aside
	ymax  uint64      // rounded domain top
	pred  Predicate
}

// mirrorSeed is XORed into the seed of a structure over mirrored y: the GE
// direction of a version-1 image, and the GE copies the heavy-hitter and F0
// summaries keep.
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
	dirs, err := dirsOf(o.Predicate)
	if err != nil {
		return nil, err
	}
	d := &dual{agg: agg, cfg: o.coreConfig(), pred: o.Predicate, ymax: dyadic.RoundYMax(o.YMax)}
	p, err := d.newPart(dirs, false)
	if err != nil {
		return nil, err
	}
	d.parts = []*core.Summary{p}
	return d, nil
}

// newPart builds a core summary serving dirs, seeded Seed ^ mirrorSeed if
// mirror says so.
func (d *dual) newPart(dirs core.Dirs, mirror bool) (*core.Summary, error) {
	cfg := d.cfg
	cfg.Dirs = dirs
	if mirror {
		cfg.Seed ^= mirrorSeed
	}
	return core.NewSummary(d.agg, cfg)
}

// serving returns the part that answers direction dir, nil if none does.
func (d *dual) serving(dir core.Dirs) *core.Summary {
	for _, p := range d.parts {
		if p.Dirs()&dir != 0 {
			return p
		}
	}
	return nil
}

// Tuple is one stream element for batched insertion. A zero W counts as
// weight 1.
type Tuple = core.Tuple

func (d *dual) add(x, y uint64, w int64) error {
	if y > d.ymax {
		return errors.New("correlated: y exceeds YMax")
	}
	for _, p := range d.parts {
		if err := p.AddWeighted(x, y, w); err != nil {
			return err
		}
	}
	return nil
}

// addBatch feeds a batch through the core summary's amortized batched path.
// The batch is sorted by y in place (SortBatch touches no summary), so the
// state a batch leaves is a function of that sorted order under every
// Predicate: a batch handed over already sorted — as corrd's log holds it —
// leaves the bytes the original does. Every tuple is validated before any
// part changes.
func (d *dual) addBatch(batch []Tuple) error {
	for i := range batch {
		if batch[i].Y > d.ymax {
			return errors.New("correlated: y exceeds YMax")
		}
	}
	if err := d.parts[0].SortBatch(batch); err != nil {
		return err
	}
	for _, p := range d.parts {
		p.AddSorted(batch)
	}
	return nil
}

// shape is a part's place in a summary: the directions it serves, and
// whether it is seeded Seed ^ mirrorSeed.
type shape struct {
	dirs   core.Dirs
	mirror bool
}

// shapes returns the shapes of d's parts.
func (d *dual) shapes() []shape {
	out := make([]shape, len(d.parts))
	for i, p := range d.parts {
		out[i] = shape{p.Dirs(), p.Config().Seed != d.cfg.Seed}
	}
	return out
}

// merge folds another dual built from identical Options into d.
// Mismatches are caught while validating the first part, before any state
// changes; parts share every configuration field but the seed, which the
// shape check settles, so a merge that passes the first part cannot be
// rejected on a second.
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
	if a, b := d.shapes(), o.shapes(); !slices.Equal(a, b) {
		return compat.Mismatch("parts", a, b)
	}
	for i, p := range d.parts {
		if err := p.Merge(o.parts[i]); err != nil {
			return err
		}
	}
	return nil
}

// reset returns d to its freshly constructed state: one part, cleared.
func (d *dual) reset() {
	dirs, _ := dirsOf(d.pred)
	if fresh := (shape{dirs, false}); slices.Equal(d.shapes(), []shape{fresh}) {
		d.parts[0].Reset()
		return
	}
	p, err := d.newPart(dirs, false)
	if err != nil {
		panic(err) // the configuration built this summary's parts before
	}
	d.parts = []*core.Summary{p}
}

func (d *dual) queryLE(c uint64) (float64, error) {
	p := d.serving(core.LE)
	if p == nil {
		return 0, ErrDirection
	}
	return p.Query(c)
}

func (d *dual) queryGE(c uint64) (float64, error) {
	p := d.serving(core.GE)
	if p == nil {
		return 0, ErrDirection
	}
	if c > d.ymax {
		return 0, nil // nothing can satisfy y >= c
	}
	return p.QueryGE(c)
}

func (d *dual) space() int64 {
	var s int64
	for _, p := range d.parts {
		s += p.Space()
	}
	return s
}

// LevelOccupancy is one level's row of a summary's Occupancy: buckets
// stored, shared by both directions, closed and untouched, sketches by form,
// the level's share of Space, the bytes behind it and each direction's
// watermark.
type LevelOccupancy = core.LevelOccupancy

// occupancy returns the per-level rows of the part that serves LE and, if
// another part serves GE, of that one (nil for a direction not served, and
// ge nil when one part serves both — every summary built with Both; its rows
// carry both directions' watermarks and count the buckets they share).
func (d *dual) occupancy() (le, ge []LevelOccupancy) {
	lp, gp := d.serving(core.LE), d.serving(core.GE)
	if lp != nil {
		le = lp.Occupancy()
	}
	if gp != nil && gp != lp {
		ge = gp.Occupancy()
	}
	return le, ge
}

// Footprint is the memory behind a summary in bytes — what its sketches hold,
// what else their makers' arenas map (free blocks, chunk ends, size-class
// rounding), what the arenas map in all, and the tree nodes and sketch
// structs around them on the heap — read from counts kept as the summary
// changes, so asking walks nothing. Only the F2 sketch keeps such counts, and
// only it has arenas; the other aggregates answer 8 × Space() as Held, by
// Space's walk, and their spare tree nodes as Pooled, with Arena 0.
type Footprint = core.Footprint

// footprint adds up the parts.
func (d *dual) footprint() Footprint {
	var f Footprint
	for _, p := range d.parts {
		f = f.Plus(p.Footprint())
	}
	return f
}

func (d *dual) count() uint64 { return d.parts[0].Count() }
