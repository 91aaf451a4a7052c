package correlated

import (
	"cmp"
	"errors"

	"github.com/streamagg/correlated/internal/compat"
	"github.com/streamagg/correlated/internal/core"
	"github.com/streamagg/correlated/internal/dyadic"
)

// Predicate selects which query directions a summary supports. Supporting
// a direction costs one underlying structure; Both doubles space.
type Predicate int

const (
	// LE supports queries of the form y <= c (the default).
	LE Predicate = iota
	// GE supports queries of the form y >= c, via a mirrored summary.
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

// dual wraps a forward (y <= c) and a mirrored (y >= c) core summary.
type dual struct {
	le   *core.Summary
	ge   *core.Summary
	ymax uint64 // rounded domain top, shared by both directions
	pred Predicate
}

func newDual(agg core.Aggregate, o Options) (*dual, error) {
	d := &dual{pred: o.Predicate, ymax: dyadic.RoundYMax(o.YMax)}
	cfg := o.coreConfig()
	var err error
	if o.Predicate == LE || o.Predicate == Both {
		if d.le, err = core.NewSummary(agg, cfg); err != nil {
			return nil, err
		}
	}
	if o.Predicate == GE || o.Predicate == Both {
		mirror := cfg
		mirror.Seed = cfg.Seed ^ 0x6d6972726f72 // "mirror"
		if d.ge, err = core.NewSummary(agg, mirror); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Tuple is one stream element for batched insertion. A zero W counts as
// weight 1.
type Tuple = core.Tuple

func (d *dual) add(x, y uint64, w int64) error {
	if y > d.ymax {
		return errors.New("correlated: y exceeds YMax")
	}
	if d.le != nil {
		if err := d.le.AddWeighted(x, y, w); err != nil {
			return err
		}
	}
	if d.ge != nil {
		if err := d.ge.AddWeighted(x, d.ymax-y, w); err != nil {
			return err
		}
	}
	return nil
}

// parallelBatchMin is the batch size from which addBatch applies the GE
// direction on a second goroutine. An apply costs microseconds per tuple,
// so the hand-off pays for itself early: on two cores, 32-tuple batches
// and up measured 1.2–2× faster split, 16-tuple batches no different.
const parallelBatchMin = 64

// addBatch feeds a batch through the underlying summaries' amortized
// batched path. The batch is sorted by y in place, and both directions read
// that one sorted batch: GE walks its equal-y runs from last to first with
// each y mirrored (core.Summary.AddSortedMirrored), so no copy is made.
func (d *dual) addBatch(batch []Tuple) error {
	return d.addBatchDirs(batch, len(batch) >= parallelBatchMin)
}

// addBatchDirs is addBatch with the LE‖GE choice made by the caller.
// The two directions share nothing but the sorted batch, which neither
// writes — own core.Summary, own maker and seed — so the state parallel
// leaves is the state the sequential order leaves, bit for bit. The batch
// is sorted by y whichever directions are on (SortBatch touches no
// summary), so the state a batch leaves is a function of that sorted order
// under every Predicate: a batch handed over already sorted — as corrd's
// log holds it — leaves the bytes the original does. Inside an equal-y run
// GE applies the tuples in the batch's order, as LE does; only Fk's state
// depends on that order. Every tuple is validated before either summary
// changes.
func (d *dual) addBatchDirs(batch []Tuple, parallel bool) error {
	for i := range batch {
		if batch[i].Y > d.ymax {
			return errors.New("correlated: y exceeds YMax")
		}
	}
	if sorter := cmp.Or(d.le, d.ge); sorter != nil {
		if err := sorter.SortBatch(batch); err != nil {
			return err
		}
	}
	var geDone chan struct{}
	if d.ge != nil {
		if parallel && d.le != nil {
			geDone = make(chan struct{})
			go func() {
				d.ge.AddSortedMirrored(batch)
				close(geDone)
			}()
		} else {
			d.ge.AddSortedMirrored(batch)
		}
	}
	if d.le != nil {
		d.le.AddSorted(batch)
	}
	if geDone != nil {
		<-geDone
	}
	return nil
}

// merge folds another dual built from identical Options into d.
// Mismatches are caught while validating the first direction, before any
// state changes; the two directions share every configuration field, so a
// merge that passes the first direction cannot be rejected on the second.
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
	if d.le != nil {
		if err := d.le.Merge(o.le); err != nil {
			return err
		}
	}
	if d.ge != nil {
		if err := d.ge.Merge(o.ge); err != nil {
			return err
		}
	}
	return nil
}

// reset clears both directions back to their freshly constructed state.
func (d *dual) reset() {
	if d.le != nil {
		d.le.Reset()
	}
	if d.ge != nil {
		d.ge.Reset()
	}
}

func (d *dual) queryLE(c uint64) (float64, error) {
	if d.le == nil {
		return 0, ErrDirection
	}
	return d.le.Query(c)
}

func (d *dual) queryGE(c uint64) (float64, error) {
	if d.ge == nil {
		return 0, ErrDirection
	}
	if c > d.ymax {
		return 0, nil // nothing can satisfy y >= c
	}
	return d.ge.Query(d.ymax - c)
}

func (d *dual) space() int64 {
	var s int64
	if d.le != nil {
		s += d.le.Space()
	}
	if d.ge != nil {
		s += d.ge.Space()
	}
	return s
}

// LevelOccupancy is one level's row of a summary's Occupancy: buckets
// stored, closed and untouched, sketches by form, the level's share of Space,
// the bytes behind it and its watermark.
type LevelOccupancy = core.LevelOccupancy

// occupancy returns the per-level rows of each enabled direction (nil for a
// disabled one). The GE rows describe the mirrored structure: a watermark w
// there means queries with c > YMax − w are served from the level.
func (d *dual) occupancy() (le, ge []LevelOccupancy) {
	if d.le != nil {
		le = d.le.Occupancy()
	}
	if d.ge != nil {
		ge = d.ge.Occupancy()
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

// footprint adds up the enabled directions.
func (d *dual) footprint() Footprint {
	var f Footprint
	for _, side := range []*core.Summary{d.le, d.ge} {
		if side != nil {
			f = f.Plus(side.Footprint())
		}
	}
	return f
}

func (d *dual) count() uint64 {
	if d.le != nil {
		return d.le.Count()
	}
	return d.ge.Count()
}
