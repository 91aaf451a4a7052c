package sketch

import "github.com/streamagg/correlated/internal/slab"

// Exact counters. The correlated SUM and COUNT aggregates go through the
// general reduction with a trivial "sketch": a single 64-bit accumulator
// with zero estimation error (υ = 0). COUNT is the first frequency moment
// F1 of the selected substream; SUM aggregates the x values themselves,
// matching the correlated sum studied by Gehrke et al. and Ananthakrishna
// et al. that the paper cites as prior work.

// CountMaker makes exact COUNT (F1) counters.
type CountMaker struct{ counterMaker }

// NewCountMaker returns a Maker for exact F1/COUNT counters.
func NewCountMaker() *CountMaker { return &CountMaker{} }

// SumMaker makes exact SUM counters: Add(x, w) contributes w*x.
type SumMaker struct{ counterMaker }

// NewSumMaker returns a Maker for exact SUM counters.
func NewSumMaker() *SumMaker { return &SumMaker{counterMaker{sum: true}} }

// counterMaker is what CountMaker and SumMaker share: every method of a Maker
// but its name.
type counterMaker struct {
	sum  bool
	slab slab.Slab[counter]
}

// New implements Maker.
func (m *counterMaker) New() Sketch { return &counter{sum: m.sum} }

// Alloc implements Maker.
func (m *counterMaker) Alloc() uint32 {
	h := m.slab.Alloc()
	*m.slab.At(h) = counter{sum: m.sum}
	return h
}

// At implements Maker.
func (m *counterMaker) At(h uint32) Sketch { return m.slab.At(h) }

// Free implements Maker. Alloc clears the slot again.
func (m *counterMaker) Free(h uint32) { m.slab.Free(h) }

// Slots implements SlotMaker. Exact counters have no hash functions; the
// "slot" is the item itself, so the fan-out path is exercisable (and
// testable) uniformly across every aggregate.
func (m *counterMaker) Slots(x uint64, scratch Slots) Slots {
	return append(scratch, x)
}

// SlotWidth implements SlotMaker.
func (m *counterMaker) SlotWidth() int { return 1 }

type counter struct {
	sum   bool
	total int64
}

func (c *counter) Add(x uint64, w int64) {
	if c.sum {
		c.total += w * int64(x)
	} else {
		c.total += w
	}
}

// AddSlots implements SlotAdder.
func (c *counter) AddSlots(slots Slots, w int64) {
	c.Add(slots[0], w)
}

// Reset implements Resetter.
func (c *counter) Reset() { c.total = 0 }

// ThresholdBudget implements BudgetEstimator. A COUNT estimate grows by
// exactly the added weight, so the budget is the exact distance to the
// threshold; SUM grows by w·x with unbounded x, so it offers no bound.
func (c *counter) ThresholdBudget(thresh float64) int64 {
	if c.sum {
		return 0
	}
	b := int64(thresh - float64(c.total))
	if b < 0 {
		return 0
	}
	return b
}

func (c *counter) Estimate() float64 { return float64(c.total) }

// Merge implements Sketch. Exact counterMaker carry no randomness, so any two
// counterMaker of the same flavour (both COUNT or both SUM) are compatible.
func (c *counter) Merge(other Sketch) error {
	o, ok := other.(*counter)
	if !ok || o.sum != c.sum {
		return ErrIncompatible
	}
	c.total += o.total
	return nil
}

func (c *counter) Size() int { return 1 }
