package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/streamagg/correlated/internal/hash"
)

// TestPropertyCountSketchSingleItemExact: a CountSketch holding one item
// reports its weight exactly (no colliding mass exists).
func TestPropertyCountSketchSingleItemExact(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(301))
	prop := func(x uint64, wRaw uint16) bool {
		w := int64(wRaw%1000) + 1
		s := m.New().(*CountSketch)
		s.Add(x, w)
		return s.EstimateItem(x) == float64(w) &&
			s.Estimate() == float64(w)*float64(w)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyCountSketchMergeCommutative: merge order cannot matter for a
// linear sketch.
func TestPropertyCountSketchMergeCommutative(t *testing.T) {
	m := NewF2Maker(64, 3, hash.New(307))
	prop := func(seed uint64) bool {
		rng := hash.New(seed)
		a1, b1 := m.New(), m.New()
		a2, b2 := m.New(), m.New()
		for i := 0; i < 200; i++ {
			x, w := rng.Uint64n(100), int64(rng.Uint64n(5))+1
			a1.Add(x, w)
			a2.Add(x, w)
			x2, w2 := rng.Uint64n(100), int64(rng.Uint64n(5))+1
			b1.Add(x2, w2)
			b2.Add(x2, w2)
		}
		if err := a1.Merge(b1); err != nil {
			return false
		}
		if err := b2.Merge(a2); err != nil {
			return false
		}
		return a1.Estimate() == b2.Estimate()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCountSketchAddThenDeleteIsIdentity: inserting and deleting
// the same multiset leaves an exactly-empty sketch.
func TestPropertyCountSketchAddThenDeleteIsIdentity(t *testing.T) {
	m := NewF2Maker(32, 3, hash.New(311))
	prop := func(seed uint64) bool {
		rng := hash.New(seed)
		s := m.New().(*CountSketch)
		xs := make([]uint64, 100)
		for i := range xs {
			xs[i] = rng.Uint64n(1000)
			s.Add(xs[i], 1)
		}
		for _, x := range xs {
			s.Add(x, -1)
		}
		for _, c := range counters(s) {
			if c != 0 {
				return false
			}
		}
		return s.Estimate() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCounterLinearity: exact counters are exactly linear in
// weights and merge-associative.
func TestPropertyCounterLinearity(t *testing.T) {
	prop := func(ws []int16) bool {
		m := NewCountMaker()
		a, b, whole := m.New(), m.New(), m.New()
		var want int64
		for i, wRaw := range ws {
			w := int64(wRaw)
			whole.Add(uint64(i), w)
			if i%2 == 0 {
				a.Add(uint64(i), w)
			} else {
				b.Add(uint64(i), w)
			}
			want += w
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.Estimate() == float64(want) && whole.Estimate() == float64(want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyL1SingleItem: one item's L1 is |w| up to the estimator's
// median-of-Cauchy noise, and exactly linear under scaling.
func TestPropertyL1SingleItem(t *testing.T) {
	m := NewL1Maker(512, hash.New(317))
	prop := func(x uint64, wRaw uint16) bool {
		w := int64(wRaw%1000) + 1
		s := m.New()
		s.Add(x, w)
		est := s.Estimate()
		// Single item: every counter is w*C_j, so the median of
		// absolute values is |w| * median|C|. The sample median's
		// standard deviation at k=512 is ~0.07, so 0.35 is a ~5σ
		// margin.
		return math.Abs(est-float64(w)) <= 0.35*float64(w)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFkMergeNeverErrs: same-maker Fk merges always succeed and
// keep Size consistent.
func TestPropertyFkMergeNeverErrs(t *testing.T) {
	m := NewFkMaker(3, 16, 64, 64, 3, hash.New(331))
	prop := func(seed uint64) bool {
		rng := hash.New(seed)
		a, b := m.New(), m.New()
		for i := 0; i < 500; i++ {
			a.Add(rng.Uint64n(200), 1)
			b.Add(rng.Uint64n(200), 1)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.Size() > 0 && a.Estimate() > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
